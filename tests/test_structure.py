"""Subgroup machinery: closures, centers, series, Frattini, maximals."""

import random
from importlib import resources

import numpy as np
import pytest

import pgw
from pgw import groupfile
from pgw import hypotheses as hy
from pgw import structure as st

import mask_reference as ref
from mask_reference import get_tables  # the numpy view of pgw's tables
from conftest import ALL_NAMES, FAMILY_NAMES, TEXT_NAMES, load_group

SMALL = [n for n in ALL_NAMES if pgw.load(n).order <= 81]


def _log(p, q):
    """The exact d with p^d = q."""
    d = 0
    while q % p == 0:
        q //= p
        d += 1
    assert q == 1, "not a power of p"
    return d


def test_closure_examples(demo_group):
    h27 = pgw.load("h27")
    assert pgw.closure(h27, [h27.generator(3)]).order == 3
    assert pgw.closure(h27, []).order == 1
    F = pgw.closure(demo_group, [demo_group.generator(i) for i in range(3, 8)])
    assert F.order == 243
    assert F == pgw.frattini(demo_group)


def test_center_examples(demo_group):
    h27 = pgw.load("h27")
    Z = pgw.center(h27)
    assert Z == pgw.closure(h27, [h27.generator(3)])
    c9 = pgw.load("c9")
    assert pgw.center(c9).order == 9
    Zd = pgw.center(demo_group)
    assert Zd.order == 3
    assert Zd == pgw.closure(demo_group, [demo_group.generator(7)])


@pytest.mark.parametrize("name", SMALL)
def test_centralizer_generator_test_agrees_with_full_scan(name):
    P = pgw.load(name)
    rng = random.Random(11)
    elems = pgw.closure(P, P.generators()).elements
    for _ in range(5):
        seed = [elems[rng.randrange(len(elems))] for _ in range(2)]
        H = pgw.closure(P, seed)
        C = pgw.centralizer(P, H)
        brute = {
            x for x in elems
            if all(pgw.comm(P, x, h) == pgw.identity(P) for h in H.elements)
        }
        assert set(C.elements) == brute


@pytest.mark.parametrize("name", ALL_NAMES)
def test_centralizer_sandwich(name):
    P = pgw.load(name)
    Z = pgw.center(P)
    H = pgw.closure(P, [P.generator(1)])
    C = pgw.centralizer(P, H)
    assert Z <= C
    assert pgw.centralizer(P, Z).order == P.order


def test_derived_agemo_frattini_h27():
    P = pgw.load("h27")
    f3 = pgw.closure(P, [P.generator(3)])
    assert pgw.derived(P) == f3
    assert pgw.agemo(P).order == 1
    assert pgw.frattini(P) == f3


def test_derived_trivial_for_abelian():
    for name in ("c9", "c3c3"):
        assert pgw.derived(pgw.load(name)).order == 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_frattini_equals_intersection_of_maximals(name):
    P = pgw.load(name)
    maxes = pgw.maximal_subgroups(P)
    inter = set.intersection(*(set(M.elements) for M in maxes))
    assert set(pgw.frattini(P).elements) == inter


@pytest.mark.parametrize("name", ALL_NAMES)
def test_maximal_subgroup_count_and_shape(name):
    P = pgw.load(name)
    maxes = pgw.maximal_subgroups(P)
    d = pgw.rank(P)
    assert len(maxes) == (P.p**d - 1) // (P.p - 1)
    F = pgw.frattini(P)
    for M in maxes:
        assert M.order * P.p == P.order
        assert F <= M


@pytest.mark.parametrize("name", SMALL)
def test_maximals_are_genuinely_maximal_and_normal(name):
    P = pgw.load(name)
    elems = pgw.closure(P, P.generators()).elements
    for M in pgw.maximal_subgroups(P):
        outside = [x for x in elems if x not in M]
        for x in outside[:6]:
            assert pgw.closure(P, list(M.gens) + [x]).order == P.order
        for t in (P.generators()):
            for m in M.gens:
                assert pgw.conj(P, m, t) in M


def _greedy_gens_reference(P, mask):
    """Lex-greedy generating set of the subgroup with this mask: walk it in
    index order and add each element not yet generated, one closure per
    generator added."""
    t = get_tables(P)
    gens = []
    cur = ref.closure_mask(t, gens)
    for i in np.flatnonzero(mask):
        if not cur[i]:
            gens.append(i)
            cur = ref.closure_mask(t, gens)
    return tuple(ref.tuples(t, gens))


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_layer_gens_match_greedy_reference(name):
    # Subgroup reads one generator per pc layer off the mask; the reference
    # finds the same set by closures
    P = load_group(name)
    rng = random.Random(5)
    maxes = pgw.maximal_subgroups(P)
    subgroups = [
        st.whole_group(P),
        st.trivial_subgroup(P),
        pgw.center(P),
        pgw.frattini(P),
        pgw.derived(P),
        pgw.agemo(P),
        *maxes,
        *(pgw.center_of(P, M) for M in maxes),
        *pgw.upper_central_series(P).terms,
        *pgw.lower_central_series(P).terms,
    ]
    elems = st.whole_group(P).elements
    for _ in range(3):
        subgroups.append(pgw.closure(P, [elems[rng.randrange(P.order)] for _ in range(2)]))
    for H in subgroups:
        assert H.gens == _greedy_gens_reference(P, ref.mask_of(H))


def _lifted_basis_reference(P):
    """Phi(G) as a normal closure, and the maximals as hyperplanes in the
    coordinates of a lex-least lifted basis of G/Phi(G), each Phi-coset
    labelled by multiplying out its representative."""
    t = get_tables(P)
    p = P.p
    F = ref.frattini_mask(P, np.ones(t.N, dtype=bool))
    basis = []
    span = F
    while span.sum() < t.N:
        basis.append(int(np.flatnonzero(~span)[0]))
        span = ref.closure_mask(t, list(t.encode(list(ref.layer_gens(t, F)))) + basis)
    d = len(basis)
    assert p**d * F.sum() == t.N
    coords = -np.ones((t.N, d), dtype=np.int32)
    for combo in np.ndindex(*([p] * d)):
        rep = 0
        for b, c in zip(basis, combo):
            rep = t.mul(rep, t.pow(b, c))
        coset = t.mul(rep, ref.indices(F))
        assert np.all(coords[coset, 0] == -1), "cosets overlap"
        coords[coset] = combo
    maxes = [coords @ np.array(v) % p == 0 for v in st._dual_vectors(p, d)]
    return F, maxes


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_pc_frattini_and_maximals_match_lifted_basis(name):
    # the subgroup layer reads both off the first d digits; the reference
    # works them out from closures, and the numbering M1..Mk must agree
    P = load_group(name)
    F, maxes = _lifted_basis_reference(P)
    got = [pgw.frattini(P)] + list(pgw.maximal_subgroups(P))
    want = [F] + maxes
    assert [(ref.mask_of(H).tolist(), H.gens, H.order) for H in got] == [
        (H.tolist(), _greedy_gens_reference(P, H), int(H.sum())) for H in want
    ]


def test_c9_single_maximal():
    P = pgw.load("c9")
    maxes = pgw.maximal_subgroups(P)
    assert len(maxes) == 1
    assert maxes[0] == pgw.closure(P, [P.generator(2)])


def test_h27_maximals_all_abelian():
    P = pgw.load("h27")
    maxes = pgw.maximal_subgroups(P)
    assert len(maxes) == 4
    assert all(pgw.is_abelian(P, M) for M in maxes)
    assert all(M.order == 9 for M in maxes)


def test_central_series_examples(demo_group):
    h27 = pgw.load("h27")
    up = pgw.upper_central_series(h27)
    assert [t.order for t in up.terms] == [1, 3, 27]
    assert pgw.nilpotency_class(h27) == 2
    assert pgw.nilpotency_class(pgw.load("c9")) == 1
    assert pgw.nilpotency_class(demo_group) == 4


@pytest.mark.parametrize("name", ALL_NAMES)
def test_series_are_strict_and_agree(name):
    P = pgw.load(name)
    up = pgw.upper_central_series(P).terms
    low = pgw.lower_central_series(P).terms
    assert up[0].order == 1 and up[-1].order == P.order
    assert low[0].order == P.order and low[-1].order == 1
    for a, b in zip(up, up[1:]):
        assert a.order < b.order
        assert a <= b
    for a, b in zip(low, low[1:]):
        assert b.order < a.order
        assert b <= a
    assert len(up) == len(low)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_second_center_matches_definition(name):
    P = pgw.load(name)
    Z = pgw.center(P)
    Z2 = pgw.second_center(P)
    elems = pgw.closure(P, P.generators()).elements
    brute = {
        x for x in elems
        if all(pgw.comm(P, x, g) in Z for g in P.generators())
    }
    assert set(Z2.elements) == brute


def test_omega1_examples(demo_group):
    c9 = pgw.load("c9")
    W = pgw.omega1(c9, st.whole_group(c9))
    assert W == pgw.closure(c9, [c9.generator(2)])
    c3c3 = pgw.load("c3c3")
    assert pgw.omega1(c3c3, st.whole_group(c3c3)).order == 9
    A = pgw.closure(demo_group, [demo_group.generator(6), demo_group.generator(7)])
    assert pgw.omega1(demo_group, A) == A
    assert A.order == 9


def test_omega1_rejects_nonabelian():
    h27 = pgw.load("h27")
    with pytest.raises(pgw.NotAbelian):
        pgw.omega1(h27, st.whole_group(h27))


def test_rank_examples(demo_group):
    assert pgw.rank(pgw.load("c9")) == 1
    assert pgw.rank(pgw.load("h27")) == 2
    assert pgw.rank(demo_group) == 2
    h27 = pgw.load("h27")
    M = pgw.maximal_subgroups(h27)[0]
    assert pgw.rank(h27, M) == 2


def test_quotient_facts_examples(demo_group):
    h27 = pgw.load("h27")
    G = st.whole_group(h27)
    B = pgw.closure(h27, [h27.generator(3)])
    q = pgw.quotient_facts(h27, G, B)
    assert q == {"order": 9, "elementary_abelian": True, "rank": 2}
    q = pgw.quotient_facts(h27, B, B)
    assert q == {"order": 1, "elementary_abelian": True, "rank": 0}
    Z2 = pgw.second_center(demo_group)
    Z = pgw.center(demo_group)
    q = pgw.quotient_facts(demo_group, Z2, Z)
    assert q["elementary_abelian"] is True
    assert q["rank"] == 2


def _all_pairs(P, A, B):
    """Mask of every commutator [a, b], a in A, b in B, by brute force."""
    t = get_tables(P)
    seen = np.zeros(t.N, dtype=bool)
    ai, bi = ref.indices(ref.mask_of(A)), ref.indices(ref.mask_of(B))
    if len(ai) < len(bi):
        for a in ai:
            seen[t.comm(a, bi)] = True
    else:
        for b in bi:
            seen[t.comm(ai, b)] = True
    return seen


@pytest.mark.parametrize("name", ALL_NAMES)
def test_generator_subgroups_match_all_pairs(name):
    # the subgroup layer builds [A, B] and Phi(H) from generators; here they
    # are rebuilt from every pair of elements
    P = pgw.load(name)
    t = get_tables(P)
    G = st.whole_group(P)
    Z = pgw.center(P)
    trivial = st.trivial_subgroup(P)
    for H in (G, Z, pgw.second_center(P)) + pgw.maximal_subgroups(P):
        for K in (G, H):
            want = ref.closure_mask(t, np.flatnonzero(_all_pairs(P, H, K)))
            assert ref.mask_of(pgw.commutator_subgroup(P, H, K)).tolist() == want.tolist()
        comms = _all_pairs(P, H, H)
        powers = t.pow(ref.indices(ref.mask_of(H)), P.p)
        phi = ref.closure_mask(t, np.concatenate([np.flatnonzero(comms), powers]))
        quot = H.order // int(phi.sum())
        assert P.p ** pgw.rank(P, H) == quot
        if H is G:
            assert ref.mask_of(pgw.frattini(P)).tolist() == phi.tolist()
        for B in (trivial, Z):
            if B <= H:
                bmask = ref.mask_of(B)
                ea = bool(bmask[powers].all() and bmask[comms].all())
                q = pgw.quotient_facts(P, H, B)
                assert q["elementary_abelian"] is ea
                assert q["rank"] == (_log(P.p, H.order // B.order) if ea else None)

    assert ref.mask_of(pgw.derived(P)).tolist() == ref.closure_mask(
        t, np.flatnonzero(_all_pairs(P, G, G))
    ).tolist()
    term = G
    for got in pgw.lower_central_series(P).terms[1:]:
        want = ref.closure_mask(t, np.flatnonzero(_all_pairs(P, term, G)))
        assert ref.mask_of(got).tolist() == want.tolist()
        term = got
    assert term.order == 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_normal_closure_matches_all_conjugates(name):
    # the closure of one element is rarely normal, so the rounds that add
    # conjugates of the layer generators are exercised here
    P = pgw.load(name)
    t = get_tables(P)
    rng = random.Random(3)
    for x in [int(t.strides[0])] + [rng.randrange(P.order) for _ in range(4)]:
        got = st._normal_closure(P, ref.tuples(t, [x]), P.generators())
        assert ref.mask_of(got).tolist() == ref.closure_mask(t, t.conj(x, t.all)).tolist()


def test_quotient_facts_rejects_nonnormal():
    h27 = pgw.load("h27")
    A = st.whole_group(h27)
    B = pgw.closure(h27, [h27.generator(1)])
    with pytest.raises(pgw.NotNormal):
        pgw.quotient_facts(h27, A, B)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_grun_lemma(name):
    P = pgw.load(name)
    Z2 = pgw.second_center(P)
    D = pgw.derived(P)
    assert pgw.commutator_subgroup(P, Z2, D).order == 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_exponent_bound_on_second_center(name):
    P = pgw.load(name)
    Z = pgw.center(P)
    e = pgw.exponent(P, Z)
    for g in pgw.second_center(P).elements:
        assert pgw.pow_(P, g, e) in Z


@pytest.mark.parametrize("name", ALL_NAMES)
def test_subgroup_elements_sorted_and_closed(name):
    P = pgw.load(name)
    rng = random.Random(23)
    elems = pgw.closure(P, P.generators()).elements
    for _ in range(3):
        seed = [elems[rng.randrange(len(elems))] for _ in range(2)]
        H = pgw.closure(P, seed)
        assert list(H.elements) == sorted(H.elements)
        assert pgw.identity(P) in H
        sample = list(H.elements)[:25]
        for a in sample:
            assert pgw.inv(P, a) in H
            for b in sample[:8]:
                assert pgw.mul(P, a, b) in H
        k = P.order // H.order
        assert H.order * k == P.order


def test_word_str_rendering(demo_group):
    P = demo_group
    assert st.word_str(pgw.identity(P)) == "1"
    e = pgw.mul(P, P.generator(2), P.generator(6))
    assert st.word_str(e) == "g2^1 g6^1"


def test_exponent_values(demo_group):
    assert pgw.exponent(pgw.load("h27")) == 3
    assert pgw.exponent(pgw.load("x27")) == 9
    assert pgw.exponent(demo_group) == 81
    Z = pgw.center(demo_group)
    assert pgw.exponent(demo_group, Z) == 3


def test_subgroup_comparisons_need_the_same_presentation():
    # two parses of one file are different presentations: their subgroups
    # never compare equal or contained, although their element tuples agree
    text = pgw.serialize(pgw.load("h27"))
    P = pgw.parse_text(text).presentation
    Q = pgw.parse_text(text).presentation
    G, H = st.whole_group(P), st.whole_group(Q)
    Z = pgw.center(P)
    assert G.elements == H.elements
    assert G == G and G <= G and Z <= G
    assert G != H
    assert not G <= H and not pgw.center(Q) <= G
    assert not G <= Z


def test_subgroup_membership_of_malformed_tuples():
    P = pgw.load("h27")
    G = st.whole_group(P)
    assert pgw.identity(P) in G
    for bad in [(0, 0), (0, 0, 0, 0), (0, 0, 3), (0, -1, 0)]:
        assert bad not in G


def _same(P, H, mask):
    """The pc subgroup H has the reference mask's elements and its layer
    generators."""
    t = get_tables(P)
    assert ref.mask_of(H).tolist() == mask.tolist()
    assert H.gens == ref.layer_gens(t, mask)
    assert H.order == int(mask.sum())


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES + TEXT_NAMES)
def test_pc_subgroups_match_mask_reference(name):
    # every subgroup the pc layer builds equals the mask the table algebra
    # gives; the reference is the mask code the pc layer replaced
    P = load_group(name)
    t = get_tables(P)
    rng = random.Random(13)
    every = np.ones(t.N, dtype=bool)
    _same(P, st.whole_group(P), every)
    _same(P, st.trivial_subgroup(P), t.all == 0)
    Z = ref.centralizer_mask(P, P.generators())
    _same(P, pgw.center(P), Z)
    upper = ref.upper_central_series(P)
    assert len(pgw.upper_central_series(P).terms) == len(upper)
    for H, mask in zip(pgw.upper_central_series(P).terms, upper):
        _same(P, H, mask)
    lower = ref.lower_central_series(P)
    assert len(pgw.lower_central_series(P).terms) == len(lower)
    for H, mask in zip(pgw.lower_central_series(P).terms, lower):
        _same(P, H, mask)
    _same(P, pgw.derived(P), ref.commutator_mask(P, every, every))
    _same(P, pgw.agemo(P), ref.agemo(P))
    _same(P, pgw.frattini(P), ref.frattini_mask(P, every))
    maximals = ref.maximals(P, st._dual_vectors(P.p, P.minimal_count))
    assert len(pgw.maximal_subgroups(P)) == len(maximals)
    centers = []
    for M, mask in zip(pgw.maximal_subgroups(P), maximals):
        _same(P, M, mask)
        centers.append(ref.centralizer_mask(P, ref.layer_gens(t, mask)) & mask)
        _same(P, pgw.center_of(P, M), centers[-1])
        assert pgw.rank(P, M) == _log(P.p, M.order // int(ref.frattini_mask(P, mask).sum()))
    Z2 = upper[min(2, len(upper) - 1)]
    F = ref.frattini_mask(P, every)
    z_phi = ref.centralizer_mask(P, ref.layer_gens(t, F)) & F
    _same(P, pgw.center_of(P, pgw.frattini(P)), z_phi)
    _same(P, pgw.centralizer(P, pgw.center_of(P, pgw.frattini(P))),
          ref.centralizer_mask(P, ref.layer_gens(t, z_phi)))
    for A in (pgw.center(P), pgw.second_center(P), pgw.derived(P)):
        if pgw.is_abelian(P, A):
            _same(P, pgw.omega1(P, A), ref.omega1(P, ref.mask_of(A)))
        assert pgw.exponent(P, A) == ref.exponent(P, ref.mask_of(A))
    assert pgw.exponent(P) == ref.exponent(P, every)
    assert pgw.rank(P) == _log(P.p, P.order // int(F.sum()))
    _same(P, pgw.commutator_subgroup(P, pgw.second_center(P), pgw.derived(P)),
          ref.commutator_mask(P, Z2, ref.mask_of(pgw.derived(P))))

    # random closures and centralizers, and the normal closure of an element
    elems = st.whole_group(P).elements
    for k in (1, 2, 3):
        seeds = [elems[rng.randrange(P.order)] for _ in range(k)]
        H = pgw.closure(P, seeds)
        _same(P, H, ref.closure_mask(t, t.encode(seeds)))
        _same(P, pgw.centralizer(P, H), ref.centralizer_mask(P, H.gens))
        _same(P, pgw.centralizer(P, seeds[0]), ref.centralizer_mask(P, [seeds[0]]))
        _same(P, pgw.center_of(P, H), ref.centralizer_mask(P, H.gens) & ref.mask_of(H))
        conj = st._normal_closure(P, seeds, P.generators())
        _same(P, conj, ref.normal_closure_mask(P, t.encode(seeds), P.generators()))
        members = elems[:: max(1, P.order // 50)]
        mask = ref.mask_of(H)
        assert [x in H for x in members] == [bool(mask[t.encode(x)]) for x in members]

    # the hypotheses that read these subgroups
    verdict = hy.check_zm_condition(P)
    assert verdict == ref.zm_condition(P, Z, maximals, centers)
    outside = ref.order_p_outside(P, Z2, Z)
    assert st.least_order_p_outside_center(P) == (outside[0] if outside else None)
    assert pgw.check_theorem_hypotheses(P).diagnostics["omega1_z2_exceeds_center"] is bool(outside)


def _subgroups(value):
    """The Subgroups in a memoized result: a Subgroup, or tuples of them."""
    if isinstance(value, st.Subgroup):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _subgroups(v)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_power_memo_is_one_dict_of_powers_per_presentation(name):
    # the subgroup layer keeps its powers h^e in P._memo[st._power] alone:
    # every entry is a true power with 0 < e < p, a fresh parse of the same
    # text starts with none, and no Subgroup keeps a dict of its own
    text = (resources.files("pgw") / "data" / f"{name}.pg").read_text(encoding="utf-8")
    P = groupfile.parse_text(text).presentation
    assert st._power not in P._memo
    pgw.check_theorem_hypotheses(P)
    st.maximal_centers(P)
    memo = P._memo[st._power]
    assert memo
    for (h, e), y in memo.items():
        assert 0 < e < P.p and y == pgw.pow_(P, h, e)
    assert st._power not in groupfile.parse_text(text).presentation._memo
    subgroups = [H for value in P._memo.values() for H in _subgroups(value)]
    assert subgroups
    for H in subgroups:
        assert [k for k, v in vars(H).items() if isinstance(v, dict)] == ["_lead"]


@pytest.mark.parametrize("name", ["c9", "c3c3", "h27", "x27", "m3125", "m16807"])
def test_exponent_below_class_p_matches_the_scan(name):
    # below class p the group is regular and exponent() takes the largest
    # order of a generator; the scan that other groups take, and the order
    # of every element, give the same value, on G and on its subgroups
    P = load_group(name)
    assert pgw.nilpotency_class(P) < P.p
    for H in (None, pgw.center(P), pgw.derived(P), *pgw.maximal_subgroups(P)):
        K = st.whole_group(P) if H is None else H
        scan = max((pgw.element_order(P, x) for x in st._leading_ones(P, K.gens)), default=1)
        every = max(pgw.element_order(P, x) for x in K.elements)
        assert pgw.exponent(P, H) == scan == every


# w81 x C_3^4, with the four central generators among the minimal ones: class
# 3 = p, so exponent() scans all 3^8 elements, whose p-power chains meet
W81_C3_4 = (
    "name w81c34\np 3\nn 8\ncomm 2 1 = g7^1\ncomm 7 1 = g8^1\n"
    "def 7 = comm 2 1\ndef 8 = comm 7 1\n"
)


@pytest.mark.parametrize("name", ALL_NAMES + TEXT_NAMES + ("w81c34",))
def test_exponent_is_the_largest_element_order(name):
    # the scan keeps every order it finds and cuts chains at a known one;
    # element_order walks each chain to the identity on its own
    if name == "w81c34":
        P = groupfile.parse_text(W81_C3_4, source=name).presentation
    else:
        P = load_group(name)
    for H in (None, pgw.center(P), pgw.derived(P)):
        K = st.whole_group(P) if H is None else H
        assert pgw.exponent(P, H) == max(pgw.element_order(P, x) for x in K.elements)
    if name == "w81c34":
        assert pgw.exponent(P) == 9 < P.p ** st._p_class(P)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda P: st.closure(P, [(1, 0, 0, 0)]),
         "generator (1, 0, 0, 0) is not a normal form: need 3 ints in 0..2"),
        (lambda P: st.closure(P, [(3, 0, 0)]),
         "generator (3, 0, 0) is not a normal form: need 3 ints in 0..2"),
        (lambda P: st.closure(P, [[0, 1, 0], None]),
         "generator None is not a normal form: need 3 ints in 0..2"),
        (lambda P: st.centralizer(P, (0, 0, -1)),
         "element (0, 0, -1) is not a normal form: need 3 ints in 0..2"),
        (lambda P: st.centralizer(P, [1, 0]),
         "element (1, 0) is not a normal form: need 3 ints in 0..2"),
        (lambda P: st.least_in_coset(P, pgw.center(P), (1, 0, 0, 5)),
         "element (1, 0, 0, 5) is not a normal form: need 3 ints in 0..2"),
    ],
    ids=["closure-long", "closure-digit", "closure-none", "centralizer-negative",
         "centralizer-short", "least-in-coset-long"],
)
def test_element_arguments_must_be_normal_forms(call, message):
    with pytest.raises(ValueError) as err:
        call(pgw.load("h27"))
    assert str(err.value) == message
