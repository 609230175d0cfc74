"""Collection arithmetic against independent integer models and axioms."""

import gc
import importlib.resources
import json
import pathlib
import random
import re
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import pgw
from pgw import automorphisms as au
from pgw import groupfile
from pgw import hypotheses as hy
from pgw import presentation as pc
from pgw import structure as st
from pgw import tables

from conftest import (
    ALL_NAMES,
    FAMILY,
    FAMILY_NAMES,
    MODELS,
    assert_isomorphic,
    derive_corpus,
    load_group,
)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_isomorphic_to_integer_model(name):
    P = pgw.load(name)
    mul, one, gens = MODELS[name]
    assert_isomorphic(P, mul, one, gens)


def test_collect_h27_swap():
    P = pgw.load("h27")
    # [f2,f1] = f3 forces f2 f1 = f1 f2 f3
    assert pgw.collect(P, ((2, 1), (1, 1))) == (1, 1, 1)


def test_collect_empty_word_is_identity():
    for name in ALL_NAMES:
        P = pgw.load(name)
        assert pgw.collect(P, ()) == pgw.identity(P)


def test_collect_c9_power_spill():
    P = pgw.load("c9")
    assert pgw.collect(P, ((1, 4),)) == (1, 1)
    assert pgw.pow_(P, P.generator(1), 4) == (1, 1)


def test_comm_defining_relation_h27():
    P = pgw.load("h27")
    assert pgw.comm(P, P.generator(2), P.generator(1)) == (0, 0, 1)


def test_comm_defining_relation_demo(demo_group):
    P = demo_group
    f2, f1 = P.generator(2), P.generator(1)
    f3 = P.generator(3)
    assert pgw.comm(P, f2, f1) == f3


def _random_element(rng, P):
    return tuple(rng.randrange(P.p) for _ in range(P.n))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_mul_inverse_is_identity(name):
    P = pgw.load(name)
    rng = random.Random(7)
    for _ in range(100):
        a = _random_element(rng, P)
        assert pgw.mul(P, a, pgw.inv(P, a)) == pgw.identity(P)
        assert pgw.mul(P, pgw.inv(P, a), a) == pgw.identity(P)


def test_element_order_examples(demo_group):
    c9 = pgw.load("c9")
    assert pgw.element_order(c9, pgw.identity(c9)) == 1
    assert pgw.element_order(c9, c9.generator(1)) == 9
    assert pgw.element_order(demo_group, demo_group.generator(6)) == 3
    assert pgw.element_order(demo_group, demo_group.generator(1)) == 27


@pytest.mark.parametrize("name", ALL_NAMES)
def test_associativity_random_triples(name):
    # 1500 per group, > 10^4 in total across the corpus
    P = pgw.load(name)
    rng = random.Random(51)
    for _ in range(1500):
        a, b, c = (_random_element(rng, P) for _ in range(3))
        assert pgw.mul(P, pgw.mul(P, a, b), c) == pgw.mul(P, a, pgw.mul(P, b, c))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_generator_closure_has_full_order(name):
    P = pgw.load(name)
    H = pgw.closure(P, P.generators())
    assert H.order == P.order


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if pgw.load(n).order <= 3**5])
def test_collect_idempotent_on_normal_forms(name):
    P = pgw.load(name)
    for e in pgw.closure(P, P.generators()).elements:
        assert pgw.collect(P, pgw.word_of(e)) == e


def test_pow_handles_negative_exponents():
    P = pgw.load("m243")
    rng = random.Random(3)
    for _ in range(50):
        a = _random_element(rng, P)
        k = rng.randrange(-30, 30)
        expect = pgw.identity(P)
        step = a if k >= 0 else pgw.inv(P, a)
        for _ in range(abs(k)):
            expect = pgw.mul(P, expect, step)
        assert pgw.pow_(P, a, k) == expect


@pytest.mark.parametrize("name", ALL_NAMES)
def test_lemma_expansion_identities(name):
    # for x in Z2(G), any y and n: (xy)^n = x^n y^n [y,x]^(n(n-1)/2)
    # and [x^n, y] = [x,y]^n = [x, y^n]
    P = pgw.load(name)
    Z2 = pgw.second_center(P)
    rng = random.Random(29)
    z2 = list(Z2.elements)
    for _ in range(120):
        x = z2[rng.randrange(len(z2))]
        y = _random_element(rng, P)
        for n in range(1, 2 * P.p + 1):
            lhs = pgw.pow_(P, pgw.mul(P, x, y), n)
            rhs = pgw.mul(
                P,
                pgw.mul(P, pgw.pow_(P, x, n), pgw.pow_(P, y, n)),
                pgw.pow_(P, pgw.comm(P, y, x), n * (n - 1) // 2),
            )
            assert lhs == rhs
            cn = pgw.pow_(P, pgw.comm(P, x, y), n)
            assert pgw.comm(P, pgw.pow_(P, x, n), y) == cn
            assert pgw.comm(P, x, pgw.pow_(P, y, n)) == cn


def _random_word(rng, P, max_len=12):
    """Letters (g, m) with m in [-2p, 2p], zero included."""
    return [
        (rng.randrange(1, P.n + 1), rng.randrange(-2 * P.p, 2 * P.p + 1))
        for _ in range(rng.randrange(max_len + 1))
    ]


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_collect_matches_index_algebra(name):
    # the index algebra is built from the relations and never collects, so it
    # is an independent value for any word; f_g has index strides[g - 1]
    P = load_group(name)
    t = tables.get_tables(P)
    rng = random.Random(19)
    for _ in range(400):
        w = _random_word(rng, P)
        want = 0
        for g, m in w:
            want = t.mul(want, t.pow(t.strides[g - 1], m))
        assert t.encode(pc.collect(P, w)) == want, w


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_stored_conjugates_match_index_algebra(name):
    # row b of f_j holds (f_k^e)^(f_j^(2^b)) for every 2^b < p: two rows at
    # p = 3, three at p = 5 and p = 7
    P = load_group(name)
    t = tables.get_tables(P)
    table = pc.conjugates(P)
    for j in range(1, P.n + 1):
        rows = table[j - 1]
        assert len(rows) == (P.p - 1).bit_length()
        for b, row in enumerate(rows):
            fj_b = t.pow(t.strides[j - 1], 2**b)
            for k in range(j + 1, P.n + 1):
                entries = row[k - 1]
                assert len(entries) == P.p
                for e in range(1, P.p):
                    word = entries[e][::-1]  # stored in push order
                    gens = [g for g, _ in word]
                    assert gens == sorted(set(gens)) and gens[0] == k, word
                    assert word[0][1] == e, word
                    assert all(0 < c < P.p for _, c in word), word
                    x = sum(c * t.strides[g - 1] for g, c in word)
                    fk_e = t.pow(t.strides[k - 1], e)
                    assert x == t.conj(fk_e, fj_b), (j, b, k, e)


def _g2187_text():
    return importlib.resources.files("pgw").joinpath("data/g2187.pg").read_text()


def test_conjugates_built_once_per_parse(monkeypatch):
    # the consistency battery builds the table on the raw object, validate
    # hands that one object on, and later products reuse it
    raws = []
    validate = pc.validate

    def recording(P):
        raws.append(P)
        return validate(P)

    monkeypatch.setattr(pc, "validate", recording)
    P = groupfile.parse_text(_g2187_text()).presentation
    table = P._memo[pc.conjugates]
    pgw.mul(P, P.generator(2), P.generator(1))
    pgw.inv(P, P.generator(1))
    assert len(raws) == 1
    assert pc.conjugates(P) is table is raws[0]._memo[pc.conjugates]


def test_validate_keeps_no_reference_to_the_raw_presentation(monkeypatch):
    refs = []
    validate = pc.validate

    def recording(P):
        refs.append(weakref.ref(P))
        return validate(P)

    monkeypatch.setattr(pc, "validate", recording)
    P = groupfile.parse_text(_g2187_text()).presentation
    pgw.mul(P, P.generator(2), P.generator(1))
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert P.validated


def _memo_dicts(P):
    """The distinct dicts of P's tail memo; a central level shares one."""
    dicts = {}
    for _, memo, _ in P._memo.get(pc._fresh_tails) or ():
        for d in memo or ():
            if d is not None:
                dicts[id(d)] = d
    return list(dicts.values())


def _memo_entries(P):
    return sum(len(d) for d in _memo_dicts(P))


def _memo_bound(P):
    # the bound of the conjugates() docstring: p^(n-j) - 1 nonzero tails per
    # level j, keyed once on a central level and 2 bit_length(p - 1) times
    # on any other; a level is memoized when its tails number at most
    # MEMO_TAILS and that key count is at most MEMO_KEYS
    bound = 0
    for j in range(1, P.n + 1):
        tails = P.p ** (P.n - j)
        central = not any(P.comm_rel.get((k, j)) for k in range(j + 1, P.n + 1))
        keys = (tails - 1) * (1 if central else 2 * (P.p - 1).bit_length())
        if tails <= pc.MEMO_TAILS and keys <= pc.MEMO_KEYS:
            bound += keys
    return bound


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_tail_memo_cold_and_warm_match_index_algebra(name):
    # a fresh validation starts with a cold memo; the second pass repeats the
    # same products, finds every crossing in the memo and adds nothing to it
    P = pc.validate(load_group(name).replace())
    t = tables.get_tables(P)
    rng = random.Random(29)
    pairs = [(_random_element(rng, P), _random_element(rng, P)) for _ in range(300)]
    words = [_random_word(rng, P) for _ in range(100)]
    assert _memo_entries(P) == 0
    filled = None
    for memo in ("cold", "warm"):
        for a, b in pairs:
            assert t.encode(pc.mul(P, a, b)) == t.mul(t.encode(a), t.encode(b)), (memo, a, b)
        for w in words:
            want = 0
            for g, m in w:
                want = t.mul(want, t.pow(t.strides[g - 1], m))
            assert t.encode(pc.collect(P, w)) == want, (memo, w)
        assert filled is None or _memo_entries(P) == filled
        filled = _memo_entries(P)
    assert filled <= _memo_bound(P)


@pytest.mark.parametrize("name", ["g2187", "m_p97"])
def test_tail_memo_stays_within_its_bound(name):
    if name == "m_p97":
        P = groupfile.parse_text(FAMILY.format(order=97**5, p=97, q=96)).presentation
    else:
        P = pgw.load(name)
    rng = random.Random(97)
    for _ in range(10**4):
        pc.mul(P, _random_element(rng, P), _random_element(rng, P))
    assert 0 < _memo_entries(P) <= _memo_bound(P)


def test_tail_memo_only_on_validated_and_never_shared(monkeypatch):
    raws = []
    validate = pc.validate

    def recording(P):
        raws.append(P)
        return validate(P)

    monkeypatch.setattr(pc, "validate", recording)
    P, Q = (groupfile.parse_text(_g2187_text()).presentation for _ in range(2))
    # the consistency battery collects on the raw object, which holds no memo
    assert len(raws) == 2 and all(pc._fresh_tails not in raw._memo for raw in raws)
    assert P.replace()._memo == {}
    rng = random.Random(31)
    for _ in range(200):
        pc.mul(P, _random_element(rng, P), _random_element(rng, P))
    assert _memo_entries(P) > 0 and _memo_entries(Q) == 0
    assert not {id(d) for d in _memo_dicts(P)} & {id(d) for d in _memo_dicts(Q)}


def test_collector_binds_its_state_once_per_presentation(monkeypatch):
    # p, n - 1, the power words, the stored conjugates and the tail memo sit
    # in one P._memo entry; the raw object the battery collects on binds no
    # tail memo, and a P.replace() copy binds its own
    raws = []
    validate = pc.validate

    def recording(P):
        raws.append(P)
        return validate(P)

    monkeypatch.setattr(pc, "validate", recording)
    P = groupfile.parse_text(_g2187_text()).presentation
    pgw.mul(P, P.generator(2), P.generator(1))
    state = P._memo[pc._collector]
    assert state[:3] == (P.p, P.n - 1, P.power_rel)
    assert state[3] is P._memo[pc.conjugates] and state[4] is P._memo[pc._fresh_tails]
    raw = raws[0]._memo[pc._collector]
    assert raw[3] is state[3] and raw[4] is None
    copy = P.replace()
    assert pc._collector not in copy._memo
    f2, f1 = P.generator(2), P.generator(1)
    assert pgw.mul(copy, f2, f1) == pgw.mul(P, f2, f1)
    assert copy._memo[pc._collector][4] is None


@pytest.mark.parametrize("memo_keys", [None, 0])
def test_collector_scan_reads_the_tail_memo(memo_keys):
    # scripts/collector_scan.py is where MEMO_KEYS and MEMO_TAILS were set
    # from; it reads the memo itself and loads FAMILY from derive_corpus
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "collector_scan.py"
    argv = [sys.executable, str(script), "--reps", "1", "--primes", "3"]
    if memo_keys is not None:
        argv += ["--memo-keys", str(memo_keys)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    groups = json.loads(proc.stdout)["groups"]
    assert sorted(groups) == ["c243h27", "m_p3"]
    for name, scan in groups.items():
        if memo_keys == 0:  # no level is memoized
            assert scan["memo_entries"] == 0, name
        else:
            assert scan["memo_entries"] > 0, name


@pytest.mark.parametrize("name", ["h27", "g2187", "m3125"])
def test_collect_and_mul_leave_inputs_unchanged(name):
    P = load_group(name)
    rng = random.Random(23)
    for _ in range(50):
        w = _random_word(rng, P)
        before = list(w)
        pc.collect(P, w)
        assert w == before
        a, b = list(_random_element(rng, P)), _random_element(rng, P)
        a_before = list(a)
        pc.mul(P, a, b)
        assert a == a_before


def test_validate_rejects_bad_weight():
    with pytest.raises(pgw.BadWeight):
        pc.validate(
            pc.PcPresentation(
                name="bad", p=3, n=2,
                power_rel=(((1, 1),), ()), comm_rel={}, defn={},
            )
        )
    with pytest.raises(pgw.BadWeight):
        pc.validate(
            pc.PcPresentation(
                name="bad", p=3, n=3,
                power_rel=((), (), ()), comm_rel={(3, 1): ((2, 1),)},
                defn={},
            )
        )


def test_validate_rejects_inconsistent_presentation():
    # f2 = f1^3 is a power of f1, so [f2,f1] = f3 cannot hold
    with pytest.raises(pgw.ConsistencyViolation):
        pc.validate(
            pc.PcPresentation(
                name="bad", p=3, n=3,
                power_rel=(((2, 1),), ((3, 1),), ()),
                comm_rel={(2, 1): ((3, 1),)},
                defn={},
            )
        )


def _perturbed(rng, P):
    """P's relations with one or two letters set to a seeded exponent, or
    dropped, each in a pow or comm relation of some f_i, right of f_i."""
    rels = {("pow", i): dict(P.power_rel[i - 1]) for i in range(1, P.n + 1)}
    rels.update({("comm",) + key: dict(w) for key, w in P.comm_rel.items()})
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(1, P.n - 1)
        w = rels.setdefault(rng.choice([("pow", i)] + [("comm", i, j) for j in range(1, i)]), {})
        g = rng.randint(i + 1, P.n)
        if g in w and rng.random() < 0.5:
            del w[g]
        else:
            w[g] = rng.randint(1, P.p - 1)
    return P.replace(
        power_rel=tuple(tuple(sorted(rels[("pow", i)].items())) for i in range(1, P.n + 1)),
        comm_rel={key[1:]: tuple(sorted(w.items())) for key, w in rels.items() if key[0] == "comm" and w},
    )


@pytest.mark.parametrize("name, verdicts", [
    ("m3125", {"accepted": 21, "ConsistencyViolation": 256, "BadDefinition": 23}),
    ("m16807", {"accepted": 35, "ConsistencyViolation": 239, "BadDefinition": 26}),
])
def test_battery_on_perturbed_presentations(name, verdicts):
    # at p = 5 and 7 a letter f_j^m crosses the tail in several steps, one
    # per set bit of m; collecting one f_j per crossing instead gives these
    # verdicts and the same messages.  An accepted presentation must multiply
    # as its index algebra, built by induction from the relations, does.
    base = load_group(name)
    rng = random.Random(base.p)
    seen = {}
    for _ in range(300):
        try:
            P = pc.validate(_perturbed(rng, base))
        except (pgw.ConsistencyViolation, pgw.BadDefinition) as ex:
            seen[type(ex).__name__] = seen.get(type(ex).__name__, 0) + 1
            continue
        seen["accepted"] = seen.get("accepted", 0) + 1
        t = tables.GroupTables(P)
        for _ in range(20):
            a, b = _random_element(rng, P), _random_element(rng, P)
            assert t.encode(pc.mul(P, a, b)) == t.mul(int(t.encode(a)), int(t.encode(b))), (a, b)
    assert seen == verdicts


def test_validate_rejects_bad_definition():
    with pytest.raises(pgw.BadDefinition):
        pc.validate(
            pc.PcPresentation(
                name="bad", p=3, n=2,
                power_rel=((), ()), comm_rel={},
                defn={2: ("pow", 1)},
            )
        )


def test_validate_requires_def_line_for_frattini_generator():
    # h27 with d = 3: [f2,f1] = f3 puts f3 in Phi(G), so f3 is not minimal
    raw = pc.PcPresentation(
        name="h27d3", p=3, n=3,
        power_rel=((), (), ()), comm_rel={(2, 1): ((3, 1),)},
        defn={},
    )
    with pytest.raises(pgw.BadDefinition, match="give it a def line"):
        pc.validate(raw)
    # with f3 defined as that commutator it validates
    assert pc.validate(raw.replace(defn={3: ("comm", 2, 1)})).validated
    # d = n - len(defn), so a tag on f_2 makes f_3 minimal and f_2 not
    with pytest.raises(pgw.BadDefinition, match=r"defn\[2\]: only non-minimal generators \(3\.\.3\)"):
        pc.validate(raw.replace(defn={2: ("comm", 1, 1)}))


def test_validate_rejects_oversize():
    n = 17
    with pytest.raises(pgw.SizeCap):
        pc.validate(
            pc.PcPresentation(
                name="big", p=3, n=n,
                power_rel=((),) * n, comm_rel={}, defn={},
            )
        )
    with pytest.raises(pgw.SizeCap):
        pc.validate(
            pc.PcPresentation(
                name="bigp", p=101, n=1,
                power_rel=((),), comm_rel={}, defn={},
            )
        )


def test_validated_flag_required_and_set():
    raw = pc.PcPresentation(
        name="v", p=3, n=1, power_rel=((),), comm_rel={}, defn={}
    )
    assert not raw.validated
    P = pc.validate(raw)
    assert P.validated
    # neither the flag nor d is a constructor argument, and replace() takes
    # neither the flag nor the memo
    for field in ("validated", "minimal_count"):
        with pytest.raises(TypeError):
            pc.PcPresentation(name="v", p=3, n=1, power_rel=((),), **{field: 1})
    for field in ("validated", "_memo"):
        with pytest.raises(TypeError):
            P.replace(**{field: True})


@pytest.mark.parametrize("tag", [
    ("pow",), ("comm", 1), ("pow", 1, 7), ("comm", 1, 1, 1), "pow", ("pow", "1"), (), ["pow", 1],
])
def test_malformed_defn_tag_is_a_bad_definition(tag):
    # C9, f_1^3 = f_2, where ("pow", 1) would be a valid tag for f_2
    raw = pc.PcPresentation(name="t", p=3, n=2, power_rel=(((2, 1),), ()), defn={2: tag})
    with pytest.raises(pgw.BadDefinition, match=re.escape(f"defn[2] = {tag!r}: need ('pow', j)")):
        pc.validate(raw)


def _records():
    """One object of each record class, with whether it equals a copy built
    from its fields (field-wise) or only itself (identity)."""
    P = pgw.load("m243")
    count = pgw.AutCount(total=1, inner=1, order_p_noninner_fixing_frattini=0, elapsed=0.0, maps=())
    return [
        (P, False),
        (au.GenMap(P, tuple(P.generators())), False),
        (au.identity_automorphism(P), False),
        (count, False),
        (groupfile.parse_text(groupfile.serialize(P)), True),
        (st.upper_central_series(P), True),
        (hy.check_theorem_hypotheses(P), True),
        (au.construct_theorem_witness(P), True),
    ]


@pytest.mark.parametrize("index", range(8))
def test_records_are_immutable_with_their_equality(index):
    obj, fieldwise = _records()[index]
    for name in (obj._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    copy = type(obj)(*[getattr(obj, k) for k in obj._fields])
    assert copy is not obj and obj == obj
    assert (copy == obj) is fieldwise
    if fieldwise and not isinstance(obj, hy.HypothesisReport):  # its diagnostics is a dict
        assert hash(copy) == hash(obj)


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_a_copy_is_unvalidated_until_validated_again(name):
    # only validate() sets the flag, so no copy skips the battery, whatever
    # it changed; d is read off the defn tags
    P = load_group(name)
    assert P.minimal_count == P.n - len(P.defn)
    same = P.replace(comm_rel=dict(P.comm_rel))
    for copy in (P.replace(), P.replace(comm_rel={}), same):
        assert P.validated and not copy.validated
        with pytest.raises(pgw.PreconditionFailed):
            pgw.enumerate_automorphisms(copy)
    V = pc.validate(same)
    assert V.validated and not same.validated
    assert (V.power_rel, V.comm_rel, V.defn) == (P.power_rel, P.comm_rel, P.defn)


def test_order_runaway_is_an_internal_contradiction(monkeypatch):
    # a p-th power that never reaches 1 is an arithmetic bug, which the CLI
    # turns into exit 3, not an input error
    P = pgw.load("g2187")
    monkeypatch.setattr(pc, "pth_power", lambda P, x: x)
    with pytest.raises(AssertionError, match="exceeded the group order"):
        pc.element_order(P, P.generator(1))


names_st = hst.sampled_from(ALL_NAMES)


@given(name=names_st, data=hst.data())
@settings(max_examples=120, deadline=None)
def test_pow_additivity(name, data):
    P = pgw.load(name)
    vec = hst.tuples(*([hst.integers(0, P.p - 1)] * P.n))
    a = data.draw(vec)
    k = data.draw(hst.integers(-12, 12))
    m = data.draw(hst.integers(-12, 12))
    assert pgw.pow_(P, a, k + m) == pgw.mul(P, pgw.pow_(P, a, k), pgw.pow_(P, a, m))


@given(name=names_st, data=hst.data())
@settings(max_examples=120, deadline=None)
def test_conj_is_action(name, data):
    P = pgw.load(name)
    vec = hst.tuples(*([hst.integers(0, P.p - 1)] * P.n))
    a, s, t = data.draw(vec), data.draw(vec), data.draw(vec)
    assert pgw.conj(P, pgw.conj(P, a, s), t) == pgw.conj(P, a, pgw.mul(P, s, t))
    assert pgw.mul(P, pgw.conj(P, a, t), pgw.conj(P, pgw.inv(P, a), t)) == pgw.identity(P)


@given(name=names_st, data=hst.data())
@settings(max_examples=120, deadline=None)
def test_comm_definition_consistency(name, data):
    P = pgw.load(name)
    vec = hst.tuples(*([hst.integers(0, P.p - 1)] * P.n))
    a, b = data.draw(vec), data.draw(vec)
    expect = pgw.mul(
        P, pgw.mul(P, pgw.inv(P, a), pgw.inv(P, b)), pgw.mul(P, a, b)
    )
    assert pgw.comm(P, a, b) == expect


def _exponents(rng, P, order):
    """k = 0, +-1, +-p^m for m <= n, +-ord(a), and seeded |k| up to 2 p^n."""
    ks = [0, 1, -1, order, -order]
    ks += [s * P.p**m for m in range(P.n + 1) for s in (1, -1)]
    ks += [rng.randint(-2 * P.order, 2 * P.order) for _ in range(6)]
    return ks


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_derived_operations_match_index_algebra(name):
    # left division and p-adic powers against the index algebra, which is
    # built from the relations by induction and never collects
    P = load_group(name)
    t = tables.get_tables(P)
    rng = random.Random(41)
    for _ in range(60):
        a, b, c = (_random_element(rng, P) for _ in range(3))
        x, y, z = (int(t.encode(e)) for e in (a, b, c))
        assert t.encode(pc.inv(P, a)) == t.inv(x)
        assert t.encode(pc.comm(P, a, b)) == t.comm(x, y)
        assert t.encode(pc.conj(P, a, c)) == t.conj(x, z)
        order = 1
        while t.pow(x, order) != 0:
            order *= P.p
        assert pc.element_order(P, a) == order
        for k in _exponents(rng, P, order):
            assert t.encode(pc.pow_(P, a, k)) == t.pow(x, k), (a, k)


def _refuse_letters_out_of_range(monkeypatch):
    """Make pc._collect_into refuse a stack holding a letter f_j^m outside
    0 < m < p, such as a negative letter of an inverse word."""
    collect_into = pc._collect_into

    def guarded(P, e, stack, table=None):
        bad = [(g, m) for g, m in stack if not 0 < m < P.p]
        assert not bad, f"letters out of range handed to the collector: {bad}"
        return collect_into(P, e, stack, table)

    monkeypatch.setattr(pc, "_collect_into", guarded)


@pytest.mark.parametrize("name", ["h27", "q8", "g2187", "m3125"])
def test_derived_operations_form_no_inverse_word(name, monkeypatch):
    P = load_group(name)
    rng = random.Random(43)
    cases = []
    for _ in range(40):
        a, b = _random_element(rng, P), _random_element(rng, P)
        k = rng.randint(-2 * P.order, 2 * P.order)
        cases.append((a, b, k, pc.inv(P, a), pc.comm(P, a, b), pc.conj(P, a, b), pc.pow_(P, a, k)))

    _refuse_letters_out_of_range(monkeypatch)
    with pytest.raises(AssertionError, match="out of range"):
        pc.collect(P, ((1, -1),))
    for a, b, k, *want in cases:
        got = [pc.inv(P, a), pc.comm(P, a, b), pc.conj(P, a, b), pc.pow_(P, a, k)]
        assert got == want, (a, b, k)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_consistency_battery_collects_letters_in_range(name, monkeypatch):
    # f_i^p is spelled by its power word and f_i^(p+1) as f_i times it
    text = importlib.resources.files("pgw").joinpath(f"data/{name}.pg").read_text()
    _refuse_letters_out_of_range(monkeypatch)
    assert groupfile.parse_text(text, source=name).presentation.validated


@pytest.mark.parametrize("name", ALL_NAMES + ("m3125",))
def test_out_of_range_letter_is_its_power_on_any_presentation(name):
    # a letter f_j^m outside 0 < m < p goes through pow_, modulo |G|, on a
    # validated presentation and on its unvalidated copy alike
    P = load_group(name)
    raw = P.replace()
    t = tables.get_tables(P)
    p = P.p
    rng = random.Random(47)
    for j in range(1, P.n + 1):
        for m in (-P.order - 1, -p, -1, 0, p, p + 1, 2 * p + 1, P.order + 2, 10**12):
            a = _random_element(rng, P)
            w = pc.word_of(a) + ((j, m),)
            got = pc.collect(P, w)
            assert t.encode(got) == t.mul(t.encode(a), t.pow(t.strides[j - 1], m)), (a, j, m)
            assert pc.collect(raw, w) == got, (a, j, m)


@pytest.mark.parametrize("p", [31, 97])
def test_large_p_arithmetic_matches_integer_model(p):
    # p^5 > ELEMENT_CAP at p = 97, so no index table exists: the model
    # C_{p^3} x| C_{p^2} is the reference, read through each normal form's image
    P = groupfile.parse_text(FAMILY.format(order=p**5, p=p, q=p - 1)).presentation
    model = derive_corpus.mul_metacyclic(p)
    one = (0, 0)
    gens = [(1, 0), (0, 1), (p, 0), (0, p), (p * p, 0)]

    def power(x, k):  # k modulo the exponent p^3, by squaring
        acc, k = one, k % p**3
        while k:
            if k & 1:
                acc = model(acc, x)
            x, k = model(x, x), k >> 1
        return acc

    def image(e):
        acc = one
        for g, m in zip(gens, e):
            acc = model(acc, power(g, m))
        return acc

    rng = random.Random(p)
    for _ in range(150):
        a, b, c = (_random_element(rng, P) for _ in range(3))
        x, y, z = image(a), image(b), image(c)
        inv_x, inv_z = power(x, -1), power(z, -1)
        assert image(pc.mul(P, a, b)) == model(x, y), (a, b)
        assert image(pc.inv(P, a)) == inv_x, a
        assert image(pc.comm(P, a, b)) == model(model(inv_x, power(y, -1)), model(x, y)), (a, b)
        assert image(pc.conj(P, a, c)) == model(model(inv_z, x), z), (a, c)
    for _ in range(20):
        a = _random_element(rng, P)
        k = rng.randint(-200, 200)
        assert image(pc.pow_(P, a, k)) == power(image(a), k), (a, k)
    # a letter f_j^m right of a random element: crossings of every bit
    # pattern, the power word at m = p, and the reduction of huge exponents
    for j in range(1, P.n + 1):
        for m in (p - 1, p, 2 * p + 1, 10**12, -(10**12)):
            a = _random_element(rng, P)
            got = pc.collect(P, pc.word_of(a) + ((j, m),))
            assert image(got) == model(image(a), power(gens[j - 1], m)), (a, j, m)


def _family_p97():
    return groupfile.parse_text(FAMILY.format(order=97**5, p=97, q=96)).presentation


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pow_equals_repeated_mul(name):
    # every k in [-2|G|, 2|G|]: a^k for k >= 0 by multiplying by a, and for
    # k < 0 by multiplying by inv(a), one step at a time
    P = pgw.load(name)
    rng = random.Random(53)
    for a in [P.generator(1), _random_element(rng, P)]:
        up, down = pgw.identity(P), pgw.identity(P)
        a_inv = pgw.inv(P, a)
        for k in range(2 * P.order + 1):
            assert pgw.pow_(P, a, k) == up, (a, k)
            assert pgw.pow_(P, a, -k) == down, (a, -k)
            up, down = pgw.mul(P, up, a), pgw.mul(P, down, a_inv)


def test_pow_equals_repeated_mul_at_p97():
    # |G| = 97^5 is too large to walk, but a^k depends only on k modulo
    # ord(a) <= 97^3: k = r + m ord(a) over [-2|G|, 2|G|], with a^r for r up
    # to 2p by repeated mul, so k's base-97 digits take every value
    P = _family_p97()
    rng = random.Random(59)
    one = pgw.identity(P)
    for a in [P.generator(1), P.generator(2)] + [_random_element(rng, P) for _ in range(3)]:
        order = pgw.element_order(P, a)
        assert pgw.pow_(P, a, order) == one and pgw.pow_(P, a, order // P.p) != one
        powers = [one]
        for _ in range(2 * P.p):
            powers.append(pgw.mul(P, powers[-1], a))
        for _ in range(60):
            r = rng.randrange(len(powers))
            m = rng.randint(-2 * P.order // order, 2 * P.order // order - 1)
            assert pgw.pow_(P, a, r + m * order) == powers[r], (a, r, m)


def test_pow_collections_stay_logarithmic_at_p97(monkeypatch):
    # squaring keeps every term's power at O(log p) products, so a call
    # collects O(n log p) times, far below the n p of spelling out digits
    P = _family_p97()
    rng = random.Random(61)
    calls = []
    collect_into = pc._collect_into
    monkeypatch.setattr(pc, "_collect_into", lambda *a: calls.append(1) or collect_into(*a))
    most = 0
    for k in [P.order - 1, -1, 96 * (97**4 + 97**3 + 97**2 + 97 + 1)] + [
        rng.randint(-P.order, P.order) for _ in range(40)
    ]:
        calls.clear()
        pc.pow_(P, _random_element(rng, P), k)
        most = max(most, len(calls))
    assert most <= 3 * P.n * P.p.bit_length()


def test_pow_stops_at_the_last_nonzero_digit(monkeypatch):
    # a^1 and a^p need no term past a^p; a^0 needs none
    P = pgw.load("g2187")
    a = P.generator(1)
    made = []
    pth_power = pc.pth_power
    monkeypatch.setattr(pc, "pth_power", lambda P, x: made.append(x) or pth_power(P, x))
    assert pc.pow_(P, a, 0) == pgw.identity(P) and made == []
    assert pc.pow_(P, a, 1) == a and made == []
    assert pc.pow_(P, a, P.p) == pth_power(P, a) and made == [a]


@pytest.mark.parametrize(
    "e, ok",
    [
        ((1, 0, 2), True),
        ((True, False, 2), True),
        ((np.int64(1), np.int32(0), np.uint8(2)), True),
        ([2, 2, 2], True),
        ((-1, 0, 0), False),
        ((3, 0, 0), False),
        ((0, 0, 10**20), False),
        ((1, 0), False),
        ((1, 0, 0, 0), False),
        ((1.0, 0, 0), False),
        (("1", 0, 0), False),
        (None, False),
    ],
)
def test_normal_form_takes_exact_digits_below_p(e, ok):
    P = pgw.load("h27")
    x = pc.normal_form(P, e)
    if not ok:
        assert x is None
        with pytest.raises(ValueError, match=r"is not a normal form: need 3 ints in 0\.\.2"):
            pc.checked_form(P, e, "element")
        return
    assert x == tuple(int(v) for v in e)
    assert all(type(v) is int for v in x)
    assert pc.checked_form(P, e, "element") == x


@pytest.mark.parametrize("k", [10**12, -(10**12), 10**6 + 1, -(10**6 + 1)])
def test_collect_reduces_large_exponents(k):
    # f_1 lies in G_1 = G, so a letter f_1^k needs only k modulo |G|
    P = pgw.load("g2187")
    t = tables.get_tables(P)
    start = time.perf_counter()
    got = pgw.collect(P, ((1, k),))
    assert time.perf_counter() - start < 1.0
    assert got == pgw.pow_(P, P.generator(1), k)
    assert t.encode(got) == t.pow(t.strides[0], k)


def test_memoized_keeps_one_result_per_presentation():
    calls = []

    @pc.memoized
    def stage(P):
        calls.append(P)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return object()

    P = groupfile.parse_text(_g2187_text()).presentation
    with pytest.raises(ValueError):
        stage(P)  # a raised error is not kept
    first = stage(P)
    assert stage(P) is first and P._memo[stage] is first
    Q = P.replace()  # a copy starts with an empty memo
    assert stage(Q) is not first and calls == [P, P, Q]
