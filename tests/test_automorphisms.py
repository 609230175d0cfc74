"""Certification, inner tests, Lemma-style extension, witness construction."""

import itertools
import random

import numpy as np
import pytest

import pgw
from pgw import automorphisms as au
from pgw import oracle
from pgw import presentation as pc
from pgw import report as rp
from pgw import structure as st
from pgw import tables

import mask_reference as ref
from conftest import ALL_NAMES, FAMILY_NAMES, load_group

ODD = [n for n in ALL_NAMES if pgw.load(n).p != 2]


def _printed_alpha(P):
    images = list(P.generators())
    images[1] = pgw.mul(P, P.generator(2), P.generator(6))
    return au.verify(au.GenMap(parent=P, images=tuple(images)))


def test_apply_identity_map(demo_group):
    P = demo_group
    A = au.identity_automorphism(P)
    rng = random.Random(2)
    for _ in range(50):
        x = tuple(rng.randrange(P.p) for _ in range(P.n))
        assert au.apply(A, x) == x


def test_printed_alpha_images(demo_group):
    P = demo_group
    A = _printed_alpha(P)
    assert au.apply(A, P.generator(2)) == pgw.mul(P, P.generator(2), P.generator(6))
    assert au.apply(A, P.generator(7)) == P.generator(7)
    assert au.apply(A, P.generator(1)) == P.generator(1)


def test_printed_alpha_properties(demo_group):
    P = demo_group
    A = _printed_alpha(P)
    assert au.aut_order(A) == 3
    inner, t = au.is_inner(A)
    assert not inner and t is None
    assert au.fixes_elementwise(A, pgw.frattini(P))
    assert not au.fixes_elementwise(A, st.whole_group(P))


def test_verify_rejects_collapse(demo_group):
    P = demo_group
    images = tuple(pgw.identity(P) for _ in range(P.n))
    with pytest.raises(pgw.NotSurjective):
        au.verify(au.GenMap(parent=P, images=images))


@pytest.mark.parametrize(
    "images",
    [
        ((4, 0), (0, 1)),  # f_1^4 = f_1: the identity map, spelled off normal form
        ((1, 0, 0), (0, 1)),  # too long
        ((-1, 0), (0, 1)),  # negative exponent
        ((1,), (0, 1)),  # too short
    ],
)
def test_verify_rejects_images_off_normal_form(images):
    P = pgw.load("c3c3")
    with pytest.raises(ValueError) as err:
        au.verify(au.GenMap(P, images))
    assert str(err.value) == f"image {images[0]} is not a normal form: need 2 ints in 0..2"
    assert au.verify(au.GenMap(P, ((1, 0), (0, 1)))).images == ((1, 0), (0, 1))


@pytest.mark.parametrize("one", [np.int64(1), np.int32(1), True])
def test_verify_certifies_images_as_ints(one):
    # a numpy integer or a bool stands for the int it equals; the certified
    # images hold that int
    P = pgw.load("c3c3")
    A = au.verify(au.GenMap(P, ((one, 0), (0, 1))))
    assert A.images == ((1, 0), (0, 1))
    assert all(type(v) is int for x in A.images for v in x)


def test_verify_forms_only_the_words_the_failing_relation_reads(monkeypatch):
    # seeded random maps of g2187 that break f_1^3, the first relation: verify
    # spells in letters only the images that relation reads, not all seven
    P = pgw.load("g2187")
    reads = au._relation_plan(P)[0].reads
    assert len(reads) < P.n
    rng = random.Random(67)
    spelled = []
    word_of = pc.word_of
    monkeypatch.setattr(pc, "word_of", lambda e: spelled.append(e) or word_of(e))
    broken = 0
    while broken < 20:
        images = tuple(tuple(rng.randrange(3) for _ in range(P.n)) for _ in range(P.n))
        spelled.clear()
        try:
            au.verify(au.GenMap(P, images))
        except pgw.RelationViolated as e:
            if not str(e).startswith("power relation f_1^3:"):
                continue
        else:
            continue
        broken += 1
        assert spelled and set(spelled) <= {images[g] for g in reads}, (images, spelled)


def test_verify_rejects_relation_break():
    P = pgw.load("h27")
    # swap f1 <-> f2 : [f2,f1] = f3 becomes [f1,f2] = f3^-1 != f3
    images = (P.generator(2), P.generator(1), P.generator(3))
    with pytest.raises(pgw.RelationViolated):
        au.verify(au.GenMap(parent=P, images=images))


def _reference_verify(P, images):
    """The certificate verify() replaced: pc.comm/pow_ relations, then the
    closure of the images must reach |G|.  Returns (class name, message)."""
    def word(w):
        acc = pgw.identity(P)
        for g, m in w:
            acc = pgw.mul(P, acc, pgw.pow_(P, images[g - 1], m))
        return acc

    for i in range(1, P.n + 1):
        lhs = pgw.pow_(P, images[i - 1], P.p)
        rhs = word(P.power_rel[i - 1])
        if lhs != rhs:
            return "RelationViolated", f"power relation f_{i}^{P.p}: {lhs} != {rhs}"
    for i in range(2, P.n + 1):
        for j in range(1, i):
            lhs = pgw.comm(P, images[i - 1], images[j - 1])
            rhs = word(P.comm_rel.get((i, j), ()))
            if lhs != rhs:
                return "RelationViolated", f"commutator relation [f_{i},f_{j}]: {lhs} != {rhs}"
    t = ref.get_tables(P)
    if int(ref.closure_mask(t, t.encode(list(images))).sum()) != P.order:
        return "NotSurjective", "images do not generate the group"
    return None, None


def _verdict(P, images):
    try:
        A = au.verify(au.GenMap(P, images))
    except (pgw.RelationViolated, pgw.NotSurjective) as e:
        return type(e).__name__, str(e)
    assert A.images == images
    return None, None


def _defn_forced(P, minimal):
    """Images of f_1..f_d extended to f_{d+1}..f_n through the defn tags."""
    images = list(minimal)
    for i in range(P.minimal_count + 1, P.n + 1):
        tag = P.defn[i]
        if tag[0] == "pow":
            images.append(pgw.pow_(P, images[tag[1] - 1], P.p))
        else:
            images.append(pgw.comm(P, images[tag[1] - 1], images[tag[2] - 1]))
    return tuple(images)


def _arith_rows(P, rng, count):
    """Rows drawn as the arith benchmark draws them: the images of the
    generators under conjugation by a random element index, and a random
    index for each image."""
    t = tables.get_tables(P)
    rows = []
    for _ in range(count):
        c = t.decode(rng.randrange(P.order))
        rows.append(tuple(pgw.conj(P, g, c) for g in P.generators()))
        rows.append(tuple(t.decode(rng.randrange(P.order)) for _ in range(P.n)))
    return rows


def _verify_cases(name):
    P = load_group(name)
    elems = st.whole_group(P).elements
    if P.order ** P.n <= 20_000:
        return P, itertools.product(elems, repeat=P.n)
    rng = random.Random(f"verify-{name}")
    cases = _arith_rows(P, rng, 100)
    cases += [tuple(rng.choice(elems) for _ in range(P.n)) for _ in range(300)]
    cases += [
        _defn_forced(P, [rng.choice(elems) for _ in range(P.minimal_count)])
        for _ in range(300)
    ]
    # forced images from a rank-deficient span of f_1..f_d: endomorphisms that are not onto
    cases += [
        _defn_forced(P, [pgw.pow_(P, rng.choice(elems), rng.randrange(P.p))] * P.minimal_count)
        for _ in range(100)
    ]
    cases += [  # inner automorphisms
        tuple(pgw.conj(P, g, t) for g in P.generators())
        for t in (rng.choice(elems) for _ in range(50))
    ]
    return P, cases


@pytest.mark.parametrize(
    "name", ["c9", "c3c3", "h27", "x27", "q8", "w81", "m243", "g2187", "m3125", "m16807"]
)
def test_verify_matches_closure_reference(name):
    # at p = 5 and 7 (m3125, m16807) a power relation's left side pushes
    # p - 1 copies of an image; the verdict is the exact (class, message) pair
    P, cases = _verify_cases(name)
    seen = set()
    for images in cases:
        got = _verdict(P, images)
        assert got == _reference_verify(P, images), images
        seen.add(got[0])
    # an elementary abelian group breaks no relation
    assert seen == {None, "NotSurjective"} | ({"RelationViolated"} if name != "c3c3" else set())


def test_relation_plan_is_built_once_per_presentation(monkeypatch):
    # verify compiles every relation on first use; the first
    # _FULL_PLAN_MAPS one-map certifications check them all, and the next
    # one finds S and keeps the definitions and S in P._memo, in the full
    # plan's order.  Neither the parse nor validate() finds S, a block finds
    # it at once, and a P.replace() copy starts without it
    made = []
    relation = au.Relation
    monkeypatch.setattr(au, "Relation", lambda *fields: made.append(fields[0]) or relation(*fields))
    P = load_group("m3125")  # a fresh object
    plans = {au._full_plan, au._relation_plan, au._multiplicator_basis}
    assert not plans & set(P._memo)
    rows = _arith_rows(P, random.Random("plan"), au._FULL_PLAN_MAPS // 2 + 4)
    for images in rows[: au._FULL_PLAN_MAPS]:
        _map_verdict(P, images)
    assert au._full_plan in P._memo and au._relation_plan not in P._memo
    for images in rows[au._FULL_PLAN_MAPS :]:
        _map_verdict(P, images)
    plan = P._memo[au._relation_plan]
    n = P.n
    labels = [f"f_{i}^{P.p}" for i in range(1, n + 1)]
    labels += [f"[f_{i},f_{j}]" for i in range(2, n + 1) for j in range(1, i)]
    assert made == [entry.label for entry in au._full_plan(P)] == labels
    defining = {f"f_{tag[1]}^{P.p}" for tag in P.defn.values()}  # m3125's are p-th powers
    kept = {entry.label for entry in P._memo[au._multiplicator_basis]}
    assert [entry.label for entry in plan] == [x for x in labels if x in defining | kept]
    assert len(plan) == 5
    assert au._relation_plan(P) is plan
    copy = P.replace()
    assert au._relation_plan not in copy._memo
    Q = pgw.validate(copy)
    assert not plans & set(Q._memo)
    forms = list(dict.fromkeys(rows[0] + rows[2]))
    assert au.verify_coded(Q, forms, [[forms.index(x) for x in rows[k]] for k in (0, 2)]) is None
    assert au._relation_plan in Q._memo


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_sieve_reads_the_relation_plan(name):
    # the oracle's sieve takes its relations and words from the certificate's
    # plan, leaving out only the relations that define a generator: it
    # checks S, each relation with the word the full plan compiled for it
    P = load_group(name)
    full = {entry.rel: entry for entry in au._full_plan(P)}
    for i in range(1, P.n + 1):
        assert full[("pow", i)].word == P.power_rel[i - 1]
        for j in range(1, i):
            assert full[("comm", i, j)].word == P.comm_rel.get((i, j), ())
    plan = {entry.rel: entry for entry in au._relation_plan(P)}
    sieve = oracle._relations(P)
    assert all(word is plan[rel].word is full[rel].word for rel, word, _ in sieve)
    defining = {tag for k, tag in P.defn.items() if full[tag].word == ((k, 1),)}
    assert set(plan) - {rel for rel, _, _ in sieve} == defining
    assert {rel for rel, _, _ in sieve} == {entry.rel for entry in au._multiplicator_basis(P)}


# len(_relation_plan): the n - d definitions and S
PLAN_SIZES = {"g2187": 7, "m243": 5, "w81": 5, "h27": 5, "x27": 3, "q8": 3, "c3c3": 3, "c9": 2}
# the rank of R/[R,F]R^p, |S|; where it can be checked by hand it is
# d(G) + d(M(G)), as for the extraspecial es3 (4 + 5) and heis5 (2 + 2)
RANKS = {
    "c9": 1, "c3c3": 3, "h27": 4, "x27": 2, "w81": 3, "q8": 2, "m243": 2, "g2187": 2,
    "es3": 9, "ut4_3": 8, "m243c3": 5, "heis5": 4,
}


@pytest.mark.parametrize("name", sorted(RANKS))
def test_plan_holds_the_definitions_and_a_basis_of_the_multiplicator(name):
    P = load_group(name)
    full, plan, basis = au._full_plan(P), au._relation_plan(P), au._multiplicator_basis(P)
    assert len(basis) == RANKS[name]
    assert len(plan) == P.n - P.minimal_count + RANKS[name]
    if name in PLAN_SIZES:
        assert len(plan) == PLAN_SIZES[name]
    # the full plan's order, and each entry holds the relations left out before it
    labels, kept = [x.label for x in full], [entry.label for entry in plan]
    places = [labels.index(label) for label in kept]
    assert places == sorted(places)
    for entry, place in zip(plan, places):
        assert [x.label for x in entry.before] == [x for x in labels[:place] if x not in kept]
    # an unvalidated copy keeps every relation
    assert [entry.label for entry in au._relation_plan(P.replace())] == labels


def _full_plan_verdicts(P, rows, monkeypatch):
    """verify's (class, message) pair for each row of images, with the
    reduced plan and then with the full plan in its place."""
    au._relation_plan(P)  # every certification reads it once it is built
    reduced = [_map_verdict(P, images) for images in rows]
    with monkeypatch.context() as m:
        m.setattr(au, "_relation_plan", au._full_plan)
        full = [_map_verdict(P, images) for images in rows]
    return reduced, full


@pytest.mark.parametrize("name", ["c9", "h27", "x27", "w81", "q8", "m243", "heis5"])
def test_reduced_plan_verdicts_match_the_full_plan_on_every_tuple(name, monkeypatch):
    # every d-tuple of minimal images, the rest forced by the defn tags: the
    # definitions and S pass exactly when every relation does, and a failing
    # map names the first relation of the full plan that it breaks
    P = load_group(name)
    elems = st.whole_group(P).elements
    rows = [_defn_forced(P, mins) for mins in itertools.product(elems, repeat=P.minimal_count)]
    reduced, full = _full_plan_verdicts(P, rows, monkeypatch)
    assert reduced == full
    assert None in {v[0] for v in full}


@pytest.mark.parametrize("name", ["g2187", "es3", "ut4_3", "m243c3"])
def test_reduced_plan_verdicts_match_the_full_plan_on_seeded_maps(name, monkeypatch):
    # 20,000 seeded d-tuples with forced images, plus seeded maps of n
    # arbitrary images and the arith benchmark's rows
    P = load_group(name)
    rng = random.Random(f"reduced-{name}")
    p, n, d = P.p, P.n, P.minimal_count

    def element():
        return tuple(rng.randrange(p) for _ in range(n))

    rows = [_defn_forced(P, [element() for _ in range(d)]) for _ in range(20_000)]
    rows += [tuple(element() for _ in range(n)) for _ in range(2_000)]
    rows += _arith_rows(P, rng, 200)
    reduced, full = _full_plan_verdicts(P, rows, monkeypatch)
    assert reduced == full
    assert {None, "RelationViolated"} <= {v[0] for v in full}


def test_verify_rejects_non_onto_endomorphism():
    P = pgw.load("h27")
    one = pgw.identity(P)
    images = (P.generator(1), one, one)  # every relation of h27 holds, the image is <f1>
    assert _reference_verify(P, images)[0] == "NotSurjective"
    with pytest.raises(pgw.NotSurjective):
        au.verify(au.GenMap(parent=P, images=images))


def test_verify_accepts_gl3_on_elementary_abelian():
    # C3^3 with d = 3: the maps verify accepts are GL(3, 3), of order 26 * 24 * 18
    raw = pgw.PcPresentation(name="c3c3c3", p=3, n=3, power_rel=((),) * 3)
    P = pgw.validate(raw)
    elems = st.whole_group(P).elements
    accepted = 0
    for images in itertools.product(elems, repeat=3):
        try:
            au.verify(au.GenMap(P, images))
            accepted += 1
        except pgw.NotSurjective:
            pass
    assert accepted == 26 * 24 * 18


def _corrupted(P, maps, rng):
    """Automorphism rows, some left alone and some broken in one of four ways."""
    elems = st.whole_group(P).elements
    Z = pgw.center(P).elements
    rows = []
    for _ in range(400):
        row = list(rng.choice(maps))
        kind, k = rng.randrange(5), rng.randrange(P.n)
        if kind == 0:  # one image replaced: mostly a power relation breaks
            row[k] = rng.choice(elems)
        elif kind == 1:  # every image to its p-th power: mostly a commutator breaks
            row = [pgw.pow_(P, x, P.p) for x in row]
        elif kind == 2:  # an exponent out of range
            row[k] = (P.p,) + row[k][1:]
        elif kind == 3:  # f_1..f_d all to one central element: not onto
            row = _defn_forced(P, [rng.choice(Z)] * P.minimal_count)
        rows.append(tuple(row))
    return rows


def _coded(P, rows):
    """Distinct images and rows of image numbers, the distinct images
    numbered in index order."""
    t = tables.get_tables(P)
    distinct = sorted({t.encode(x) for row in rows for x in row})
    number = {x: k for k, x in enumerate(distinct)}
    coded = [tuple(number[t.encode(x)] for x in row) for row in rows]
    return [t.decode(x) for x in distinct], coded


def _rows_verdicts(P, rows):
    """Per-row verdicts from verify_coded, calling it again after each failure."""
    forms, coded = _coded(P, rows)
    out = []
    while len(out) < len(rows):
        failed = au.verify_coded(P, forms, coded[len(out):])
        if failed is None:
            out += [(None, None)] * (len(rows) - len(out))
        else:
            k, e = failed
            out += [(None, None)] * k + [(type(e).__name__, str(e))]
    return out


def _map_verdict(P, images):
    try:
        au.verify(au.GenMap(P, images))
    except (pgw.RelationViolated, pgw.NotSurjective, ValueError) as e:
        return type(e).__name__, str(e)
    return None, None


@pytest.mark.parametrize("name", ["h27", "m243", "g2187", "m3125"])
def test_batch_verdicts_match_per_map_verify(name):
    P = load_group(name)
    stream, t = pgw.enumerate_automorphisms(P).maps, tables.get_tables(P)
    maps = list(zip(*[map(t.decode, stream)] * P.n))
    rows = _corrupted(P, maps, random.Random(f"corrupt-{name}"))
    verdicts = [_map_verdict(P, images) for images in rows]
    # only verify checks normal forms: an exponent out of range has no number
    kept = [k for k, row in enumerate(rows) if all(v < P.p for x in row for v in x)]
    assert _rows_verdicts(P, [rows[k] for k in kept]) == [verdicts[k] for k in kept]
    seen = {kind if kind != "RelationViolated" else msg.split()[0] for kind, msg in verdicts}
    # h27 has exponent p and trivial power words, so no power relation can break
    assert seen == {None, "commutator", "NotSurjective", "ValueError"} | (
        {"power"} if name != "h27" else set()
    )
    assert au.verify_coded(P, *_coded(P, maps)) is None


def test_verify_rows_stops_at_the_first_failure():
    # verify_coded, the batch certificate, reports the first failing row only
    P = pgw.load("h27")
    good = tuple(P.generators())
    swapped = (P.generator(2), P.generator(1), P.generator(3))  # breaks [f2, f1] = f3
    collapsed = (pgw.identity(P),) * P.n  # holds every relation, but is not onto
    forms, coded = _coded(P, [good, swapped, collapsed])
    assert au.verify_coded(P, forms, coded[:0]) is None
    k, e = au.verify_coded(P, forms, coded)
    assert (k, type(e)) == (1, pgw.RelationViolated)
    k, e = au.verify_coded(P, forms, [list(coded[1])])  # one row, as verify passes it
    assert (k, type(e)) == (0, pgw.RelationViolated)
    forms, coded = _coded(P, [good, collapsed, swapped])
    k, e = au.verify_coded(P, forms, coded)
    assert (k, type(e), str(e)) == (1, pgw.NotSurjective, "images do not generate the group")


def _distinct_rows_bytewise(keys):
    """The reference for the certificate's keying of rows: each row one void
    scalar, compared bytewise by np.unique."""
    keys = np.ascontiguousarray(keys)
    if keys.shape[1] > 1:
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return first, inverse


def _repeated_rows(rng, count, width, top):
    """count rows drawn from fewer distinct ones, some differing from another
    in a single column, with entries up to top."""
    base = rng.integers(0, top + 1, size=(count // 4, width))
    base[0, 0] = top
    near = base[rng.integers(0, len(base), size=count // 4)]
    at = np.arange(len(near)), rng.integers(0, width, size=len(near))
    near[at] = (near[at] + 1) % (top + 1)
    pool = np.concatenate([base, near])
    return pool[rng.integers(0, len(pool), size=count)]


@pytest.mark.parametrize("width, top", [(1, 5), (3, 2), (6, 700), (17, 199_999)])
def test_distinct_rows_match_the_bytewise_reference(width, top):
    # the certificate keys each live row by the images a relation reads
    # (automorphisms._first_rows): it must collect the first row of each
    # bytewise-distinct key once, in row order
    rng = np.random.default_rng(width)
    for keys in (_repeated_rows(rng, 3000, width, top), np.zeros((5, width), dtype=np.int64)):
        keys = keys.astype(np.int32)
        want_first, want_inverse = _distinct_rows_bytewise(keys)
        columns = [column.tolist() for column in keys.T]
        assert list(au._first_rows(columns)) == sorted(want_first.tolist())
        assert np.array_equal(keys[want_first[want_inverse]], keys)


def test_letterless_sides_are_taken_without_a_collection(demo_group, monkeypatch):
    # on g2187 the right sides of f_1^3 = f_4, f_2^3 = f_3, f_3^3 = f_5,
    # f_4^3 = f_6, f_5^3 = f_7, f_6^3 = 1 and f_7^3 = 1 have no letters: each
    # is an image or the identity, on verify's one-row path and in a block
    P = demo_group
    elems = st.whole_group(P).elements
    conjugators = random.Random(3).sample(elems, 20)
    maps = [tuple(pc.conj(P, g, t) for g in P.generators()) for t in conjugators]
    forms, coded = _coded(P, maps)
    stacks = []  # the length of each collection's stack, as passed
    collect = pc._collect_into

    def counting(P, e, stack, *rest):
        stacks.append(len(stack))
        return collect(P, e, stack, *rest)

    monkeypatch.setattr(pc, "_collect_into", counting)
    for images in maps:
        assert au.verify(au.GenMap(P, images)).images == images
    assert au.verify_coded(P, forms, coded) is None
    assert stacks and 0 not in stacks


def test_block_collects_each_key_once_up_to_the_first_failure(monkeypatch):
    # a block is collected on the first row of each key of the images a
    # relation reads, in row order, up to the first failing row, whose sides
    # give its message without being collected again
    P = load_group("h27")
    stream, t = pgw.enumerate_automorphisms(P).maps, tables.get_tables(P)
    maps = list(zip(*[map(t.decode, stream)] * P.n))
    a0, a1, a2, a3 = [row for row in maps if row[0] == P.generator(1)][:4]  # fixing f1
    swapped = (P.generator(2), P.generator(1), P.generator(3))  # breaks [f2, f1] = f3
    trivial = (P.generator(1), P.generator(2), pgw.identity(P))  # breaks it too
    rows = [a0, a1, a0, a2, swapped, a3, trivial, a1, swapped]
    verdicts = [_map_verdict(P, images) for images in rows]
    q = next(k for k, v in enumerate(verdicts) if v != (None, None))
    assert q == 4 and verdicts[q][1].startswith("commutator relation [f_2,f_1]")
    forms, coded = _coded(P, rows)

    log = []  # a collection's start and stack as passed: the collector consumes both
    collect = pc._collect_into
    monkeypatch.setattr(
        pc, "_collect_into", lambda *a: log.append(("collect", *map(tuple, a[1:3]))) or collect(*a)
    )
    monkeypatch.setattr(au, "check_deadline", lambda _, where: log.append(("at", where)))
    violation = au._violation
    monkeypatch.setattr(au, "_violation", lambda *a: log.append(("message",)) or violation(*a))
    k, e = au.verify_coded(P, forms, coded, deadline=float("inf"))
    assert (k, type(e).__name__, str(e)) == (q, *verdicts[q])

    start = log.index(("at", f"certifying {len(rows)} rows, at [f_2,f_1]"))
    scan = log[start + 1 : log.index(("message",), start)]
    reads = [(row[1], row[0], row[2]) for row in coded[: q + 1]]  # f_2, f_1, f_3
    assert len(scan) == 2 * len(set(reads)) < 2 * (q + 1)
    # the failing row's left side, A(f_2) A(f_1), is collected once, last but one
    lhs = "collect", forms[coded[q][1]], tuple(pc.word_of(forms[coded[q][0]])[::-1])
    assert scan.count(lhs) == 1 and scan[-2] == lhs


def test_aut_order_examples(demo_group):
    assert au.aut_order(au.identity_automorphism(demo_group)) == 1
    assert au.aut_order(_printed_alpha(demo_group)) == 3


def test_compose_with_power_gives_identity(demo_group):
    P = demo_group
    A = _printed_alpha(P)
    inverse = compose_power(A, au.aut_order(A) - 1)
    assert au.compose(A, inverse).images == au.identity_automorphism(P).images
    assert au.compose(inverse, A).images == au.identity_automorphism(P).images


def compose_power(A, k):
    out = au.identity_automorphism(A.parent)
    for _ in range(k):
        out = au.compose(out, A)
    return out


def test_inner_from_examples():
    P = pgw.load("h27")
    ident = au.identity_automorphism(P)
    assert au.inner_from(P, pgw.identity(P)).images == ident.images
    assert au.inner_from(P, P.generator(3)).images == ident.images  # central t
    A = au.inner_from(P, P.generator(1))
    assert A.images != ident.images
    for g in P.generators():
        assert au.apply(A, g) == pgw.conj(P, g, P.generator(1))


@pytest.mark.parametrize("name", ["h27", "x27", "w81"])
def test_inner_count_equals_index_of_center(name):
    P = pgw.load(name)
    elems = st.whole_group(P).elements
    images = {au.inner_from(P, t).images for t in elems}
    assert len(images) == P.order // pgw.center(P).order


@pytest.mark.parametrize("name", ["h27", "m243"])
def test_is_inner_on_inner_maps(name):
    P = pgw.load(name)
    rng = random.Random(17)
    elems = st.whole_group(P).elements
    for _ in range(25):
        t = elems[rng.randrange(len(elems))]
        A = au.inner_from(P, t)
        inner, witness = au.is_inner(A)
        assert inner
        assert au.inner_from(P, witness).images == A.images


@pytest.mark.parametrize("name", ALL_NAMES)
def test_is_inner_returns_lex_least_conjugator(name):
    P = pgw.load(name)
    Z = pgw.center(P).elements
    for t in st.whole_group(P).elements:
        inner, witness = au.is_inner(au.inner_from(P, t))
        assert inner
        assert witness == min(pgw.mul(P, t, z) for z in Z)


def test_is_inner_rejects_malformed_images():
    P = pgw.load("h27")
    assert au.is_inner(au.GenMap(P, (P.generator(1),))) == (False, None)
    outside = (P.generator(1), P.generator(2), (0, 0, P.p))
    assert au.is_inner(au.GenMap(P, outside)) == (False, None)


def test_is_inner_composition_invariance(demo_group):
    P = demo_group
    A = _printed_alpha(P)
    rng = random.Random(31)
    elems = st.whole_group(P).elements
    for _ in range(5):
        t = elems[rng.randrange(len(elems))]
        B = au.compose(A, au.inner_from(P, t))
        assert au.is_inner(B)[0] == au.is_inner(A)[0]


def test_fixes_elementwise_identity(demo_group):
    P = demo_group
    A = au.identity_automorphism(P)
    assert au.fixes_elementwise(A, pgw.frattini(P))
    assert au.fixes_elementwise(A, st.whole_group(P))


def test_extend_reproduces_printed_alpha(demo_group):
    P = demo_group
    f = {i: P.generator(i) for i in range(1, 8)}
    M1 = pgw.closure(P, [f[1], f[3], f[4], f[5], f[6], f[7]])
    A = au.extend_to_automorphism(P, M1, f[2], f[6])
    assert A.images == _printed_alpha(P).images


def test_extend_accepts_identity_u(demo_group):
    P = demo_group
    f = {i: P.generator(i) for i in range(1, 8)}
    M1 = pgw.closure(P, [f[1], f[3], f[4], f[5], f[6], f[7]])
    A = au.extend_to_automorphism(P, M1, f[2], pgw.identity(P))
    assert A.images == au.identity_automorphism(P).images


def test_extend_h27_example():
    P = pgw.load("h27")
    M = pgw.closure(P, [P.generator(1), P.generator(3)])
    A = au.extend_to_automorphism(P, M, P.generator(2), P.generator(3))
    assert au.aut_order(A) == 3
    assert au.fixes_elementwise(A, M)
    assert au.apply(A, P.generator(2)) == pgw.mul(P, P.generator(2), P.generator(3))


def test_extend_preconditions(demo_group):
    P = demo_group
    f = {i: P.generator(i) for i in range(1, 8)}
    M1 = pgw.closure(P, [f[1], f[3], f[4], f[5], f[6], f[7]])
    F = pgw.frattini(P)
    with pytest.raises(pgw.PreconditionFailed):
        au.extend_to_automorphism(P, F, f[2], f[6])  # not maximal
    with pytest.raises(pgw.PreconditionFailed):
        au.extend_to_automorphism(P, M1, f[1], f[6])  # g inside M
    with pytest.raises(pgw.PreconditionFailed):
        au.extend_to_automorphism(P, M1, f[2], f[2])  # u outside M
    with pytest.raises(pgw.PreconditionFailed):
        au.extend_to_automorphism(P, M1, f[2], f[4])  # u not central in M


def test_extend_rejects_failing_power_condition():
    # x27: M = <f2> = C9 with Z(M) = M, g = f1, u = f2 has (gu)^3 != g^3
    P = pgw.load("x27")
    M = pgw.closure(P, [P.generator(2)])
    assert M.order == 9
    g, u = P.generator(1), P.generator(2)
    assert pgw.pow_(P, pgw.mul(P, g, u), 3) != pgw.pow_(P, g, 3)
    with pytest.raises(pgw.PreconditionFailed):
        au.extend_to_automorphism(P, M, g, u)


def test_q8_order_boundary():
    # valid triple whose u has order 4: the extension exists but its order
    # is 4, not p = 2, so certification must fail loudly
    P = pgw.load("q8")
    M = pgw.closure(P, [P.generator(1)])  # <i> = C4
    g, u = P.generator(2), P.generator(1)
    assert pgw.pow_(P, pgw.mul(P, g, u), 2) == pgw.pow_(P, g, 2)
    with pytest.raises(pgw.CertificationFailed):
        au.extend_to_automorphism(P, M, g, u)


def _valid_triples(P):
    elems = st.whole_group(P).elements
    for M in st.maximal_subgroups(P):
        ZM = st.center_of(P, M)
        outside = [x for x in elems if x not in M]
        for g in outside:
            gp = pgw.pow_(P, g, P.p)
            for u in ZM.elements:
                if pgw.pow_(P, pgw.mul(P, g, u), P.p) == gp:
                    yield M, g, u


@pytest.mark.parametrize("name", ["c9", "h27", "x27"])
def test_lemma_extension_exhaustive_small(name):
    P = pgw.load(name)
    seen = 0
    for M, g, u in _valid_triples(P):
        A = au.extend_to_automorphism(P, M, g, u)
        seen += 1
        assert au.fixes_elementwise(A, M)
        k = au.aut_order(A)
        assert P.p % k == 0
    assert seen > 0


def test_witness_construction_demo(demo_group):
    P = demo_group
    w = pgw.construct_theorem_witness(P)
    assert w.u == P.generator(6)
    assert w.g == P.generator(2)
    M1 = pgw.closure(P, [P.generator(1)] + [P.generator(i) for i in range(3, 8)])
    assert w.M == M1
    assert w.A.images == _printed_alpha(P).images


def test_witness_construction_m243():
    P = pgw.load("m243")
    w = pgw.construct_theorem_witness(P)
    assert au.aut_order(w.A) == 3
    assert not au.is_inner(w.A)[0]
    assert au.fixes_elementwise(w.A, pgw.frattini(P))
    assert au.fixes_elementwise(w.A, w.M)
    assert w.u not in pgw.center(P)
    assert pgw.element_order(P, w.u) == 3


@pytest.mark.parametrize("name", ["c9", "c3c3", "h27", "x27", "w81", "q8"])
def test_witness_construction_gates_on_hypotheses(name):
    with pytest.raises(pgw.PreconditionFailed):
        pgw.construct_theorem_witness(pgw.load(name))


def test_witness_bypass_h27():
    # hypotheses fail (abelian maximals), yet the construction's public steps
    # still go through and certify; non-inner-ness is not asserted here
    P = pgw.load("h27")
    u = st.least_order_p_outside_center(P)
    assert u == P.generator(2)
    M = pgw.centralizer(P, u)
    assert M.order * P.p == P.order
    g = next(x for x in P.generators() if x not in M)
    A = pgw.extend_to_automorphism(P, M, g, u)
    assert au.aut_order(A) == 3
    assert au.fixes_elementwise(A, M)


def test_witness_bypass_q8_has_no_eligible_u():
    # Omega_1(Z_2) = {1, f3} = Z(G), so no eligible u exists
    assert st.least_order_p_outside_center(pgw.load("q8")) is None


@pytest.mark.parametrize("name", ODD)
def test_odd_p_power_identity(name):
    # for odd p, u in Omega_1(Z_2(G)) and any g: (gu)^p = g^p
    P = pgw.load(name)
    Z2 = pgw.second_center(P)
    order_p = [
        u for u in Z2.elements if pgw.pow_(P, u, P.p) == pgw.identity(P)
    ]
    rng = random.Random(41)
    elems = st.whole_group(P).elements
    for u in order_p:
        for _ in range(6):
            g = elems[rng.randrange(len(elems))]
            assert pgw.pow_(P, pgw.mul(P, g, u), P.p) == pgw.pow_(P, g, P.p)


@pytest.mark.parametrize("name", ODD)
def test_sigma_kernel_has_index_p(name):
    # u in Z_2 \ Z of order p: C_G(u) has index exactly p
    P = pgw.load(name)
    Z = pgw.center(P)
    Z2 = pgw.second_center(P)
    eligible = [
        u for u in Z2.elements
        if u not in Z and pgw.pow_(P, u, P.p) == pgw.identity(P)
    ]
    for u in eligible:
        C = pgw.centralizer(P, u)
        assert C.order * P.p == P.order


def test_genmap_serializes_to_words(demo_group):
    P = demo_group
    A = _printed_alpha(P)
    words = [st.word_str(img) for img in A.images]
    assert words == ["g1^1", "g2^1 g6^1", "g3^1", "g4^1", "g5^1", "g6^1", "g7^1"]


def _m243_witness_parts():
    P = pgw.load("m243")
    w = pgw.construct_theorem_witness(P)
    return P, w.M, w.g, w.u


# verify, apply, closure, centralizer and extend_to_automorphism read an
# element argument as a normal form, and name what is not one in a
# ValueError (apply's zip would read a long element's first n digits,
# and a short one as if padded with zeros)
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda P, M, g, u: au.verify(au.GenMap(P, (5,) + tuple(P.generators()[1:]))),
         "image 5 is not a normal form: need 5 ints in 0..2"),
        (lambda P, M, g, u: au.verify(au.GenMap(P, (None,) + tuple(P.generators()[1:]))),
         "image None is not a normal form: need 5 ints in 0..2"),
        (lambda P, M, g, u: au.verify(au.GenMap(P, ([1, 0, 0, 0, 3],) + tuple(P.generators()[1:]))),
         "image (1, 0, 0, 0, 3) is not a normal form: need 5 ints in 0..2"),
        (lambda P, M, g, u: au.extend_to_automorphism(P, M, g + (0,), u),
         "g (1, 0, 0, 0, 0, 0) is not a normal form: need 5 ints in 0..2"),
        (lambda P, M, g, u: au.extend_to_automorphism(P, M, g, u[:-1]),
         "u (0, 0, 0, 1) is not a normal form: need 5 ints in 0..2"),
        (lambda P, M, g, u: au.extend_to_automorphism(P, M, 7, u),
         "g 7 is not a normal form: need 5 ints in 0..2"),
        (lambda P, M, g, u: au.apply(au.identity_automorphism(P), g + (2,)),
         "element (1, 0, 0, 0, 0, 2) is not a normal form: need 5 ints in 0..2"),
        (lambda P, M, g, u: au.apply(au.identity_automorphism(P), (1,)),
         "element (1,) is not a normal form: need 5 ints in 0..2"),
    ],
    ids=["verify-int", "verify-none", "verify-list", "extend-long-g", "extend-short-u",
         "extend-int-g", "apply-long", "apply-short"],
)
def test_element_arguments_must_be_normal_forms(call, message):
    with pytest.raises(ValueError) as err:
        call(*_m243_witness_parts())
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["m243", "g2187", "m3125", "m16807"])
def test_verification_section_matches_a_recomputed_certificate(name):
    # the report states the certificate construct_theorem_witness enforced;
    # recomputed here from the map itself
    P = load_group(name)
    w = pgw.construct_theorem_witness(P)
    assert rp.verification_section(P) == {
        "certified": True,
        "order": au.aut_order(w.A),
        "is_inner": au.is_inner(w.A)[0],
        "fixes_frattini_elementwise": au.fixes_elementwise(w.A, pgw.frattini(P)),
        "fixes_maximal_elementwise": au.fixes_elementwise(w.A, w.M),
    }


def test_witness_is_built_once_per_presentation():
    P = load_group("m3125")
    w = pgw.construct_theorem_witness(P)
    assert pgw.construct_theorem_witness(P) is w
    # a fresh parse of the same text is a new presentation with its own witness
    Q = load_group("m3125")
    assert pgw.construct_theorem_witness(Q) is not w
    assert pgw.construct_theorem_witness(Q).A.images == w.A.images
