"""Exhaustive Aut(G) oracle: counts, pruned/unpruned agreement, determinism."""

import dataclasses
import random
import time
import types

import numpy as np
import pytest

import pgw
from pgw import automorphisms as au
from pgw import groupfile
from pgw import oracle
from pgw import structure as st
from pgw.tables import get_tables

from conftest import MODELS, assert_isomorphic, load_group

# total, inner, order-p non-inner Frattini-fixing bucket (None = not pinned here)
EXPECTED = {
    "c9": (6, 1, None),
    "c3c3": (48, 1, None),
    "h27": (432, 9, None),
    "x27": (54, 9, None),
    "w81": (324, 27, 18),
    "m243": (486, 81, 18),
    "q8": (24, 4, None),
}

SMALL = ["c9", "c3c3", "h27", "x27", "w81", "q8"]  # order <= 81


def _images(P, rows):
    """The generator-image tuples of rows of element indices."""
    return [tuple(map(tuple, row)) for row in get_tables(P).decode(rows).tolist()]


def _automorphisms(P, rows):
    return [au.Automorphism(P, images) for images in _images(P, rows)]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_counts(name):
    P = pgw.load(name)
    count = pgw.enumerate_automorphisms(P, budget=300)
    total, inner, bucket = EXPECTED[name]
    assert count.total == total
    assert count.inner == inner
    if bucket is not None:
        assert count.order_p_noninner_fixing_frattini == bucket
    assert len(count.maps) == total
    assert count.elapsed >= 0


@pytest.mark.parametrize(
    "name, pruned, jobs", [("h27", True, 1), ("h27", False, 1), ("m243", True, 2)]
)
def test_maps_are_one_read_only_index_array(name, pruned, jobs):
    P = pgw.load(name)
    count = pgw.enumerate_automorphisms(P, pruned=pruned, jobs=jobs)
    maps = count.maps
    assert isinstance(maps, np.ndarray)
    assert maps.dtype == np.int32
    assert maps.shape == (count.total, P.n)
    assert not maps.flags.writeable
    with pytest.raises(ValueError):
        maps[0, 0] = 1
    assert _images(P, maps) == sorted(_images(P, maps))
    [first] = _images(P, maps[:1])
    assert au.verify(au.GenMap(P, first)).images == first


def test_demo_counts(demo_group, demo_oracle_count):
    count = demo_oracle_count
    assert count.total == 4374
    assert count.inner == 729
    assert count.order_p_noninner_fixing_frattini == 18
    assert len(count.maps) == 4374


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_inner_count_is_index_of_center(name):
    P = pgw.load(name)
    count = pgw.enumerate_automorphisms(P, budget=300)
    assert count.inner * pgw.center(P).order == P.order


def test_c9_total_is_unit_count():
    total = pgw.enumerate_automorphisms(pgw.load("c9"), budget=60).total
    import math
    assert total == sum(1 for k in range(1, 9) if math.gcd(k, 9) == 1)


def test_c3c3_total_is_gl2():
    total = pgw.enumerate_automorphisms(pgw.load("c3c3"), budget=60).total
    assert total == (3**2 - 1) * (3**2 - 3)


@pytest.mark.parametrize("name", SMALL)
def test_pruned_matches_unpruned(name):
    P = pgw.load(name)
    a = pgw.enumerate_automorphisms(P, budget=300, pruned=True)
    b = pgw.enumerate_automorphisms(P, budget=300, pruned=False)
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (
        b.total,
        b.inner,
        b.order_p_noninner_fixing_frattini,
    )
    assert np.array_equal(a.maps, b.maps)


def test_unpruned_route_propagates_a_verify_bug(monkeypatch):
    # only a relation or surjectivity failure means "not an automorphism"
    def broken(A):
        raise RuntimeError("bug inside verify")

    monkeypatch.setattr(au, "verify", broken)
    with pytest.raises(RuntimeError, match="bug inside verify"):
        pgw.enumerate_automorphisms(pgw.load("h27"), pruned=False)


def test_jobs_do_not_change_anything():
    P = pgw.load("m243")
    a = pgw.enumerate_automorphisms(P, budget=300, jobs=1)
    b = pgw.enumerate_automorphisms(P, budget=300, jobs=4)
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (
        b.total,
        b.inner,
        b.order_p_noninner_fixing_frattini,
    )
    assert np.array_equal(a.maps, b.maps)


class _InlineFork:
    """A stand-in for the fork context: a Process runs its target in this
    process when started, and records how many tasks it was given; a Pipe
    hands recv the one object that was sent."""

    started = []

    class Process:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            _InlineFork.started.append(len(self.args[0]))
            self.target(*self.args)

        def is_alive(self):
            return False

        def join(self):
            pass

    @staticmethod
    def Pipe(duplex):
        box = []
        end = types.SimpleNamespace(send=box.append, recv=box.pop, close=lambda: None)
        return end, end


@pytest.mark.parametrize("name", ["h27", "g2187"])
def test_jobs_never_exceed_the_tasks(name, request, monkeypatch):
    P = pgw.load(name)
    if name == "g2187":
        a = request.getfixturevalue("demo_oracle_count")
    else:
        a = pgw.enumerate_automorphisms(P, jobs=1)
    _InlineFork.started = []
    monkeypatch.setattr(oracle.multiprocessing, "get_context", lambda method: _InlineFork)
    b = pgw.enumerate_automorphisms(P, jobs=1000)
    processes, tasks = len(_InlineFork.started), sum(_InlineFork.started)
    assert processes <= tasks == P.p ** P.minimal_count - 1
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (
        b.total,
        b.inner,
        b.order_p_noninner_fixing_frattini,
    )
    assert np.array_equal(a.maps, b.maps)


def test_map_set_closed_under_composition():
    P = pgw.load("h27")
    count = pgw.enumerate_automorphisms(P, budget=300)
    maps = _automorphisms(P, count.maps)
    image_set = {A.images for A in maps}
    assert len(image_set) == count.total
    rng = random.Random(7)
    for _ in range(150):
        A = maps[rng.randrange(len(maps))]
        B = maps[rng.randrange(len(maps))]
        assert au.compose(A, B).images in image_set


@pytest.fixture(scope="module")
def m3125_count():
    """The p = 5 group's enumeration with its maps, shared by the tests here."""
    return pgw.enumerate_automorphisms(load_group("m3125"), budget=300, jobs=1)


@pytest.mark.parametrize("name", ["h27", "m243", "m3125"])
def test_row_flags_and_images_match_collection(name, request):
    # at p = 5 the classifier's power loop runs four times; a seeded sample of
    # the 12500 maps keeps the pure aut_order() and apply() calls few
    P = load_group(name)
    if name == "m3125":
        rows = request.getfixturevalue("m3125_count").maps
        rows = rows[random.Random(3).sample(range(len(rows)), 200)]
    else:
        rows = pgw.enumerate_automorphisms(P, budget=300).maps
    maps = _automorphisms(P, rows)
    t = get_tables(P)
    xs = t.all[:: 97 if name == "m3125" else 7]  # a spread of elements
    order_p, fixes_phi = oracle._row_flags(t, rows)
    F = pgw.frattini(P)
    assert order_p.any() and not order_p.all() and fixes_phi.any() and not fixes_phi.all()
    for A, op, fp in zip(maps, order_p, fixes_phi):
        assert op == (au.aut_order(A) == P.p)
        assert fp == au.fixes_elementwise(A, F)
    for A, row in zip(maps, oracle._apply_rows(t, oracle._powers(t, rows), xs)):
        assert row.tolist() == [t.encode(au.apply(A, tuple(t.decode(x).tolist()))) for x in xs]


def test_budget_exhaustion_raises(demo_group):
    with pytest.raises(pgw.OracleTimeout):
        pgw.enumerate_automorphisms(demo_group, budget=0.0)
    with pytest.raises(pgw.OracleTimeout):
        pgw.enumerate_automorphisms(pgw.load("w81"), budget=0.0, pruned=False)
    P = pgw.load("h27")
    ctx = oracle._prepare(P)
    identity = ctx["t"].encode([P.generators()])
    with pytest.raises(pgw.OracleTimeout):
        oracle._certify_rows(ctx, identity, time.monotonic() - 1)
    mins = np.stack([ctx["t"].all, ctx["t"].all], axis=1)  # every pair of minimal images
    with pytest.raises(pgw.OracleTimeout):
        oracle._sieve(ctx, mins, P.n, time.monotonic() - 1)


# The search checks its deadline per level, per block of nodes, between sieve
# relations and before each block of certified rows, steps of well under a
# second on the 7^5 group, so the slack leaves room for a slow host.
BUDGET_SLACK_S = 3.0


def test_budget_holds_during_the_search():
    P = load_group("m16807")
    start = time.monotonic()
    with pytest.raises(pgw.OracleTimeout):
        pgw.enumerate_automorphisms(P, budget=0.5)
    assert time.monotonic() - start < 0.5 + BUDGET_SLACK_S


def test_certify_rows_names_the_first_bad_row(demo_group, demo_oracle_count):
    P = demo_group
    ctx = oracle._prepare(P)
    rows = demo_oracle_count.maps
    assert np.array_equal(oracle._certify_rows(ctx, rows, None), rows)
    maps = _images(P, rows)
    rng = random.Random(5)
    elems = st.whole_group(P).elements
    bad = (rng.choice(elems),) + maps[1500][1:]  # past the first block of rows
    planted = maps[:1500] + [bad] + maps[1501:3000] + [(pgw.identity(P),) * P.n] + maps[3001:]
    with pytest.raises(pgw.RelationViolated) as why:
        au.verify(au.GenMap(P, bad))
    with pytest.raises(pgw.Mismatch) as err:
        oracle._certify_rows(ctx, ctx["t"].encode(planted), None)
    assert str(err.value) == f"sieve accepted {bad} but pure verification rejected it: {why.value}"
    assert type(err.value.__cause__) is pgw.RelationViolated


def test_certify_rows_checks_the_deadline_between_blocks(demo_group, demo_oracle_count):
    # all 4374 survivors go to one verify_coded call, which checks the deadline
    # before each relation, so the call ends soon after the deadline passes
    P = demo_group
    ctx = oracle._prepare(P)
    rows = demo_oracle_count.maps
    assert len(rows) == 4374
    start = time.monotonic()
    with pytest.raises(pgw.OracleTimeout, match="certifying 4374 rows"):
        oracle._certify_rows(ctx, rows, start + 0.03)
    assert time.monotonic() - start < 0.03 + BUDGET_SLACK_S


@pytest.mark.parametrize("name", ["h27", "m243"])
def test_classifier_and_inner_test_share_one_table(name):
    P = pgw.load(name)
    t = get_tables(P)
    keys, _ = au._inner_table(P)
    assert len(keys) * pgw.center(P).order == P.order
    rows = pgw.enumerate_automorphisms(P).maps
    found = au._conjugators(P, rows)
    for A, x in zip(_automorphisms(P, rows), found.tolist()):
        inner, conjugator = au.is_inner(A)
        assert (x >= 0) == inner
        assert conjugator is None or t.encode(conjugator) == x


@pytest.mark.parametrize("p, d", [(2, 3), (3, 2), (3, 3), (5, 2)])
def test_bases_are_gl_d_p(p, d):
    firsts = np.arange(1, p**d)
    blocks = list(oracle._bases(p, d, firsts[:, None], None))
    codes = np.concatenate(blocks)
    gl = 1
    for r in range(d):
        gl *= p**d - p**r
    assert codes.shape == (gl, d)
    assert len({tuple(row) for row in codes.tolist()}) == gl
    radix = [p**k for k in range(d - 1, -1, -1)]
    for row in codes[:: max(1, gl // 500)].tolist():
        assert au._rank_mod_p([[c // r % p for r in radix] for c in row], p) == d


def test_small_blocks_change_nothing(monkeypatch):
    P = pgw.load("m243")
    a = pgw.enumerate_automorphisms(P, budget=300)
    monkeypatch.setattr(oracle, "_ROWS", 5)  # one node per _sieve call
    b = pgw.enumerate_automorphisms(P, budget=300)
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (
        b.total,
        b.inner,
        b.order_p_noninner_fixing_frattini,
    )
    assert np.array_equal(a.maps, b.maps)


def test_p5_group_counts_and_cross_validates(m3125_count):
    a = m3125_count
    P = load_group("m3125")
    assert a.total == 12500
    assert a.inner * pgw.center(P).order == P.order
    assert pgw.cross_validate(P, precomputed=a) is True
    b = pgw.enumerate_automorphisms(P, budget=300, jobs=2)
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (
        b.total,
        b.inner,
        b.order_p_noninner_fixing_frattini,
    )
    assert np.array_equal(a.maps, b.maps)


def test_missing_defn_tags_rejected():
    P = pgw.load("h27")
    stripped = dataclasses.replace(P, defn={})
    with pytest.raises(pgw.MissingDefinitions):
        pgw.enumerate_automorphisms(stripped, budget=60)


def test_unvalidated_presentation_rejected():
    P = pgw.load("h27")
    raw = dataclasses.replace(P, validated=False)
    with pytest.raises(pgw.PreconditionFailed):
        pgw.enumerate_automorphisms(raw, budget=60)


# Same group, different polycyclic sequence: f1 = y, f2 = x instead of the
# shipped f1 = x, f2 = y.  Counts depend only on the group, so they must
# agree with the shipped presentation exactly.
ALT_243 = """\
name m243alt
p 3
n 5
pow 1 = g4^1
pow 2 = g3^1
pow 3 = g5^1
comm 2 1 = g3^2
comm 3 1 = g5^2
comm 4 2 = g5^1
def 3 = pow 2
def 4 = pow 1
def 5 = pow 3
"""


def test_count_invariant_under_presentation_change():
    gf = groupfile.parse_text(ALT_243)
    P = gf.presentation
    mul, one, _ = MODELS["m243"]
    assert_isomorphic(P, mul, one, [(0, 1), (1, 0), (3, 0), (0, 3), (9, 0)])
    count = pgw.enumerate_automorphisms(P, budget=300)
    assert count.total == 486
    assert count.inner == 81
    assert count.order_p_noninner_fixing_frattini == 18


@pytest.mark.parametrize("name", SMALL + ["m243"])
def test_cross_validation_small(name):
    P = pgw.load(name)
    count = pgw.enumerate_automorphisms(P, budget=300)
    assert pgw.cross_validate(P, precomputed=count) is True


def test_cross_validation_demo(demo_group, demo_oracle_count):
    assert pgw.cross_validate(demo_group, precomputed=demo_oracle_count) is True


def test_cross_validation_needs_maps(demo_group):
    bare = pgw.AutCount(total=1, inner=1, order_p_noninner_fixing_frattini=0, elapsed=0.0, maps=())
    with pytest.raises(pgw.Mismatch, match="the stream holds 0 maps, the count says 1"):
        pgw.cross_validate(demo_group, precomputed=bare)


def test_conjugates_by_matches_inner_from():
    P = pgw.load("h27")
    f1 = P.generator(1)  # not central, so t and t f1 give different inner maps
    for t in st.whole_group(P).elements:
        A = au.inner_from(P, t)
        assert oracle._conjugates_by(P, A.images, t)
        assert not oracle._conjugates_by(P, A.images, pgw.mul(P, t, f1))


def test_cross_validation_catches_a_wrong_conjugator(monkeypatch):
    P = pgw.load("h27")
    count = pgw.enumerate_automorphisms(P, budget=60)
    t = get_tables(P)
    conjugators = au._conjugators

    def shifted(P, rows):  # f_1 is not central, so t f_1 conjugates differently
        found = conjugators(P, rows)
        return np.where(found >= 0, t.mul(np.maximum(found, 0), t.strides[0]), -1)

    monkeypatch.setattr(au, "_conjugators", shifted)
    with pytest.raises(pgw.Mismatch, match="does not reproduce"):
        pgw.cross_validate(P, precomputed=count)


@pytest.mark.parametrize("name", ["h27", "m243", "g2187"])
def test_stream_labels_match_is_inner(name, request):
    if name == "g2187":
        P = request.getfixturevalue("demo_group")
        count = request.getfixturevalue("demo_oracle_count")
    else:
        P = pgw.load(name)
        count = pgw.enumerate_automorphisms(P)
    t = get_tables(P)
    found = au._conjugators(P, count.maps)
    assert len(found) == count.total
    for A, x in zip(_automorphisms(P, count.maps), found.tolist()):
        inner, conjugator = au.is_inner(A)
        assert (x >= 0) == inner
        assert x < 0 or tuple(t.decode(x).tolist()) == conjugator


def test_cross_validation_rejects_a_truncated_stream():
    # every inner map is there, so the inner checks alone would pass
    P = pgw.load("h27")
    count = pgw.enumerate_automorphisms(P, budget=60)
    inner_only = count.maps[au._conjugators(P, count.maps) >= 0]
    short = dataclasses.replace(count, maps=inner_only)
    with pytest.raises(pgw.Mismatch, match="the stream holds 9 maps, the count says 432"):
        pgw.cross_validate(P, precomputed=short)


@pytest.fixture(scope="module")
def m243_count():
    """m243, which has a witness, and its enumeration, shared by the tests below."""
    P = pgw.load("m243")
    return P, pgw.enumerate_automorphisms(P, budget=300)


def _witness_row(P, count):
    target = get_tables(P).encode(pgw.construct_theorem_witness(P).A.images)
    [k] = np.flatnonzero((count.maps == target).all(axis=1))
    return int(k)


def test_cross_validation_rejects_a_stream_of_the_wrong_width(m243_count):
    P, count = m243_count
    narrow = dataclasses.replace(count, maps=count.maps[:, :-1])
    with pytest.raises(pgw.Mismatch, match="a streamed map does not hold 5 images"):
        pgw.cross_validate(P, precomputed=narrow)


@pytest.mark.parametrize("bad", [243, -1])
def test_cross_validation_rejects_an_index_outside_the_group(m243_count, bad):
    P, count = m243_count
    maps = count.maps.copy()
    maps[-1, 2] = bad
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=dataclasses.replace(count, maps=maps))
    assert str(err.value) == f"a streamed image is not an element: index {bad} is outside 0..242"


@pytest.mark.parametrize("times", [0, 2])
def test_cross_validation_finds_the_witness_row_once(m243_count, times):
    # the witness's row overwrites, or is overwritten by, another non-inner
    # row, so the total and every inner label stay as they were
    P, count = m243_count
    k = _witness_row(P, count)
    maps = count.maps.copy()
    found = au._conjugators(P, maps)
    other = next(j for j in range(len(maps)) if j != k and found[j] < 0)
    if times:
        maps[other] = maps[k]
    else:
        maps[k] = maps[other]
    target = pgw.construct_theorem_witness(P).A.images
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=dataclasses.replace(count, maps=maps))
    assert str(err.value) == f"witness images {target} appear {times} times in the stream"


@pytest.mark.parametrize(
    "flag, message",
    [(0, "witness does not have order p"), (1, "witness moves the Frattini subgroup")],
)
def test_cross_validation_reads_the_witness_flags(m243_count, monkeypatch, flag, message):
    P, count = m243_count
    row_flags = oracle._row_flags

    def forced(t, rows):
        flags = list(row_flags(t, rows))
        assert flags[flag].all()
        flags[flag] = np.zeros_like(flags[flag])
        return tuple(flags)

    monkeypatch.setattr(oracle, "_row_flags", forced)
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=count)
    assert str(err.value) == f"{message} under the oracle's copy"


def test_cross_validation_reads_the_witness_inner_label(m243_count, monkeypatch):
    # one inner map's label moves to the witness's row, and every label
    # passes the collection check, so only (c) can see it
    P, count = m243_count
    k = _witness_row(P, count)
    conjugators = au._conjugators

    def moved(P, rows):
        found = conjugators(P, rows)
        if len(rows) == count.total:  # the stream, not the witness's own inner test
            j = np.flatnonzero(found >= 0)[0]
            found[k], found[j] = found[j], -1
        return found

    monkeypatch.setattr(au, "_conjugators", moved)
    monkeypatch.setattr(oracle, "_conjugates_by", lambda P, images, t: True)
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=count)
    assert str(err.value) == "witness is inner under the oracle's copy"


def test_cross_validation_needs_a_bucket_for_the_witness(m243_count):
    P, count = m243_count
    empty = dataclasses.replace(count, order_p_noninner_fixing_frattini=0)
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=empty)
    assert str(err.value) == "order-p non-inner Frattini-fixing bucket is empty despite a witness"


def _comm_sieve(ctx, mins, level):
    """The sieve's relation check in its commutator form, as a reference:
    [a, b] by t.comm (two inverses, three products) against w."""
    P, t = ctx["P"], ctx["t"]
    img = list(mins.T) + [None] * (P.n - ctx["d"])
    for i in range(ctx["d"] + 1, P.n + 1):
        tag = P.defn[i]
        if tag[0] == "pow":
            img[i - 1] = ctx["pth"][img[tag[1] - 1]]
        else:
            img[i - 1] = t.comm(img[tag[1] - 1], img[tag[2] - 1])
    cut = int(t.strides[level - 1])
    for rel in ctx["relations"]:
        if rel[0] == "comm":
            lhs = t.comm(img[rel[1] - 1], img[rel[2] - 1])
        else:
            lhs = ctx["pth"][img[rel[1] - 1]]
        rhs = np.zeros_like(lhs)
        for g, m in oracle._relation_word(P, rel):
            for _ in range(m):
                rhs = t.mul(rhs, img[g - 1])
        ok = lhs // cut == rhs // cut
        img = [x[ok] for x in img]
    return np.stack(img, axis=1)


@pytest.mark.parametrize(
    "name, total", [("h27", 432), ("m243", 486), ("g2187", 4374), ("m3125", 12500)]
)
def test_sieve_matches_the_commutator_form(name, total):
    P = load_group(name)
    ctx = oracle._prepare(P)
    t, d = ctx["t"], ctx["d"]
    bases = np.concatenate(list(oracle._bases(P.p, d, np.arange(1, P.p**d)[:, None], None)))
    rows = (bases * t.strides[d - 1]).astype(np.int32)
    for level in range(d, P.n):
        children = (rows[:, None, :d] + ctx["digits"] * t.strides[level]).reshape(-1, d)
        rows = oracle._sieve(ctx, children, level + 1, None)
        assert np.array_equal(rows, _comm_sieve(ctx, children, level + 1)), level + 1
    assert len(rows) == total


def _lift_reference(ctx, rows, level):
    """The lift _lift replaced: every child of every node goes through
    _sieve one level down, in blocks of at most _ROWS children."""
    if level == ctx["P"].n:
        yield rows
        return
    steps = ctx["digits"] * ctx["t"].strides[level]
    per = max(1, oracle._ROWS // len(steps))
    for s in range(0, len(rows), per):
        children = (rows[s : s + per, None, : ctx["d"]] + steps).reshape(-1, ctx["d"])
        yield from _lift_reference(ctx, oracle._sieve(ctx, children, level + 1, None), level + 1)


def _level_d_nodes(ctx):
    P, t, d = ctx["P"], ctx["t"], ctx["d"]
    bases = np.concatenate(list(oracle._bases(P.p, d, np.arange(1, P.p**d)[:, None], None)))
    return (bases * t.strides[d - 1]).astype(np.int32)


@pytest.mark.parametrize("name", sorted(MODELS) + ["m3125"])
def test_lift_matches_the_children_sieve(name):
    P = load_group(name)
    ctx = oracle._prepare(P)
    mins = _level_d_nodes(ctx)
    got = np.concatenate(list(oracle._lift(ctx, mins, ctx["d"], None)))
    assert np.array_equal(got, np.concatenate(list(_lift_reference(ctx, mins, ctx["d"]))))


def test_lift_level_sizes_g2187(demo_group, monkeypatch):
    sizes = {}
    lift = oracle._lift

    def counting(ctx, nodes, level, deadline):
        sizes[level] = sizes.get(level, 0) + len(nodes)
        return lift(ctx, nodes, level, deadline)

    monkeypatch.setattr(oracle, "_lift", counting)
    ctx = oracle._prepare(demo_group)
    rows = np.concatenate(list(oracle._lift(ctx, _level_d_nodes(ctx), ctx["d"], None)))
    assert len(rows) == 4374
    assert [sizes[k] for k in sorted(sizes)] == [48, 162, 486, 1458, 4374, 4374]


@pytest.mark.parametrize("name", sorted(MODELS) + ["m3125"])
def test_children_share_their_parents_verdict(name):
    # G_{k+1}/G_{k+2} is central in G/G_{k+2}, so at each level the p^d
    # children of a node pass the sieve all together or not at all, exactly
    # when the node itself passes one level down
    P = load_group(name)
    ctx = oracle._prepare(P)
    d, width = ctx["d"], len(ctx["digits"])
    nodes = _level_d_nodes(ctx)
    for level in range(d, P.n):
        children = (nodes[:, None, :d] + ctx["digits"] * ctx["t"].strides[level]).reshape(-1, d)
        survivors = oracle._sieve(ctx, children, level + 1, None)
        kept = set(map(tuple, survivors[:, :d].tolist()))
        passed = np.array([c in kept for c in map(tuple, children.tolist())]).reshape(-1, width)
        assert (passed.all(axis=1) | ~passed.any(axis=1)).all(), level + 1
        alone = set(map(tuple, oracle._sieve(ctx, nodes[:, :d], level + 1, None)[:, :d].tolist()))
        assert passed[:, 0].tolist() == [r in alone for r in map(tuple, nodes[:, :d].tolist())]
        nodes = survivors
