"""Aut(G) oracle: counts, agreement with tests/oracle_reference.py, determinism."""

import collections
import gc
import hashlib
import importlib.resources
import itertools
import multiprocessing.connection
import os
import pathlib
import random
import subprocess
import sys
import time
import types
import weakref
from array import array

import numpy as np
import pytest

import pgw
from pgw import automorphisms as au
from pgw import errors
from pgw import groupfile
from pgw import oracle
from pgw import structure as st
from pgw.tables import get_tables

import mask_reference as ref
from conftest import ALL_NAMES, FAMILY_NAMES, MODELS, TEXT_NAMES, assert_isomorphic, load_group

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


def _rows(P, maps):
    """The rows of a flat stream of image indices, n to a row."""
    return list(zip(*[iter(maps)] * P.n))


def _images(P, rows):
    """The generator-image tuples of rows of element indices."""
    return [tuple(map(get_tables(P).decode, row)) for row in rows]


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
    assert len(count.maps) == total * P.n
    assert count.elapsed >= 0


@pytest.mark.parametrize("name, jobs", [("h27", 1), ("m243", 2)])
def test_maps_are_one_read_only_index_array(name, jobs):
    P = pgw.load(name)
    count = pgw.enumerate_automorphisms(P, jobs=jobs)
    maps = count.maps
    assert isinstance(maps, memoryview)
    assert (maps.format, maps.itemsize) == ("i", 4)  # 4 * n bytes an automorphism
    assert len(maps) == count.total * P.n
    assert maps.readonly
    with pytest.raises(TypeError):
        maps[0] = 1
    rows = _rows(P, maps)
    assert _images(P, rows) == sorted(_images(P, rows))
    [first] = _images(P, rows[:1])
    assert au.verify(au.GenMap(P, first)).images == first


@pytest.mark.parametrize("jobs", [1, 2])
def test_tallies_are_python_ints(jobs):
    # the report writes the tallies as they come, with no conversion
    count = pgw.enumerate_automorphisms(pgw.load("m243"), jobs=jobs)
    for tally in (count.total, count.inner, count.order_p_noninner_fixing_frattini):
        assert type(tally) is int


def test_demo_counts(demo_group, demo_oracle_count):
    count = demo_oracle_count
    assert count.total == 4374
    assert count.inner == 729
    assert count.order_p_noninner_fixing_frattini == 18
    assert len(count.maps) == 4374 * demo_group.n


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
def test_pruned_matches_unpruned(name, unpruned_reference):
    P = pgw.load(name)
    a = pgw.enumerate_automorphisms(P, budget=300)
    total, inner, bucket, maps = unpruned_reference(name)
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (total, inner, bucket)
    assert a.maps == maps


def test_jobs_do_not_change_anything():
    P = pgw.load("m243")
    a = pgw.enumerate_automorphisms(P, budget=300, jobs=1)
    b = pgw.enumerate_automorphisms(P, budget=300, jobs=4)
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (
        b.total,
        b.inner,
        b.order_p_noninner_fixing_frattini,
    )
    assert a.maps == b.maps


class _InlineFork:
    """A stand-in for the fork context: a Process runs its target in this
    process when started, and records how many chunks it was given; a Pipe
    hands recv the one object that was sent, so waiting on it returns at
    once."""

    started = []

    class Process:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            _InlineFork.started.append(len(self.args[1]))  # (ctx, chunks, deadline, conn)
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
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: _InlineFork)
    monkeypatch.setattr(multiprocessing.connection, "wait", lambda ends, timeout: list(ends))
    b = pgw.enumerate_automorphisms(P, jobs=1000)
    processes, tasks = len(_InlineFork.started), sum(_InlineFork.started)
    assert processes <= tasks == P.p ** P.minimal_count - 1
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (
        b.total,
        b.inner,
        b.order_p_noninner_fixing_frattini,
    )
    assert a.maps == b.maps


def test_one_job_never_imports_multiprocessing():
    script = (
        "import sys, pgw\n"
        "pgw.enumerate_automorphisms(pgw.load('h27'), jobs=1)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_map_set_closed_under_composition():
    P = pgw.load("h27")
    count = pgw.enumerate_automorphisms(P, budget=300)
    maps = _automorphisms(P, _rows(P, count.maps))
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
        rows = _rows(P, request.getfixturevalue("m3125_count").maps)
        rows = [rows[k] for k in random.Random(3).sample(range(len(rows)), 200)]
    else:
        rows = _rows(P, pgw.enumerate_automorphisms(P, budget=300).maps)
    maps = _automorphisms(P, rows)
    t = get_tables(P)
    xs = t.all[:: 97 if name == "m3125" else 7]  # a spread of elements
    order_p, fixes_phi = oracle._order_p(t, rows), oracle._fixes_phi(t, rows)
    F = pgw.frattini(P)
    assert any(order_p) and not all(order_p) and any(fixes_phi) and not all(fixes_phi)
    for A, op, fp in zip(maps, order_p, fixes_phi):
        assert op == (au.aut_order(A) == P.p)
        assert fp == au.fixes_elementwise(A, F)
    for A, row in zip(maps, rows):
        powers = oracle._powers(t, row)
        got = [oracle._apply(t, powers, x) for x in xs]
        assert got == [t.encode(au.apply(A, t.decode(x))) for x in xs]


@pytest.mark.parametrize("name", ["m243", "g2187", "m3125"])
def test_bucket_counts_the_full_stream_flags(name, request):
    # the classifier tests order p only on non-inner Phi(G)-fixing rows;
    # flagging every row of the stream must give the same bucket
    if name == "m243":
        P, count = request.getfixturevalue("m243_count")
    elif name == "g2187":
        P = request.getfixturevalue("demo_group")
        count = request.getfixturevalue("demo_oracle_count")
    else:
        P, count = load_group(name), request.getfixturevalue("m3125_count")
    rows = _rows(P, count.maps)
    t = get_tables(P)
    order_p, fixes_phi = oracle._order_p(t, rows), oracle._fixes_phi(t, rows)
    inner = [c >= 0 for c in au._conjugators(P, rows)]
    flags = zip(order_p, inner, fixes_phi)
    assert sum(o and not i and f for o, i, f in flags) == count.order_p_noninner_fixing_frattini


def test_budget_exhaustion_raises(demo_group):
    with pytest.raises(pgw.OracleTimeout):
        pgw.enumerate_automorphisms(demo_group, budget=0.0)
    P = pgw.load("h27")
    ctx = oracle._prepare(P)
    identity = [tuple(map(ctx["t"].encode, P.generators()))]
    with pytest.raises(pgw.OracleTimeout):
        oracle._certify_rows(ctx, identity, time.monotonic() - 1)
    mins = [ctx["t"].all, ctx["t"].all]  # the columns of the minimal images (x, x)
    with pytest.raises(pgw.OracleTimeout):
        oracle._sieve(ctx, mins, P.n, time.monotonic() - 1)


# The search checks its deadline per level, per block of nodes, between sieve
# relations and before each block of certified rows, steps of well under a
# second on the 7^5 group, so the slack leaves room for a slow host.
BUDGET_SLACK_S = 3.0


def test_budget_holds_during_the_search():
    # the budget is half of a full search on this host, tables already built,
    # so the deadline passes mid-search however fast the host is
    P = load_group("m16807")
    pgw.enumerate_automorphisms(P)
    start = time.monotonic()
    pgw.enumerate_automorphisms(P)
    budget = (time.monotonic() - start) / 2
    start = time.monotonic()
    with pytest.raises(pgw.OracleTimeout):
        pgw.enumerate_automorphisms(P, budget=budget)
    assert time.monotonic() - start < budget + BUDGET_SLACK_S


def test_certify_rows_names_the_first_bad_row(demo_group, demo_oracle_count):
    P = demo_group
    ctx = oracle._prepare(P)
    rows = _rows(P, demo_oracle_count.maps)
    assert oracle._certify_rows(ctx, rows, None) == rows
    maps = _images(P, rows)
    rng = random.Random(5)
    elems = st.whole_group(P).elements
    bad = (rng.choice(elems),) + maps[1500][1:]  # past the first block of rows
    planted = maps[:1500] + [bad] + maps[1501:3000] + [(pgw.identity(P),) * P.n] + maps[3001:]
    with pytest.raises(pgw.RelationViolated) as why:
        au.verify(au.GenMap(P, bad))
    with pytest.raises(pgw.Mismatch) as err:
        oracle._certify_rows(ctx, [tuple(map(ctx["t"].encode, row)) for row in planted], None)
    assert str(err.value) == f"sieve accepted {bad} but pure verification rejected it: {why.value}"
    assert type(err.value.__cause__) is pgw.RelationViolated


def test_certify_rows_checks_the_deadline_between_blocks(
    demo_group, demo_oracle_count, monkeypatch
):
    # the demo block's 486 class representatives go to one verify_coded call,
    # which checks the deadline before each relation: with a clock that passes
    # the deadline after the first check, the call stops at its second relation
    P = demo_group
    ctx = oracle._prepare(P)
    rows = _rows(P, demo_oracle_count.maps)
    assert len(rows) == 4374
    clock = itertools.chain([0.0], itertools.repeat(2.0))
    monkeypatch.setattr(errors, "time", types.SimpleNamespace(monotonic=clock.__next__))
    with pytest.raises(pgw.OracleTimeout) as err:
        oracle._certify_rows(ctx, rows, 1.0)
    assert str(err.value) == "budget exhausted certifying 486 rows, at f_2^3"


def _stream(name, request):
    """(P, its oracle count) for a shipped group or a FAMILY member, taking
    the demo group's and m3125's from the shared fixtures."""
    if name == "g2187":
        return request.getfixturevalue("demo_group"), request.getfixturevalue("demo_oracle_count")
    if name == "m3125":
        return load_group(name), request.getfixturevalue("m3125_count")
    P = load_group(name)
    return P, pgw.enumerate_automorphisms(P)


def _twist_key(P, row):
    """The minimal images of a row with f_n's digit dropped."""
    return tuple(x // P.p for x in row[: P.minimal_count])


@pytest.mark.parametrize("name", sorted(MODELS) + ["m3125", "m16807"])
def test_stream_splits_into_central_twist_classes(name, request):
    # f_n commutes with every generator, and when n > d it lies in Phi(G):
    # the maps whose minimal images agree past f_n's digit come p^d at a
    # time and share their forced images, so _certify_rows collects one each.
    # The route before those classes stays the reference: every row of the
    # stream passes verify_coded.
    P, count = _stream(name, request)
    t, d = get_tables(P), P.minimal_count
    rows = _rows(P, count.maps)
    distinct = sorted(set(count.maps))
    number = {x: k for k, x in enumerate(distinct)}
    coded = [[number[x] for x in row] for row in rows]
    assert au.verify_coded(P, [t.decode(x) for x in distinct], coded) is None
    assert not any(i == P.n for i, _ in P.comm_rel)
    if P.n == d:
        return
    sizes = collections.Counter(_twist_key(P, row) for row in rows)
    assert set(sizes.values()) == {P.p**d}
    forced = {_twist_key(P, row): row[d:] for row in rows}
    assert all(row[d:] == forced[_twist_key(P, row)] for row in rows)


@pytest.mark.parametrize("name", ["w81", "m243", "g2187"])
def test_twist_keys_match_the_reference_row_by_row(name, request):
    # the block's keys, built from its columns, are the reference key of
    # each row followed by its forced entries
    P, count = _stream(name, request)
    rows = _rows(P, count.maps)
    d = P.minimal_count
    assert oracle._twist_keys(P, rows) == [_twist_key(P, row) + row[d:] for row in rows]
    assert oracle._twist_keys(P, []) == []


@pytest.mark.parametrize("name, collected", [("c3c3", 48), ("g2187", 486)])
def test_certify_rows_collects_one_row_per_class(name, collected, request, monkeypatch):
    # c3c3 has n = d, so its whole block is collected; the demo group's 4374
    # maps fall in 486 classes of 3^2
    P, count = _stream(name, request)
    rows = _rows(P, count.maps)
    seen = []
    verify_coded = au.verify_coded

    def spy(P, forms, coded, deadline=None):
        seen.append(len(coded))
        return verify_coded(P, forms, coded, deadline)

    monkeypatch.setattr(au, "verify_coded", spy)
    assert oracle._certify_rows(oracle._prepare(P), rows, None) == rows
    assert seen == [collected]


def _next_digit(P, x):
    """x with the digit of f_{n-1} moved up by one, mod p."""
    p = P.p
    return x - x // p % p * p + (x // p + 1) % p * p


@pytest.mark.parametrize(
    "tamper",
    [
        lambda P, t, row: row[:2] + ((row[2] + 1) % t.N,) + row[3:],  # f_3's forced image
        lambda P, t, row: (_next_digit(P, row[0]),) + row[1:],  # A(f_1) above f_n's digit
    ],
    ids=["forced-entry", "minimal-image"],
)
def test_certify_rows_collects_a_tampered_sibling(demo_group, demo_oracle_count, tamper):
    # the sibling is not the first row of its class, so it is certified only
    # if tampering moves it to a class of its own
    P = demo_group
    ctx = oracle._prepare(P)
    t = ctx["t"]
    rows = _rows(P, demo_oracle_count.maps)
    k = next(k for k in range(1, len(rows)) if _twist_key(P, rows[k]) == _twist_key(P, rows[0]))
    assert rows[k][2:] == rows[0][2:]
    bad = tamper(P, t, rows[k])
    assert bad != rows[k] and bad not in set(rows)
    images = tuple(map(t.decode, bad))
    with pytest.raises(pgw.RelationViolated) as why:
        au.verify(au.GenMap(P, images))
    with pytest.raises(pgw.Mismatch) as err:
        oracle._certify_rows(ctx, rows[:k] + [bad] + rows[k + 1 :], None)
    expected = f"sieve accepted {images} but pure verification rejected it: {why.value}"
    assert str(err.value) == expected


@pytest.mark.parametrize("name", ["h27", "m243"])
def test_classifier_and_inner_test_share_one_table(name):
    P = pgw.load(name)
    t = get_tables(P)
    assert len(au._inner_table(P)) * pgw.center(P).order == P.order
    rows = _rows(P, pgw.enumerate_automorphisms(P).maps)
    found = au._conjugators(P, rows)
    for A, x in zip(_automorphisms(P, rows), found):
        inner, conjugator = au.is_inner(A)
        assert (x >= 0) == inner
        assert conjugator is None or t.encode(conjugator) == x


@pytest.mark.parametrize("p, d", [(2, 3), (3, 2), (3, 3), (5, 2)])
def test_bases_are_gl_d_p(p, d):
    blocks = list(oracle._bases(p, d, [(c,) for c in range(1, p**d)], None))
    codes = [row for block in blocks for row in block]
    gl = 1
    for r in range(d):
        gl *= p**d - p**r
    assert len(codes) == gl and {len(row) for row in codes} == {d}
    assert codes == sorted(set(codes))  # distinct, in lexicographic order
    radix = [p**k for k in range(d - 1, -1, -1)]
    for row in codes[:: max(1, gl // 500)]:
        kernel, _ = st._solve_mod_p(p, [[c // r % p for r in radix] for c in row])
        assert d - len(kernel) == d


def _blocks_by_combinations(p, d, part, rows):
    """oracle._bases' blocks, with each partial basis's span rebuilt from all
    p^r combinations of its rows, and at most `rows` rows grown per block."""
    r = len(part[0])
    if r == d:
        yield part
        return
    radix = [p**k for k in range(d - 1, -1, -1)]
    per = max(1, rows // (p**d - p**r))
    for s in range(0, len(part), per):
        grown = []
        for basis in part[s : s + per]:
            vs = [[c // b % p for b in radix] for c in basis]
            span = {
                sum(sum(a * v[k] for a, v in zip(cs, vs)) % p * radix[k] for k in range(d))
                for cs in itertools.product(range(p), repeat=r)
            }
            grown += [basis + (c,) for c in range(p**d) if c not in span]
        yield from _blocks_by_combinations(p, d, grown, rows)


@pytest.mark.parametrize("p, d", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
@pytest.mark.parametrize("rows", [None, 7])
def test_bases_list_gl_d_p_by_brute_force(p, d, rows, monkeypatch):
    # every d x d matrix over F_p, kept when of rank d, in lexicographic
    # order of its row codes; the blocks are those of the spans rebuilt from
    # scratch, also when blocks hold a few rows each
    if rows is not None:
        monkeypatch.setattr(oracle, "_ROWS", rows)
    radix = [p**k for k in range(d - 1, -1, -1)]
    brute = [
        m for m in itertools.product(range(p**d), repeat=d)
        if not st._solve_mod_p(p, [[c // b % p for b in radix] for c in m])[0]
    ]
    part = [(c,) for c in range(1, p**d)]
    blocks = list(oracle._bases(p, d, part, None))
    assert [row for block in blocks for row in block] == brute
    assert blocks == list(_blocks_by_combinations(p, d, part, oracle._ROWS))


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
    assert a.maps == b.maps


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
    assert a.maps == b.maps


def test_missing_defn_tags_rejected():
    # a copy is unvalidated; validate() would refuse this one (see
    # test_validate_requires_def_line_for_frattini_generator)
    P = pgw.load("h27")
    stripped = P.replace(defn={})
    with pytest.raises(pgw.PreconditionFailed):
        pgw.enumerate_automorphisms(stripped, budget=60)


def test_unvalidated_presentation_rejected():
    P = pgw.load("h27")
    raw = P.replace()
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
    gens = P.generators()[: P.minimal_count]
    for t in st.whole_group(P).elements:
        A = au.inner_from(P, t)
        assert oracle._conjugates_by(P, gens, A.images, t)
        assert not oracle._conjugates_by(P, gens, A.images, pgw.mul(P, t, f1))


def test_cross_validation_catches_a_wrong_conjugator(monkeypatch):
    P = pgw.load("h27")
    count = pgw.enumerate_automorphisms(P, budget=60)
    t = get_tables(P)
    conjugators = au._conjugators

    def shifted(P, rows):  # f_1 is not central, so t f_1 conjugates differently
        return [t.mul(c, t.strides[0]) if c >= 0 else -1 for c in conjugators(P, rows)]

    rows = _rows(P, count.maps)
    k, c = next((k, c) for k, c in enumerate(shifted(P, rows)) if c >= 0)
    images = tuple(map(t.decode, rows[k]))  # all n images, though only d are compared
    monkeypatch.setattr(au, "_conjugators", shifted)
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=count)
    assert str(err.value) == f"inner witness {t.decode(c)} does not reproduce {images}"


def _classes(P, rows):
    """The stream's row numbers by twist class, in stream order, and the
    key of the identity's class."""
    classes = collections.defaultdict(list)
    for k, row in enumerate(rows):
        classes[_twist_key(P, row)].append(k)
    return classes, _twist_key(P, tuple(get_tables(P).strides))


def _relabeled(monkeypatch, count, labels):
    """Make the stream's lookup of the inner table return labels."""
    conjugators = au._conjugators

    def relabeled(P, rows):
        found = conjugators(P, rows)
        return list(labels) if len(found) == count.total else found

    monkeypatch.setattr(au, "_conjugators", relabeled)


@pytest.mark.parametrize("case", ["identity-class", "other-class", "swapped"])
def test_cross_validation_catches_a_label_moved_within_a_twist_class(case, monkeypatch):
    # a class holds 3 inner maps of 9.  One inner label moves to a non-inner
    # sibling after the class's first inner row, or two inner rows past the
    # first swap their labels, so the inner tally and (a) still hold, and
    # only the twist proof or its collection can see it
    P = pgw.load("w81")
    count = pgw.enumerate_automorphisms(P)
    t = get_tables(P)
    rows = _rows(P, count.maps)
    found = au._conjugators(P, rows)
    classes, identity = _classes(P, rows)
    inner_classes = [key for key, ks in classes.items() if any(found[k] >= 0 for k in ks)]
    others = [key for key in inner_classes if key != identity]
    ks = classes[identity if case == "identity-class" else others[0]]
    inner = [k for k in ks if found[k] >= 0]
    assert (len(ks), len(inner)) == (9, 3)
    labels = found.copy()
    if case == "swapped":
        bad, label = inner[1], found[inner[2]]
        labels[inner[1]], labels[inner[2]] = label, found[inner[1]]
    else:
        bad, label = next(k for k in ks if found[k] < 0 and k > inner[0]), found[inner[-1]]
        labels[bad], labels[inner[-1]] = label, -1
    _relabeled(monkeypatch, count, labels)
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=count)
    images = tuple(map(t.decode, rows[bad]))
    assert str(err.value) == f"inner witness {t.decode(label)} does not reproduce {images}"


def test_cross_validation_catches_a_wrong_conjugator_past_a_class_first_row(
    demo_group, demo_oracle_count, monkeypatch
):
    # the row is inner, so its twist is an inner one; t f_1 is a conjugator
    # outside its label's coset of Z(G), since f_1 is not central
    P, count = demo_group, demo_oracle_count
    t = get_tables(P)
    rows = _rows(P, count.maps)
    found = au._conjugators(P, rows)
    classes, identity = _classes(P, rows)
    k = next(
        inner[1]
        for key, ks in classes.items()
        if key != identity and len(inner := [k for k in ks if found[k] >= 0]) > 1
    )
    labels = found.copy()
    labels[k] = t.mul(found[k], t.strides[0])
    _relabeled(monkeypatch, count, labels)
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=count)
    images = tuple(map(t.decode, rows[k]))
    assert str(err.value) == f"inner witness {t.decode(labels[k])} does not reproduce {images}"


@pytest.mark.parametrize("name, collected", [("g2187", 89), ("m243", 17), ("w81", 11)])
def test_cross_validation_collects_the_identity_class_and_each_first_row(
    name, collected, request, monkeypatch
):
    # g2187's 729 inner maps fall in 81 classes of 9: the identity's 9 and
    # the first labelled row of each of the other 80 are collected
    P, count = _stream(name, request)
    calls = []
    conjugates_by = oracle._conjugates_by

    def spy(*args):
        calls.append(args)
        return conjugates_by(*args)

    monkeypatch.setattr(oracle, "_conjugates_by", spy)
    assert pgw.cross_validate(P, precomputed=count) is True
    assert len(calls) == collected


@pytest.mark.parametrize("name", ["h27", "m243", "g2187"])
def test_stream_labels_match_is_inner(name, request):
    if name == "g2187":
        P = request.getfixturevalue("demo_group")
        count = request.getfixturevalue("demo_oracle_count")
    else:
        P = pgw.load(name)
        count = pgw.enumerate_automorphisms(P)
    t = get_tables(P)
    rows = _rows(P, count.maps)
    found = au._conjugators(P, rows)
    assert len(found) == count.total
    for A, x in zip(_automorphisms(P, rows), found):
        inner, conjugator = au.is_inner(A)
        assert (x >= 0) == inner
        assert x < 0 or t.decode(x) == conjugator


def test_cross_validation_rejects_a_truncated_stream():
    # every inner map is there, so the inner checks alone would pass
    P = pgw.load("h27")
    count = pgw.enumerate_automorphisms(P, budget=60)
    rows = _rows(P, count.maps)
    inner_only = [x for row, c in zip(rows, au._conjugators(P, rows)) if c >= 0 for x in row]
    short = count.replace(maps=array("i", inner_only))
    with pytest.raises(pgw.Mismatch, match="the stream holds 9 maps, the count says 432"):
        pgw.cross_validate(P, precomputed=short)


@pytest.fixture(scope="module")
def m243_count():
    """m243, which has a witness, and its enumeration, shared by the tests below."""
    P = pgw.load("m243")
    return P, pgw.enumerate_automorphisms(P, budget=300)


def _witness_row(P, count):
    target = tuple(map(get_tables(P).encode, pgw.construct_theorem_witness(P).A.images))
    [k] = [k for k, row in enumerate(_rows(P, count.maps)) if row == target]
    return k


def test_cross_validation_rejects_a_stream_of_the_wrong_width(m243_count):
    P, count = m243_count
    narrow = count.replace(maps=array("i", [x for row in _rows(P, count.maps) for x in row[:-1]]))
    with pytest.raises(pgw.Mismatch, match="a streamed map does not hold 5 images"):
        pgw.cross_validate(P, precomputed=narrow)


@pytest.mark.parametrize("bad", [243, -1])
def test_cross_validation_rejects_an_index_outside_the_group(m243_count, bad):
    P, count = m243_count
    maps = array("i", count.maps)
    maps[-P.n + 2] = bad  # the last row's third image
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=count.replace(maps=maps))
    assert str(err.value) == f"a streamed image is not an element: index {bad} is outside 0..242"


@pytest.mark.parametrize("times", [0, 2])
def test_cross_validation_finds_the_witness_row_once(m243_count, times):
    # the witness's row overwrites, or is overwritten by, another non-inner
    # row, so the total and every inner label stay as they were
    P, count = m243_count
    k = _witness_row(P, count)
    maps, n = array("i", count.maps), P.n
    found = au._conjugators(P, _rows(P, maps))
    other = next(j for j in range(count.total) if j != k and found[j] < 0)
    if times:
        maps[other * n : (other + 1) * n] = maps[k * n : (k + 1) * n]
    else:
        maps[k * n : (k + 1) * n] = maps[other * n : (other + 1) * n]
    target = pgw.construct_theorem_witness(P).A.images
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=count.replace(maps=maps))
    assert str(err.value) == f"witness images {target} appear {times} times in the stream"


@pytest.mark.parametrize(
    "flag, message",
    [(0, "witness does not have order p"), (1, "witness moves the Frattini subgroup")],
)
def test_cross_validation_reads_the_witness_flags(m243_count, monkeypatch, flag, message):
    P, count = m243_count
    name = ("_order_p", "_fixes_phi")[flag]
    flags = getattr(oracle, name)

    def forced(t, rows):
        got = flags(t, rows)
        assert all(got)
        return [False] * len(got)

    monkeypatch.setattr(oracle, name, forced)
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
        if len(found) == count.total:  # the stream, not the witness's own inner test
            j = next(j for j, c in enumerate(found) if c >= 0)
            found[k], found[j] = found[j], -1
        return found

    monkeypatch.setattr(au, "_conjugators", moved)
    monkeypatch.setattr(oracle, "_conjugates_by", lambda P, gens, images, t: True)
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=count)
    assert str(err.value) == "witness is inner under the oracle's copy"


def test_cross_validation_needs_a_bucket_for_the_witness(m243_count):
    P, count = m243_count
    empty = count.replace(order_p_noninner_fixing_frattini=0)
    with pytest.raises(pgw.Mismatch) as err:
        pgw.cross_validate(P, precomputed=empty)
    assert str(err.value) == "order-p non-inner Frattini-fixing bucket is empty despite a witness"


def _comm_sieve(ctx, mins, level):
    """The sieve's relation check as a reference, on numpy index arrays of
    whole indices (mask_reference's view of the tables): every image forced
    by the tag's pow or comm, every relation [a, b] = w by comm and
    f_i^p = w by pow against w by mul, both sides compared on their first
    `level` digits.  The surviving rows are of d minimal images, and at
    level n of all n images, as _sieve returns them."""
    P, d = ctx["P"], ctx["d"]
    t = ref.get_tables(P)
    img = [np.array(col, dtype=np.int64) for col in mins] + [None] * (P.n - d)
    for i in range(d + 1, P.n + 1):
        tag = P.defn[i]
        if tag[0] == "pow":
            img[i - 1] = t.pow(img[tag[1] - 1], P.p)
        else:
            img[i - 1] = t.comm(img[tag[1] - 1], img[tag[2] - 1])
    cut = int(t.strides[level - 1])
    for rel, word, _ in ctx["relations"]:
        if rel[0] == "comm":
            lhs = t.comm(img[rel[1] - 1], img[rel[2] - 1])
        else:
            lhs = t.pow(img[rel[1] - 1], P.p)
        rhs = np.zeros_like(lhs)
        for g, m in word:
            for _ in range(m):
                rhs = t.mul(rhs, img[g - 1])
        ok = lhs // cut == rhs // cut
        img = [x[ok] for x in img]
    return list(zip(*[x.tolist() for x in img[: P.n if level == P.n else d]]))


def _children(ctx, rows, level):
    """The columns of the p^d children of rows of minimal images, each row's
    in lexicographic order of its new digits."""
    s = ctx["t"].strides[level]
    return [
        [x[j] + e[j] * s for x in rows for e in ctx["digits"]] for j in range(ctx["d"])
    ]


def _level_d_nodes(ctx):
    """The columns of the level-d nodes: every basis modulo Phi(G)."""
    P, t, d = ctx["P"], ctx["t"], ctx["d"]
    bases = [b for block in oracle._bases(P.p, d, [(c,) for c in range(1, P.p**d)], None)
             for b in block]
    return [[b[j] * t.strides[d - 1] for b in bases] for j in range(d)]


@pytest.mark.parametrize(
    "name, total", [("h27", 432), ("m243", 486), ("g2187", 4374), ("m3125", 12500)]
)
def test_sieve_matches_the_commutator_form(name, total):
    P = load_group(name)
    ctx = oracle._prepare(P)
    rows = list(zip(*_level_d_nodes(ctx)))
    for level in range(ctx["d"], P.n):
        children = _children(ctx, rows, level)
        rows = oracle._sieve(ctx, children, level + 1, None)
        assert rows == _comm_sieve(ctx, children, level + 1), level + 1
    assert len(rows) == total and {len(row) for row in rows} == {P.n}


def _lift_reference(ctx, mins, level):
    """The lift _lift replaced: every child of every node goes through
    _sieve one level down, in blocks of at most _ROWS children, so each
    child's images are forced on the child itself; yields the rows of n
    images at level n."""
    rows = list(zip(*mins))
    if level == ctx["P"].n:
        yield rows
        return
    per = max(1, oracle._ROWS // len(ctx["digits"]))
    for s in range(0, len(rows), per):
        kept = oracle._sieve(ctx, _children(ctx, rows[s : s + per], level), level + 1, None)
        yield from _lift_reference(ctx, list(zip(*kept)) or [[]] * ctx["d"], level + 1)


@pytest.mark.parametrize("name", sorted(MODELS) + ["m3125"])
def test_lift_matches_the_children_sieve(name):
    P = load_group(name)
    ctx = oracle._prepare(P)
    mins = _level_d_nodes(ctx)
    got = [row for block in oracle._lift(ctx, mins, ctx["d"], None) for row in block]
    assert got == [row for block in _lift_reference(ctx, mins, ctx["d"]) for row in block]
    assert {len(row) for row in got} == {P.n}


def test_lift_level_sizes_g2187(demo_group, monkeypatch):
    sizes = {}
    lift = oracle._lift

    def counting(ctx, nodes, level, deadline):
        sizes[level] = sizes.get(level, 0) + len(nodes[0])
        return lift(ctx, nodes, level, deadline)

    monkeypatch.setattr(oracle, "_lift", counting)
    forced = []
    sieve = oracle._sieve

    def forcing(ctx, mins, level, deadline):
        kept = sieve(ctx, mins, level, deadline)
        if level == ctx["P"].n:
            forced.extend(kept)
        return kept

    monkeypatch.setattr(oracle, "_sieve", forcing)
    ctx = oracle._prepare(demo_group)
    blocks = oracle._lift(ctx, _level_d_nodes(ctx), ctx["d"], None)
    rows = [row for block in blocks for row in block]
    assert len(rows) == 4374
    assert [sizes[k] for k in sorted(sizes)] == [48, 162, 486, 1458, 4374, 4374]
    # the level-7 sieve forces the images of each surviving level-6 node,
    # and its 9 children repeat them
    assert len(forced) == 486 and {len(row) for row in forced} == {demo_group.n}
    assert [row[2:] for row in rows] == [row[2:] for row in forced for _ in range(9)]


# SHA-256 of each map stream as little-endian 4-byte indices: a rework of
# the lift must keep every row, entry and the order of the rows
MAPS_SHA256 = {
    "c3c3": "63bce453590e26d6f23f7ec87dcb1af798bf54e99b25796dcbb8d841f62d4ad7",
    "c9": "d172428474fd4a94425609be35db945eb6d3c5d305aac3637d89c08f1de7064b",
    "g2187": "eb0a81a696bb46f1b535b3c4a9df98dee0a8760feaf65e947882d6de939a35a9",
    "h27": "cf8bedff7861f70bfb39940acbbd7598d1f44e8f91ea5e1a25e442d7a2764641",
    "m16807": "95ee5f2f8c048a7f48945c6751bd79456fb4c541aacdef4f660c7507ccd088e6",
    "m243": "65f97055d1c27a42daae9c4c43b36a7b76cb6c8b17bfbe3e9db16814ef5e6133",
    "m3125": "493307cb756a8332cea778ca84248fa260c53a30a82af285fc88a2b4af0f824b",
    "q8": "bf0ce6c2ce79b49c5e0b0c9d5d883a9b78bbfd91d0e7a685780eeff6c9555388",
    "ut4_3": "19ab562dd017c1f0655367ea7d4f09bf8f247fde06849f86f8a9c8302df3c6f6",
    "w81": "0334b00b85bfc6ef361fd5f54989284dc8f0a27f2631f8dccfec60fdcc4d7415",
    "x27": "41c5cbb9d51fd7525aea85926e4a2420e6204e5439ec5de6a83932d0d4df5758",
}


@pytest.mark.parametrize("name", sorted(MAPS_SHA256))
def test_map_streams_keep_their_bytes(name):
    maps = pgw.enumerate_automorphisms(load_group(name)).maps
    assert hashlib.sha256(np.asarray(maps, dtype="<i4").tobytes()).hexdigest() == MAPS_SHA256[name]


@pytest.mark.parametrize("name", ALL_NAMES + TEXT_NAMES + FAMILY_NAMES)
def test_every_forced_image_is_needed_by_a_sieve_relation(name):
    # the sieve forces f_k's image for the first relation that reads it, and
    # at level n it forces the images no relation reads, so its rows hold
    # every image: the identity's row holds f_1, ..., f_n
    P = load_group(name)
    d = P.minimal_count
    needed = set().union(*(needs for _, _, needs in oracle._relations(P)))
    assert needed <= set(range(d + 1, P.n + 1))
    if name == "g2187":  # f_5 = f_3^3 and f_7 = f_5^3 are forced at level n only
        assert needed == {3, 4, 6}
    ctx = oracle._prepare(P)
    strides = ctx["t"].strides
    for level in range(d + 1, P.n + 1):
        rows = oracle._sieve(ctx, [[x] for x in strides[:d]], level, None)
        assert rows == [tuple(strides[: P.n if level == P.n else d])]


@pytest.mark.parametrize("name", sorted(MODELS) + ["m3125"])
def test_children_share_their_parents_verdict(name):
    # G_{k+1}/G_{k+2} is central in G/G_{k+2}, so at each level the p^d
    # children of a node pass the sieve all together or not at all, exactly
    # when the node itself passes one level down
    P = load_group(name)
    ctx = oracle._prepare(P)
    d, width = ctx["d"], len(ctx["digits"])
    nodes = list(zip(*_level_d_nodes(ctx)))
    for level in range(d, P.n):
        children = _children(ctx, nodes, level)
        kept = {row[:d] for row in oracle._sieve(ctx, children, level + 1, None)}
        passed = [row in kept for row in zip(*children)]
        assert any(passed), level + 1  # the identity's row always passes
        groups = [passed[k : k + width] for k in range(0, len(passed), width)]
        assert all(all(g) or not any(g) for g in groups), level + 1
        columns = [list(c) for c in zip(*nodes)] if nodes else [[]] * d
        alone = {row[:d] for row in oracle._sieve(ctx, columns, level + 1, None)}
        assert [g[0] for g in groups] == [row in alone for row in nodes]
        nodes = [row for row in zip(*children) if row in kept]


@pytest.mark.parametrize("name", sorted(MODELS) + ["m3125", "m16807"])
def test_stream_does_not_depend_on_the_relation_order(name, monkeypatch):
    # the sieve's order of relations only decides which relation rejects a
    # node first: checked in reverse, it keeps the same nodes
    P = load_group(name)
    a = pgw.enumerate_automorphisms(P)
    prepare = oracle._prepare

    def reversed_relations(P):
        ctx = prepare(P)
        ctx["relations"] = ctx["relations"][::-1]
        return ctx

    monkeypatch.setattr(oracle, "_prepare", reversed_relations)
    b = pgw.enumerate_automorphisms(P)
    assert (a.total, a.inner, a.order_p_noninner_fixing_frattini) == (
        b.total,
        b.inner,
        b.order_p_noninner_fixing_frattini,
    )
    assert a.maps == b.maps


def _relation_keys(P):
    """For each sieve relation, in the sieve's order: (needs an image forced
    by a commutator, reads past f_d, highest generator read, place in the
    certificate's plan)."""
    plan = [entry.rel for entry in au._relation_plan(P)]
    keys = []
    for rel, word, needs in oracle._relations(P):
        highest = max(rel[1:] + tuple(g for g, _ in word))
        by_comm = any(P.defn[k][0] == "comm" for k in needs)
        keys.append((by_comm, highest > P.minimal_count, highest, plan.index(rel)))
    return keys


@pytest.mark.parametrize("name", sorted(MODELS) + ["m3125", "m16807", "ut4_3"])
def test_relations_put_the_power_forced_ones_first(name):
    # a stable partition of the order by the highest generator read: the
    # relations whose forced images are all p-th powers come first
    P = load_group(name)
    keys = _relation_keys(P)
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    defining = {tag: ((k, 1),) for k, tag in P.defn.items()}
    plan = au._relation_plan(P)
    assert sorted(k[3] for k in keys) == [
        i for i, e in enumerate(plan) if defining.get(e.rel) != e.word
    ]
    if name == "ut4_3":  # every forced image is a commutator: the partition moves nothing
        assert [k[1:] for k in keys] == sorted(k[1:] for k in keys)
    if name == "g2187":  # S is f_2^3 = f_3 and f_6^3 = 1; f_3 = [f_2, f_1]
        assert [rel for rel, _, _ in oracle._relations(P)] == [("pow", 6), ("pow", 2)]


def test_sieve_products_on_g2187(monkeypatch):
    # the sieve checks S, f_6^3 = 1 and then f_2^3 = f_3, so it forces
    # f_3 = [f_2, f_1] only on the rows that pass f_6^3 = 1, and f_5 and f_7
    # only at the last level: 12,108 table products for the whole
    # enumeration, the table of conjugation images' 98 included
    P = pgw.validate(pgw.load("g2187").replace())  # a copy with no memo filled yet
    t = get_tables(P)
    calls = [0]
    mul = type(t).mul

    def spy(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(type(t), "mul", spy)
    count = pgw.enumerate_automorphisms(P)
    assert (count.total, count.inner, calls[0]) == (4374, 729, 12108)


@pytest.mark.parametrize("budget", [float("nan"), -1, "5", True, False], ids=repr)
def test_budget_must_be_a_number_at_least_zero(budget):
    with pytest.raises(ValueError, match="budget must be a number of seconds >= 0"):
        pgw.enumerate_automorphisms(pgw.load("m243"), budget=budget)


def test_infinite_budget_in_workers():
    # the parent waits on the workers in slices, so no deadline is too far
    P = pgw.load("m243")
    count = pgw.enumerate_automorphisms(P, budget=float("inf"), jobs=2)
    assert (count.total, count.inner) == (486, 81)
    assert count.maps == pgw.enumerate_automorphisms(P).maps


@pytest.mark.parametrize("jobs", [0, -3, 1.5, "2", True, False], ids=repr)
def test_jobs_must_be_an_integer_at_least_one(jobs):
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        pgw.enumerate_automorphisms(pgw.load("h27"), jobs=jobs)


def test_one_job_counts_h27():
    assert pgw.enumerate_automorphisms(pgw.load("h27"), jobs=1).total == 432


@pytest.mark.parametrize("jobs", [1, 2])
def test_presentation_freed_after_the_whole_pipeline(jobs):
    # every stage keeps its results on the presentation, and the oracle hands
    # its state to the workers as an argument, so once the caller drops P
    # and what it got back, nothing is left holding P
    text = importlib.resources.files("pgw").joinpath("data/m243.pg").read_text()
    P = groupfile.parse_text(text).presentation
    report = pgw.check_theorem_hypotheses(P)
    witness = au.construct_theorem_witness(P)
    count = pgw.enumerate_automorphisms(P, jobs=jobs)
    assert report.theorem_applicable and oracle.cross_validate(P, count)
    ref = weakref.ref(P)
    del P, report, witness, count
    gc.collect()
    assert ref() is None
