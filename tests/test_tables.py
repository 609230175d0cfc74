"""Index algebra against direct collection, and the numpy view of the test
reference (mask_reference) against it."""

import random
import sys

import numpy as np
import pytest

import pgw
from pgw import automorphisms as au
from pgw import tables

import mask_reference as ref
from conftest import ALL_NAMES, FAMILY_NAMES, load_group


def _samples(t, seed, k=300):
    rng = random.Random(seed)
    return [rng.randrange(t.N) for _ in range(k)], [rng.randrange(t.N) for _ in range(k)]


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_columns_match_collection(name):
    # the tables are built from the relations alone; every column x -> x f_k^r
    # must agree with the pure collector on every element
    P = load_group(name)
    t = tables.get_tables(P)
    elements = [t.decode(x) for x in t.all]
    for k, g in enumerate(P.generators()):
        want = elements
        for r in range(P.p):
            assert [t.decode(y) for y in t.R[k][r]] == want, f"column of f_{k + 1}^{r}"
            want = [pgw.mul(P, e, g) for e in want]


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_table_matches_collection(name):
    P = load_group(name)
    t = tables.get_tables(P)
    xs, ys = _samples(t, 13)
    for a, b in zip(xs, ys):
        want = t.encode(pgw.mul(P, t.decode(a), t.decode(b)))
        assert t.mul(a, b) == want
        walked = a
        for col in t.columns(b):
            walked = col[walked]
        assert walked == want


@pytest.mark.parametrize("name", ["c9", "q8", "g2187", "m3125"])
def test_encode_decode_round_trip(name):
    P = load_group(name)
    t = tables.get_tables(P)
    vectors = [t.decode(x) for x in t.all]
    assert all(len(v) == P.n for v in vectors)
    assert [t.encode(v) for v in vectors] == t.all
    assert t.decode(0) == pgw.identity(P)
    for k, g in enumerate(P.generators()):
        assert t.encode(g) == t.strides[k]
        assert t.decode(t.strides[k]) == g
    top = (P.p - 1,) * P.n
    assert t.encode(top) == t.N - 1
    assert t.decode(t.N - 1) == top


def test_encode_rejects_malformed_tuples():
    t = tables.get_tables(pgw.load("h27"))
    for bad, shown in [
        ((0, 1), "[0, 1]"),  # too short
        ((0, 1, 2, 0), "[0, 1, 2, 0]"),  # too long
        ((0, 0, 3), "[0, 0, 3]"),  # a digit out of range
        ((0, -1, 0), "[0, -1, 0]"),
        ((0.0, 1.0, 2.0), "[0.0, 1.0, 2.0]"),  # not integers
        ([], "[]"),
    ]:
        with pytest.raises(ValueError) as err:
            t.encode(bad)
        assert str(err.value) == f"not exponent vectors of length 3 over 0..2: {shown}"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_inverse_table(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    for i in t.all:
        assert t.inv(i) == t.encode(pgw.inv(P, t.decode(i)))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pow_matches_collection(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    xs, _ = _samples(t, 7, k=60)
    for k in (-P.order - 1, -5, -1, 0, 1, 2, P.p, 17, P.order + 3):
        for a in xs:
            assert t.pow(a, k) == t.encode(pgw.pow_(P, t.decode(a), k))


@pytest.mark.parametrize("name", ["h27", "m3125"])
def test_pow_takes_a_square_per_bit_and_a_product_per_further_set_bit(name, monkeypatch):
    t = tables.get_tables(load_group(name))
    mul, products = t.mul, []

    def counting(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(t, "mul", counting)
    for k in (0, 1, 2, 3, 4, 5, 7, 8, 17, t.N + 3, -1, -6):
        products.clear()
        t.pow(t.N - 1, k)
        m = abs(k)
        assert len(products) == max(0, m.bit_length() - 1 + bin(m).count("1") - 1), k


@pytest.mark.parametrize("name", ALL_NAMES + ("m3125",))
def test_fill_builds_the_conjugation_columns_and_the_inner_table(name):
    P = load_group(name)
    t = tables.get_tables(P)
    for fj in t.strides:
        walks = [t.columns(t.conj(fk, fj)) for fk in t.strides]
        assert t.fill(0, walks) == [t.conj(y, fj) for y in t.all]
    least = {}
    for x in t.all:
        least.setdefault(tuple(t.conj(f, x) for f in t.strides), x)
    assert au._inner_table(P) == least


@pytest.mark.parametrize("name", ALL_NAMES)
def test_comm_and_conj_match_collection(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    xs, ys = _samples(t, 3, k=150)
    for a, b in zip(xs, ys):
        ea, eb = t.decode(a), t.decode(b)
        assert t.comm(a, b) == t.encode(pgw.comm(P, ea, eb))
        assert t.conj(a, b) == t.encode(pgw.conj(P, ea, eb))


def test_elements_sorted_lexicographically():
    P = pgw.load("w81")
    t = tables.get_tables(P)
    elements = [t.decode(x) for x in t.all]
    assert elements == sorted(elements)
    assert elements[0] == pgw.identity(P)


@pytest.mark.parametrize("name", ["h27", "x27", "w81"])
def test_pth_power_table(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    for i in t.all:
        assert t.pow(i, P.p) == t.encode(pgw.pow_(P, t.decode(i), P.p))


def test_comm_col_matches_collection():
    # a whole column [x, g] over every x, as the subgroup layer uses it
    P = pgw.load("m243")
    t = tables.get_tables(P)
    rng = random.Random(5)
    for _ in range(20):
        g = rng.randrange(t.N)
        col = [t.comm(x, g) for x in t.all]
        for i in rng.sample(range(t.N), 40):
            assert col[i] == t.encode(pgw.comm(P, t.decode(i), t.decode(g)))


@pytest.mark.parametrize("name", ["g2187", "m16807"])
def test_columns_share_one_int_per_element(name):
    # every entry is the object t.all holds for its value, so the columns
    # cost a pointer per entry and g2187's tables stay under half a megabyte
    P = load_group(name)
    t = tables.get_tables(P)
    for cols in t.R:
        assert cols[0] is t.all
        for col in cols[1:]:
            assert len(col) == t.N and all(v is t.all[v] for v in col)
    assert all(v is t.all[v] for v in t.inverse)
    lists = [t.all, t.inverse] + [col for cols in t.R for col in cols[1:]]
    size = sum(map(sys.getsizeof, lists)) + sum(map(sys.getsizeof, t.all))
    if name == "g2187":
        assert size < 500_000


def test_closure_mask_matches_bfs():
    P = pgw.load("g2187")
    t = ref.get_tables(P)
    seed = t.encode([P.generator(3), P.generator(6)])
    mask = ref.closure_mask(t, seed)
    H = pgw.closure(P, [P.generator(3), P.generator(6)])
    assert int(mask.sum()) == H.order
    assert {tuple(t.decode(i).tolist()) for i in np.flatnonzero(mask)} == set(H.elements)


def test_closure_mask_with_identity_and_repeated_seeds():
    P = pgw.load("m243")
    t = ref.get_tables(P)
    gens = list(t.encode(P.generators()))
    assert ref.closure_mask(t, []).tolist() == [True] + [False] * (t.N - 1)
    assert ref.closure_mask(t, gens[:2]).all()
    redundant = [0] + gens[2:] + gens[:2] + list(t.all)
    assert ref.closure_mask(t, redundant).all()


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_array_view_matches_the_tables(name):
    # the reference's numpy operations agree with pgw's scalar ones
    P = load_group(name)
    t, view = tables.get_tables(P), ref.get_tables(P)
    xs, ys = _samples(t, 11)
    a, b = np.array(xs), np.array(ys)
    assert view.mul(a, b).tolist() == [t.mul(x, y) for x, y in zip(xs, ys)]
    assert view.comm(a, b).tolist() == [t.comm(x, y) for x, y in zip(xs, ys)]
    assert view.conj(a, b).tolist() == [t.conj(x, y) for x, y in zip(xs, ys)]
    assert view.inv(a).tolist() == [t.inv(x) for x in xs]
    assert view.pow(a, P.p).tolist() == [t.pow(x, P.p) for x in xs]
    assert view.decode(a).tolist() == [list(t.decode(x)) for x in xs]
    assert view.encode(view.decode(a)).tolist() == xs


def _closure_mask_reference(t, seeds):
    """The closure BFS closure_mask replaced: one right-multiplication column
    for every distinct nonidentity seed, built up front."""
    cols = [t.mul(t.all, s) for s in dict.fromkeys(map(int, seeds)) if s]
    mask = np.zeros(t.N, dtype=bool)
    mask[0] = True
    frontier = np.flatnonzero(mask)
    while cols and frontier.size:
        fresh = []
        for col in cols:
            prods = col[frontier]
            fresh.append(prods[~mask[prods]])
            mask[fresh[-1]] = True
        frontier = np.concatenate(fresh)
    return mask


@pytest.mark.parametrize("name", ["g2187", "m243"])
def test_closure_mask_builds_at_most_n_columns(name, monkeypatch):
    P = pgw.load(name)
    t = ref.get_tables(P)
    rng = random.Random(f"closure-{name}")
    seed_sets = [
        t.pow(t.all, P.p),  # every p-th power, as agemo seeds it
        t.comm(t.all[:, None], t.strides).ravel(),  # every [x, f_k]
        t.all,
        t.strides[::-1],
        [0, 0],
        [],
    ] + [rng.sample(range(t.N), k) for k in (1, 2, 3, 30)]
    expected = [_closure_mask_reference(t, seeds) for seeds in seed_sets]
    built = []
    mul = t.mul

    def counting(a, b):
        built.append(b)
        return mul(a, b)

    monkeypatch.setattr(t, "mul", counting)
    for seeds, want in zip(seed_sets, expected):
        built.clear()
        assert np.array_equal(ref.closure_mask(t, seeds), want)
        assert len(built) <= P.n
