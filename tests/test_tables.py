"""Index algebra against direct collection, on scalars and on index arrays."""

import random

import numpy as np
import pytest

import pgw
from pgw import tables

import mask_reference as ref
from conftest import ALL_NAMES, FAMILY_NAMES, load_group


def _nf(t, x):
    """The normal form of index x as a plain exponent tuple."""
    return tuple(t.decode(x).tolist())


def _samples(t, seed, k=300):
    rng = random.Random(seed)
    return [rng.randrange(t.N) for _ in range(k)], [rng.randrange(t.N) for _ in range(k)]


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_columns_match_collection(name):
    # the tables are built from the relations alone; every column x -> x f_k
    # must agree with the pure collector on every element
    P = load_group(name)
    t = tables.get_tables(P)
    elements = [tuple(e) for e in t.decode(t.all).tolist()]
    for k, g in enumerate(P.generators()):
        want = t.encode([pgw.mul(P, e, g) for e in elements])
        assert t.R[k, 1].tolist() == want.tolist(), f"column of f_{k + 1}"


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_table_matches_collection(name):
    P = load_group(name)
    t = tables.get_tables(P)
    xs, ys = _samples(t, 13)
    prods = t.mul(np.array(xs), np.array(ys))
    for a, b, ab in zip(xs, ys, prods):
        want = t.encode(pgw.mul(P, _nf(t, a), _nf(t, b)))
        assert t.mul(a, b) == want
        assert ab == want


@pytest.mark.parametrize("name", ["c9", "q8", "g2187", "m3125"])
def test_encode_decode_round_trip(name):
    P = load_group(name)
    t = tables.get_tables(P)
    vectors = t.decode(t.all)
    assert vectors.shape == (t.N, P.n)
    assert t.encode(vectors).tolist() == t.all.tolist()
    assert _nf(t, 0) == pgw.identity(P)
    for k, g in enumerate(P.generators()):
        assert t.encode(g) == t.strides[k]
        assert _nf(t, t.strides[k]) == g
    top = (P.p - 1,) * P.n
    assert t.encode(top) == t.N - 1
    assert _nf(t, t.N - 1) == top
    assert t.encode([]).tolist() == []


def test_encode_rejects_malformed_tuples():
    P = pgw.load("h27")
    t = tables.get_tables(P)
    for bad in [(0, 1), (0, 1, 2, 0), (0, 0, 3), (0, -1, 0), (0.0, 1.0, 2.0), ((0, 1), (0, 1, 2))]:
        with pytest.raises(ValueError):
            t.encode(bad)
    with pytest.raises(ValueError):
        t.encode([(0, 1, 2), (1, 3, 0)])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_inverse_table(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    invs = t.inv(t.all)
    for i in range(t.N):
        want = t.encode(pgw.inv(P, _nf(t, i)))
        assert invs[i] == want
        assert t.inv(i) == want


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pow_matches_collection(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    xs, _ = _samples(t, 7, k=60)
    for k in (-P.order - 1, -5, -1, 0, 1, 2, P.p, 17, P.order + 3):
        powers = t.pow(np.array(xs), k)
        for a, ak in zip(xs, powers):
            want = t.encode(pgw.pow_(P, _nf(t, a), k))
            assert ak == want
            assert t.pow(a, k) == want


@pytest.mark.parametrize("name", ALL_NAMES)
def test_comm_and_conj_match_collection(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    xs, ys = _samples(t, 3, k=150)
    comms = t.comm(np.array(xs), np.array(ys))
    conjs = t.conj(np.array(xs), np.array(ys))
    for a, b, c, d in zip(xs, ys, comms, conjs):
        ea, eb = _nf(t, a), _nf(t, b)
        assert c == t.comm(a, b) == t.encode(pgw.comm(P, ea, eb))
        assert d == t.conj(a, b) == t.encode(pgw.conj(P, ea, eb))


def test_elements_sorted_lexicographically():
    P = pgw.load("w81")
    t = tables.get_tables(P)
    elements = [tuple(e) for e in t.decode(t.all).tolist()]
    assert elements == sorted(elements)
    assert elements[0] == pgw.identity(P)


@pytest.mark.parametrize("name", ["h27", "x27", "w81"])
def test_pth_power_table(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    pth = t.pow(t.all, P.p)
    for i in range(t.N):
        assert pth[i] == t.encode(pgw.pow_(P, _nf(t, i), P.p))


def test_comm_col_matches_collection():
    # a whole column [x, g] over every x, as the subgroup layer uses it
    P = pgw.load("m243")
    t = tables.get_tables(P)
    rng = random.Random(5)
    for _ in range(20):
        g = rng.randrange(t.N)
        col = t.comm(t.all, g)
        for i in rng.sample(range(t.N), 40):
            assert col[i] == t.encode(pgw.comm(P, _nf(t, i), _nf(t, g)))


def test_closure_mask_matches_bfs():
    P = pgw.load("g2187")
    t = tables.get_tables(P)
    seed = t.encode([P.generator(3), P.generator(6)])
    mask = ref.closure_mask(t, seed)
    H = pgw.closure(P, [P.generator(3), P.generator(6)])
    assert int(mask.sum()) == H.order
    assert {_nf(t, i) for i in np.flatnonzero(mask)} == set(H.elements)


def test_closure_mask_with_identity_and_repeated_seeds():
    P = pgw.load("m243")
    t = tables.get_tables(P)
    gens = list(t.encode(P.generators()))
    assert ref.closure_mask(t, []).tolist() == [True] + [False] * (t.N - 1)
    assert ref.closure_mask(t, gens[:2]).all()
    redundant = [0] + gens[2:] + gens[:2] + list(t.all)
    assert ref.closure_mask(t, redundant).all()


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
    t = tables.get_tables(P)
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
