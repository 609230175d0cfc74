"""Index algebra against direct collection, on scalars and on index arrays."""

import random

import numpy as np
import pytest

import pgw
from pgw import tables

from conftest import ALL_NAMES


def _samples(t, seed, k=300):
    rng = random.Random(seed)
    return [rng.randrange(t.N) for _ in range(k)], [rng.randrange(t.N) for _ in range(k)]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_table_matches_collection(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    xs, ys = _samples(t, 13)
    prods = t.mul(np.array(xs), np.array(ys))
    for a, b, ab in zip(xs, ys, prods):
        want = pgw.mul(P, t.elem(a), t.elem(b))
        assert t.elem(t.mul(a, b)) == want
        assert t.elem(ab) == want


@pytest.mark.parametrize("name", ALL_NAMES)
def test_inverse_table(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    invs = t.inv(t.all)
    for i, a in enumerate(t.elements):
        assert t.elem(invs[i]) == pgw.inv(P, a)
        assert t.elem(t.inv(i)) == pgw.inv(P, a)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pow_matches_collection(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    xs, _ = _samples(t, 7, k=60)
    for k in (-P.order - 1, -5, -1, 0, 1, 2, P.p, 17, P.order + 3):
        powers = t.pow(np.array(xs), k)
        for a, ak in zip(xs, powers):
            want = pgw.pow_(P, t.elem(a), k)
            assert t.elem(ak) == want
            assert t.elem(t.pow(a, k)) == want


@pytest.mark.parametrize("name", ALL_NAMES)
def test_comm_and_conj_match_collection(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    xs, ys = _samples(t, 3, k=150)
    comms = t.comm(np.array(xs), np.array(ys))
    conjs = t.conj(np.array(xs), np.array(ys))
    for a, b, c, d in zip(xs, ys, comms, conjs):
        ea, eb = t.elem(a), t.elem(b)
        assert t.elem(c) == t.elem(t.comm(a, b)) == pgw.comm(P, ea, eb)
        assert t.elem(d) == t.elem(t.conj(a, b)) == pgw.conj(P, ea, eb)


def test_elements_sorted_lexicographically():
    P = pgw.load("w81")
    t = tables.get_tables(P)
    assert list(t.elements) == sorted(t.elements)
    assert t.elements[0] == pgw.identity(P)


@pytest.mark.parametrize("name", ["h27", "x27", "w81"])
def test_pth_power_table(name):
    P = pgw.load(name)
    t = tables.get_tables(P)
    pth = t.pow(t.all, P.p)
    for i, a in enumerate(t.elements):
        assert t.elem(pth[i]) == pgw.pow_(P, a, P.p)


def test_comm_col_matches_collection():
    # a whole column [x, g] over every x, as the subgroup layer uses it
    P = pgw.load("m243")
    t = tables.get_tables(P)
    rng = random.Random(5)
    for _ in range(20):
        g = rng.randrange(len(t.elements))
        col = t.comm(t.all, g)
        for i in rng.sample(range(len(t.elements)), 40):
            assert t.elem(col[i]) == pgw.comm(P, t.elements[i], t.elements[g])


def test_closure_mask_matches_bfs():
    P = pgw.load("g2187")
    t = tables.get_tables(P)
    seed = [t.idx(P.generator(3)), t.idx(P.generator(6))]
    mask = t.closure_mask(seed)
    H = pgw.closure(P, [P.generator(3), P.generator(6)])
    assert int(mask.sum()) == H.order
    assert {t.elements[i] for i in range(len(t.elements)) if mask[i]} == H.element_set


def test_closure_mask_with_identity_and_repeated_seeds():
    P = pgw.load("m243")
    t = tables.get_tables(P)
    gens = [t.idx(g) for g in P.generators()]
    assert t.closure_mask([]).tolist() == [True] + [False] * (t.N - 1)
    assert t.closure_mask(gens[:2]).all()
    redundant = [0] + gens[2:] + gens[:2] + list(t.all)
    assert t.closure_mask(redundant).all()
