"""Shared fixtures: independent integer models of every packaged group.

Each model is plain tuple arithmetic with no code shared with the package,
so agreement between a model and the collected presentation is a genuine
two-route check.  assert_isomorphic walks the product graph of (model,
presentation) from the generator pairing and fails on any inconsistency.
"""

import pytest

import pgw
from pgw import groupfile


def mul_c9(a, b):
    return (a + b) % 9


def mul_c3c3(a, b):
    return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3)


def mul_h27(x, y):
    a, b, c = x
    d, e, f = y
    return ((a + d) % 3, (b + e) % 3, (c + f + b * d) % 3)


def mul_x27(x, y):
    a, b = x
    c, d = y
    return ((a + c * pow(7, b, 9)) % 9, (b + d) % 3)


def mul_w81(x, y):
    i, v = x
    j, w = y
    sv = v[-j % 3:] + v[:-j % 3]
    return ((i + j) % 3, tuple((sv[k] + w[k]) % 3 for k in range(3)))


def mul_metacyclic(p):
    """C_{p^3} x| C_{p^2}, the generator of the second factor acting as
    k -> (1 + p) k: m243 at p = 3, and the FAMILY text below at any p."""

    def mul(x, y):
        a, b = x
        c, d = y
        return ((a + c * pow(1 + p, b, p**3)) % p**3, (b + d) % p**2)

    return mul


def mul_g2187(x, y):
    s, t = x
    u, v = y
    return ((s + u) % 27, (t * pow(4, u, 81) + v) % 81)


def mul_q8(x, y):
    a, b = x
    c, d = y
    extra = 2 if (b and d) else 0
    return ((a + c * pow(3, b, 4) + extra) % 4, (b + d) % 2)


# name -> (mul, identity, model images of f_1..f_n)
MODELS = {
    "c9": (mul_c9, 0, [1, 3]),
    "c3c3": (mul_c3c3, (0, 0), [(1, 0), (0, 1)]),
    "h27": (mul_h27, (0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "x27": (mul_x27, (0, 0), [(0, 1), (1, 0), (3, 0)]),
    "w81": (
        mul_w81,
        (0, (0, 0, 0)),
        [(1, (0, 0, 0)), (0, (1, 0, 0)), (0, (2, 1, 0)), (0, (1, 1, 1))],
    ),
    "m243": (mul_metacyclic(3), (0, 0), [(1, 0), (0, 1), (3, 0), (0, 3), (9, 0)]),
    "g2187": (
        mul_g2187,
        (0, 0),
        [(1, 0), (0, 1), (0, 3), (3, 0), (0, 9), (9, 0), (0, 27)],
    ),
    "q8": (mul_q8, (0, 0), [(1, 0), (0, 1), (2, 0)]),
}

ALL_NAMES = tuple(MODELS)

# C_{p^3} x| C_{p^2}, the generator of the second factor acting by 1 + p: m243's
# text with p - 1 in place of 2.  Not shipped; parse_text runs the full
# consistency battery on it.
FAMILY = """name m{order}
p {p}
n 5
pow 1 = g3^1
pow 2 = g4^1
pow 3 = g5^1
comm 2 1 = g3^1 g5^{q}
comm 3 2 = g5^{q}
comm 4 1 = g5^1
def 3 = pow 1
def 4 = pow 2
def 5 = pow 3
"""
FAMILY_NAMES = ("m3125", "m16807")  # p = 5 and p = 7


def load_group(name):
    """A shipped group by name, or a FAMILY member parsed from its text."""
    if name in FAMILY_NAMES:
        p = {"m3125": 5, "m16807": 7}[name]
        text = FAMILY.format(order=p**5, p=p, q=p - 1)
        return groupfile.parse_text(text, source=name).presentation
    return pgw.load(name)


def assert_isomorphic(P, mul, one, gen_images):
    """Pair model elements with presentation elements by BFS and check that
    multiplication by each generator agrees on every pair."""
    assert len(gen_images) == P.n
    pair = {one: pgw.identity(P)}
    frontier = [one]
    gens = list(zip(gen_images, P.generators()))
    while frontier:
        nxt = []
        for x in frontier:
            for gm, gp in gens:
                ym = mul(x, gm)
                yp = pgw.mul(P, pair[x], gp)
                if ym in pair:
                    assert pair[ym] == yp, f"pairing clash at {ym}"
                else:
                    pair[ym] = yp
                    nxt.append(ym)
        frontier = nxt
    assert len(pair) == P.order, "model and presentation have different orders"
    assert len(set(pair.values())) == len(pair)
    return pair


@pytest.fixture(scope="session")
def demo_group():
    return pgw.demo()


@pytest.fixture(scope="session")
def demo_oracle_count(demo_group):
    """One full enumeration of Aut for the demo group, shared by every test
    that needs it (it is the expensive step)."""
    return pgw.enumerate_automorphisms(demo_group, budget=600, jobs=1)


def model_order(name):
    mul, one, gens = MODELS[name]
    seen = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)
