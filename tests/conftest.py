"""Shared fixtures: independent integer models of every packaged group.

The models are the ones scripts/derive_corpus.py derives the shipped .pg
files from; that script is loaded by path and is their only home.  Each is
plain tuple arithmetic with no code shared with the package, so agreement
between a model and the collected presentation is a genuine two-route check.
assert_isomorphic walks the product graph of (model, presentation) from the
generator pairing and fails on any inconsistency.
"""

import importlib.util
import pathlib

import pytest

import pgw
from pgw import groupfile

from oracle_reference import enumerate_unpruned

_spec = importlib.util.spec_from_file_location(
    "derive_corpus", pathlib.Path(__file__).resolve().parents[1] / "scripts" / "derive_corpus.py"
)
derive_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(derive_corpus)

# name -> (mul, identity, model images of f_1..f_n), in JOBS order
MODELS = {name: (mul, one, seq) for name, _, seq, _, mul, one, _ in derive_corpus.JOBS}

ALL_NAMES = tuple(MODELS)

# C_{p^3} x| C_{p^2}, the text of derive_corpus.mul_metacyclic(p)
FAMILY = derive_corpus.FAMILY
FAMILY_NAMES = ("m3125", "m16807")  # p = 5 and p = 7

# groups with d >= 3, which no shipped file has: es3 is 3^{1+4} of exponent
# 3 (d = 4, 40 maximal subgroups), ut4_3 is UT(4, 3) (d = 3, class 3, so
# irregular), c2h has class 2, Phi(G) <= Z(G) and one abelian maximal
UT4_3 = """name ut4_3
p 3
n 6
comm 2 1 = g4^1
comm 3 2 = g5^1
comm 4 3 = g6^2
comm 5 1 = g6^1
def 4 = comm 2 1
def 5 = comm 3 2
def 6 = comm 5 1
"""
TEXTS = {
    "es3": "name es3\np 3\nn 5\ncomm 2 1 = g5^1\ncomm 4 3 = g5^1\ndef 5 = comm 2 1\n",
    "ut4_3": UT4_3,
    "c2h": (
        "name c2h\np 3\nn 5\ncomm 3 1 = g4^1\ncomm 3 2 = g5^1\n"
        "def 4 = comm 3 1\ndef 5 = comm 3 2\n"
    ),
}
TEXT_NAMES = tuple(TEXTS)


def load_group(name):
    """A shipped group by name, or a FAMILY member or a TEXTS group parsed
    from its text."""
    if name in FAMILY_NAMES:
        p = {"m3125": 5, "m16807": 7}[name]
        text = FAMILY.format(order=p**5, p=p, q=p - 1)
        return groupfile.parse_text(text, source=name).presentation
    if name in TEXTS:
        return groupfile.parse_text(TEXTS[name], source=name).presentation
    return pgw.load(name)


def assert_isomorphic(P, mul, one, gen_images):
    """Pair model elements with presentation elements by BFS and check that
    multiplication by each generator agrees on every pair."""
    assert len(gen_images) == P.n
    derive_corpus.check_isomorphic(P, mul, one, gen_images)


def model_order(name):
    mul, one, gens = MODELS[name]
    return len(derive_corpus.bfs_closure(gens, mul, one))


@pytest.fixture(scope="session")
def demo_group():
    return pgw.demo()


@pytest.fixture(scope="session")
def demo_oracle_count(demo_group):
    """One full enumeration of Aut for the demo group, shared by every test
    that needs it (it is the expensive step)."""
    return pgw.enumerate_automorphisms(demo_group, budget=600, jobs=1)


@pytest.fixture(scope="session")
def unpruned_reference():
    """enumerate_unpruned on a shipped group by name, run once per group and
    session: the exhaustive route is slow, and two test files compare the
    oracle with it on the same groups."""
    results = {}

    def reference(name):
        if name not in results:
            total, inner, bucket, maps = enumerate_unpruned(pgw.load(name))
            results[name] = total, inner, bucket, memoryview(maps).toreadonly()
        return results[name]

    return reference
