"""Packaged example groups: identities and basic invariants."""

import os
import pathlib
import subprocess
import sys

import pytest

import pgw

from conftest import ALL_NAMES, model_order

EXPECTED = {
    # name: (order, nilpotency class, rank, exponent)
    "c9": (9, 1, 1, 9),
    "c3c3": (9, 1, 2, 3),
    "h27": (27, 2, 2, 3),
    "x27": (27, 2, 2, 9),
    "w81": (81, 3, 2, 9),
    "m243": (243, 3, 2, 27),
    "g2187": (2187, 4, 2, 81),
    "q8": (8, 2, 2, 4),
}


def test_corpus_names():
    assert pgw.CORPUS_NAMES == ("c9", "c3c3", "h27", "x27", "w81", "m243", "g2187")
    assert pgw.DEMO_NAME == "g2187"
    assert pgw.demo() is pgw.load("g2187")


def test_load_is_cached():
    assert pgw.load("h27") is pgw.load("h27")


def test_load_unknown_name():
    with pytest.raises(KeyError):
        pgw.load("nosuch")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_expected_invariants(name):
    P = pgw.load(name)
    order, cls, rk, expo = EXPECTED[name]
    assert P.order == order
    assert pgw.nilpotency_class(P) == cls
    assert pgw.rank(P) == rk
    assert pgw.exponent(P) == expo


@pytest.mark.parametrize("name", ALL_NAMES)
def test_rank_equals_declared_minimal_count(name):
    # rank(P) reads minimal_count; with G passed as a subgroup, Phi(G) is
    # built as a normal closure instead
    P = pgw.load(name)
    assert pgw.rank(P, pgw.closure(P, P.generators())) == P.minimal_count


@pytest.mark.parametrize("name", ALL_NAMES)
def test_order_matches_model(name):
    assert pgw.load(name).order == model_order(name)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_definitions_reproduce_generators(name):
    P = pgw.load(name)
    for i, tag in P.defn.items():
        if tag[0] == "pow":
            got = pgw.pow_(P, P.generator(tag[1]), P.p)
        else:
            got = pgw.comm(P, P.generator(tag[1]), P.generator(tag[2]))
        assert got == P.generator(i)


def test_derive_corpus_matches_shipped_files():
    # scripts/derive_corpus.py rebuilds each .pg file from an integer model
    # with the pgw under test; compare mode writes nothing
    root = pathlib.Path(__file__).resolve().parents[1]
    src = str(pathlib.Path(pgw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "derive_corpus.py")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert sorted(lines) == sorted(
        f"{name}: derived text matches shipped file byte for byte" for name in ALL_NAMES
    )
