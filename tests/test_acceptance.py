"""Acceptance gate: one pass/fail line per criterion (run with pytest -s).

1. built-in demo walkthrough reproduced exactly, under 60 s, no oracle
2. oracle on the demo group: 4374 total, 729 inner, under 600 s
3. universal invariants on every corpus group, incl. 500+ expansion triples
4. extension lemma on every valid (M, g, u) triple (exhaustive <= 3^4)
5. oracle cross-validation: inner index, totient check, agreement with the
   exhaustive route of tests/oracle_reference.py
6. byte-identical reports across runs and across --jobs 1 vs --jobs 8
"""

import json
import math
import random
import time

import numpy as np

import pgw
from pgw import automorphisms as au
from pgw import cli
from pgw import structure as st


CORPUS = list(pgw.CORPUS_NAMES)
SMALL = [n for n in CORPUS if pgw.load(n).order <= 3**4]
LARGE = [n for n in CORPUS if pgw.load(n).order > 3**4]


def _report(n, task):
    try:
        detail = task()
    except BaseException as e:
        print(f"criterion {n} FAIL: {type(e).__name__}: {e}")
        raise
    print(f"criterion {n} PASS: {detail}")


def test_criterion_1_demo_reproduction(capsys):
    t0 = time.monotonic()
    code = cli.main(["demo"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out

    def task():
        assert code == 0, f"demo exited {code}"
        checks = sum(1 for l in out.splitlines() if l.startswith("ok: "))
        assert checks >= 20
        assert elapsed <= 60, f"demo took {elapsed:.1f}s"
        return f"all {checks} demo facts reproduced in {elapsed:.1f}s (limit 60s)"

    with capsys.disabled():
        _report(1, task)


def test_criterion_2_oracle_demo_count(demo_oracle_count):
    def task():
        c = demo_oracle_count
        assert c.total == 4374, f"total {c.total} != 4374"
        assert c.inner == 729, f"inner {c.inner} != 729"
        assert c.elapsed <= 600, f"enumeration took {c.elapsed:.0f}s"
        return (
            f"demo group has {c.total} automorphisms, {c.inner} inner "
            f"({c.elapsed:.1f}s, limit 600s)"
        )

    _report(2, task)


def _expansion_triples(P, want):
    rng = random.Random(97)
    Z2 = pgw.second_center(P)
    elems = st.whole_group(P).elements
    one = pgw.identity(P)
    done = 0
    while done < want:
        x = Z2.elements[rng.randrange(Z2.order)]
        y = elems[rng.randrange(len(elems))]
        n = rng.randrange(1, 2 * P.p + 1)
        c = pgw.comm(P, y, x)
        lhs = pgw.pow_(P, pgw.mul(P, x, y), n)
        rhs = pgw.mul(
            P,
            pgw.mul(P, pgw.pow_(P, x, n), pgw.pow_(P, y, n)),
            pgw.pow_(P, c, n * (n - 1) // 2),
        )
        assert lhs == rhs, (x, y, n)
        cxy = pgw.comm(P, x, y)
        a = pgw.comm(P, pgw.pow_(P, x, n), y)
        b = pgw.pow_(P, cxy, n)
        d = pgw.comm(P, x, pgw.pow_(P, y, n))
        assert a == b == d, (x, y, n)
        done += 1
    assert done >= want
    return done


def test_criterion_3_universal_invariants():
    def task():
        triples = 0
        for name in CORPUS:
            P = pgw.load(name)
            Z = pgw.center(P)
            Z2 = pgw.second_center(P)
            D = pgw.derived(P)
            assert pgw.commutator_subgroup(P, Z2, D).order == 1, f"{name}: Grun"
            ez = pgw.exponent(P, Z)
            for g in Z2.elements:
                assert pgw.pow_(P, g, ez) in Z, f"{name}: exp bound"
            F = pgw.frattini(P)
            agd = pgw.closure(P, pgw.agemo(P).elements + D.elements)
            assert agd == F, f"{name}: Phi != G^p G'"
            ms = pgw.maximal_subgroups(P)
            inter = set(ms[0].elements)
            for M in ms[1:]:
                inter &= set(M.elements)
            assert inter == set(F.elements), f"{name}: Phi != intersection"
            d = pgw.rank(P, st.whole_group(P))
            assert len(ms) == (P.p**d - 1) // (P.p - 1), f"{name}: maximal count"
            triples += _expansion_triples(P, 500)
        return (
            f"Grun, exponent bound, Frattini agreement, maximal count hold on "
            f"{len(CORPUS)} groups; {triples} expansion triples checked"
        )

    _report(3, task)


def _valid_triples_exhaustive(P):
    elems = st.whole_group(P).elements
    for M in st.maximal_subgroups(P):
        ZM = st.center_of(P, M)
        for g in elems:
            if g in M:
                continue
            gp = pgw.pow_(P, g, P.p)
            for u in ZM.elements:
                if pgw.pow_(P, pgw.mul(P, g, u), P.p) == gp:
                    yield M, g, u


def _valid_triples_sampled(P, want):
    rng = random.Random(193)
    ms = st.maximal_subgroups(P)
    centers = [st.center_of(P, M) for M in ms]
    elems = st.whole_group(P).elements
    found = 0
    while found < want:
        k = rng.randrange(len(ms))
        M, ZM = ms[k], centers[k]
        g = elems[rng.randrange(len(elems))]
        if g in M:
            continue
        u = ZM.elements[rng.randrange(ZM.order)]
        if pgw.pow_(P, pgw.mul(P, g, u), P.p) != pgw.pow_(P, g, P.p):
            continue
        yield M, g, u
        found += 1


def test_criterion_4_extension_lemma():
    def task():
        stats = []
        for name in CORPUS:
            P = pgw.load(name)
            if P.order <= 3**4:
                triples = _valid_triples_exhaustive(P)
                label = "exhaustive"
            else:
                triples = _valid_triples_sampled(P, 200)
                label = "sampled"
            count = 0
            for M, g, u in triples:
                A = au.extend_to_automorphism(P, M, g, u)
                assert au.fixes_elementwise(A, M), f"{name}: moved M"
                assert P.p % au.aut_order(A) == 0, f"{name}: order"
                count += 1
            if label == "sampled":
                assert count >= 200
            stats.append(f"{name} {count} {label}")
        return "every valid (M, g, u) extends, fixes M, order divides p: " + ", ".join(
            stats
        )

    _report(4, task)


def test_criterion_5_oracle_cross_validation(demo_oracle_count, unpruned_reference):
    def task():
        for name in CORPUS:
            P = pgw.load(name)
            if name == "g2187":
                c = demo_oracle_count
            else:
                c = pgw.enumerate_automorphisms(P, budget=300)
            assert c.inner * pgw.center(P).order == P.order, f"{name}: inner index"
        totient = sum(1 for k in range(1, 9) if math.gcd(k, 9) == 1)
        c9_total = pgw.enumerate_automorphisms(pgw.load("c9"), budget=60).total
        assert c9_total == totient == 6, "c9 totient"
        for name in SMALL:
            P = pgw.load(name)
            a = pgw.enumerate_automorphisms(P, budget=300)
            total, inner, bucket, maps = unpruned_reference(name)
            tallies = (a.total, a.inner, a.order_p_noninner_fixing_frattini)
            assert tallies == (total, inner, bucket), f"{name}: oracle != reference tallies"
            assert a.maps == maps, f"{name}: oracle != reference maps"
        return (
            f"inner = |G/Z| on {len(CORPUS)} groups; c9 total = totient(9) = 6; "
            f"oracle == exhaustive reference on {len(SMALL)} small groups"
        )

    _report(5, task)


def _stripped(path):
    rep = json.loads(path.read_text())
    rep.pop("timing")
    return json.dumps(rep, indent=2)


def test_criterion_6_report_determinism(capsys, tmp_path):
    runs = {
        "a": ["count", _data("m243"), "--jobs", "1"],
        "b": ["count", _data("m243"), "--jobs", "1"],
        "c": ["count", _data("m243"), "--jobs", "8"],
        "d": ["construct"],
        "e": ["construct"],
    }
    codes = {
        tag: cli.main(argv + ["--report", str(tmp_path / f"{tag}.json")])
        for tag, argv in runs.items()
    }
    capsys.readouterr()

    def task():
        for tag, code in codes.items():
            assert code == 0, f"{tag} exited {code}"
        a, b, c = (_stripped(tmp_path / f"{t}.json") for t in "abc")
        d, e = (_stripped(tmp_path / f"{t}.json") for t in "de")
        assert a == b, "same-flag runs differ"
        assert a == c, "--jobs 1 vs --jobs 8 differ"
        assert d == e, "construct runs differ"
        return (
            "count reports byte-identical across runs and --jobs 1 vs 8; "
            "construct reports byte-identical across runs (timing excluded)"
        )

    with capsys.disabled():
        _report(6, task)


def _data(name):
    import importlib.resources

    return str(importlib.resources.files("pgw").joinpath(f"data/{name}.pg"))


def test_theorem_property_on_applicable_groups():
    # not one of the numbered criteria: every corpus group whose hypothesis
    # check passes must yield a certified witness, and an inner one is a
    # hard failure
    def task():
        applicable = []
        for name in CORPUS:
            P = pgw.load(name)
            if not pgw.check_theorem_hypotheses(P).theorem_applicable:
                continue
            applicable.append(name)
            w = pgw.construct_theorem_witness(P)
            assert au.aut_order(w.A) == P.p
            inner, t = au.is_inner(w.A)
            assert not inner, f"{name}: InnerWitnessFound t={t}"
            assert au.fixes_elementwise(w.A, pgw.frattini(P))
        assert applicable == ["m243", "g2187"]
        return f"witness certified non-inner on all applicable groups: {applicable}"

    _report("T", task)
