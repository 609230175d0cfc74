"""Hypothesis checks across the corpus."""

import importlib.resources

import pytest

import pgw
from pgw import groupfile
from pgw import hypotheses as hy
from pgw import report
from pgw import structure as st

from conftest import ALL_NAMES, FAMILY_NAMES, load_group

# name -> expected theorem_applicable
APPLICABLE = {
    "c9": False,      # abelian
    "c3c3": False,    # abelian, |Z| = 9
    "h27": False,     # abelian maximal subgroups
    "x27": False,     # abelian maximal subgroups (order 9)
    "w81": False,     # abelian base maximal; zm also fails
    "m243": True,
    "g2187": True,
    "q8": False,      # p = 2
}


def test_is_monolithic_examples(demo_group):
    assert hy.is_monolithic(pgw.load("h27"))
    assert not hy.is_monolithic(pgw.load("c3c3"))
    assert not hy.is_monolithic(pgw.load("c9"))
    assert hy.is_monolithic(demo_group)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_theorem_applicability(name):
    rep = pgw.check_theorem_hypotheses(pgw.load(name))
    assert rep.theorem_applicable == APPLICABLE[name]


def test_applicability_formula():
    for name in ALL_NAMES:
        rep = pgw.check_theorem_hypotheses(pgw.load(name))
        assert rep.theorem_applicable == (
            rep.p_odd
            and rep.nonabelian
            and rep.monolithic
            and rep.all_maximals_nonabelian
            and rep.zm_condition
        )
        assert rep.corollary_applicable == (
            rep.p_odd
            and rep.monolithic
            and rep.corollary_centralizer_condition
            and rep.zm_condition
        )


def test_h27_report_details():
    rep = pgw.check_theorem_hypotheses(pgw.load("h27"))
    assert rep.p_odd and rep.nonabelian and rep.monolithic
    assert not rep.all_maximals_nonabelian
    assert rep.zm_condition
    # Phi = <f3> is central, so C_G(Z(Phi)) = G != Phi
    assert not rep.corollary_centralizer_condition


def test_q8_report():
    rep = pgw.check_theorem_hypotheses(pgw.load("q8"))
    assert not rep.p_odd
    assert not rep.theorem_applicable


def test_abelian_groups_fail_nonabelian():
    for name in ("c9", "c3c3"):
        rep = pgw.check_theorem_hypotheses(pgw.load(name))
        assert not rep.nonabelian
        assert rep.zm_condition  # vacuously: every commutator is the identity
        assert not rep.corollary_centralizer_condition


def test_demo_report(demo_group):
    rep = pgw.check_theorem_hypotheses(demo_group)
    assert rep.theorem_applicable
    assert rep.corollary_applicable
    assert rep.zm_counterexample is None
    d = rep.diagnostics
    assert d["z2_abelian"] is True
    assert d["z2_in_z_phi"] is True
    assert d["zm_in_z2"] == [True, True, True, True]
    assert d["z2_mod_z_elementary"] is True
    assert d["rank_z2_mod_z"] == 2
    assert d["rank_g"] == 2
    assert d["omega1_z2_exceeds_center"] is True


def test_w81_zm_counterexample():
    P = pgw.load("w81")
    ok, triple = hy.check_zm_condition(P)
    assert not ok
    assert triple is not None
    mi, m, g = triple
    M = st.maximal_subgroups(P)[mi]
    Z = st.center(P)
    assert m in st.center_of(P, M)
    assert g not in M
    assert pgw.comm(P, m, g) not in Z


def test_zm_condition_deterministic():
    P = pgw.load("w81")
    first = hy.check_zm_condition(P)
    again = hy.check_zm_condition(P)
    assert first == again


@pytest.mark.parametrize("name", ALL_NAMES)
def test_zm_verdict_independent_of_maximal_order(name):
    # recompute the verdict with the maximal subgroups scanned in reverse;
    # the boolean must not depend on enumeration order
    P = pgw.load(name)
    Z = st.center(P)
    verdict = True
    for M in reversed(st.maximal_subgroups(P)):
        ZM = st.center_of(P, M)
        outside = [x for x in st.whole_group(P).elements if x not in M]
        for m in ZM.elements:
            if not verdict:
                break
            for g in outside:
                if pgw.comm(P, m, g) not in Z:
                    verdict = False
                    break
    assert verdict == pgw.check_theorem_hypotheses(P).zm_condition


@pytest.mark.parametrize("name", ALL_NAMES)
def test_remark_abelian_maximal_forces_centralizer_mismatch(name):
    # any group with an abelian maximal subgroup has C_G(Z(Phi)) != Phi
    P = pgw.load(name)
    rep = pgw.check_theorem_hypotheses(P)
    if not rep.all_maximals_nonabelian:
        assert not rep.corollary_centralizer_condition


@pytest.mark.parametrize("name", ALL_NAMES)
def test_corollary_condition_forces_nonabelian_maximals(name):
    rep = pgw.check_theorem_hypotheses(pgw.load(name))
    if rep.corollary_centralizer_condition:
        assert rep.all_maximals_nonabelian


def test_to_dict_shape(demo_group):
    d = pgw.check_theorem_hypotheses(demo_group).to_dict()
    assert set(d) == {
        "p_odd", "nonabelian", "monolithic", "all_maximals_nonabelian",
        "zm_condition", "zm_counterexample", "corollary_centralizer_condition",
        "theorem_applicable", "corollary_applicable", "diagnostics",
    }
    assert d["zm_counterexample"] is None


def test_to_dict_counterexample_words():
    P = pgw.load("w81")
    d = pgw.check_theorem_hypotheses(P).to_dict()
    ce = d["zm_counterexample"]
    assert ce is not None
    assert isinstance(ce["maximal"], int)
    assert isinstance(ce["m"], str) and ce["m"].startswith("g")
    assert isinstance(ce["g"], str)


def test_each_maximal_center_is_built_once(monkeypatch):
    # a fresh parse, so that no cached result of another test is read
    text = importlib.resources.files("pgw").joinpath("data/g2187.pg").read_text()
    P = groupfile.parse_text(text).presentation
    calls = []
    center_of = st.center_of

    def counting(P, H):
        calls.append(H)
        return center_of(P, H)

    monkeypatch.setattr(st, "center_of", counting)
    hy.check_theorem_hypotheses(P)
    report.group_section(P)
    maximals = st.maximal_subgroups(P)
    # Z(M) once per maximal M, and Z(Phi(G)) once for the corollary
    assert len(calls) == len(maximals) + 1
    assert calls[: len(maximals)] == list(maximals)


@pytest.mark.parametrize("name", ALL_NAMES + FAMILY_NAMES)
def test_zm_condition_is_zm_in_z2_for_every_maximal(name):
    # [Z(M), g] <= Z(G) for every g outside M iff Z(M) <= Z_2(G), so the
    # diagnostic zm_in_z2 is the verdict per maximal
    rep = pgw.check_theorem_hypotheses(load_group(name))
    zm_in_z2 = rep.diagnostics["zm_in_z2"]
    assert rep.zm_condition == all(zm_in_z2)
    if rep.zm_condition:
        assert rep.zm_counterexample is None
    else:  # the counterexample comes from the first maximal that fails
        assert rep.zm_counterexample[0] == zm_in_z2.index(False)


def test_w81_zm_counterexample_pinned():
    # the first failing maximal, its lex-least bad m and lex-least bad g
    P = pgw.load("w81")
    assert hy.check_zm_condition(P) == (False, (0, (0, 1, 0, 0), (1, 0, 0, 0)))
    assert pgw.check_theorem_hypotheses(P).diagnostics["zm_in_z2"][0] is False
