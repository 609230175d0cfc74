"""Hypothesis checks for the main construction.

A group qualifies for the witness construction when it is an odd-order-p,
non-abelian, monolithic p-group whose maximal subgroups are all non-abelian
and satisfy [Z(M), g] <= Z(G) for every g outside M.  A variant replaces the
maximal-subgroup condition with C_G(Z(Phi(G))) = Phi(G).

[Z(M), g] <= Z(G) holds for M iff Z(M) <= Z_2(G) (see check_zm_condition),
so the diagnostic zm_in_z2 is that verdict per maximal.  The others (Z_2
abelian, rank equalities, ...) are reported but never asserted: they hold
for the interesting examples yet are not part of the hypotheses, so a
qualifying group is free to violate them.
"""

from collections import namedtuple

from . import presentation as pc
from . import structure as st

# the HypothesisReport fields that must all hold for the theorem, and for the corollary
THEOREM = ("p_odd", "nonabelian", "monolithic", "all_maximals_nonabelian", "zm_condition")
COROLLARY = ("p_odd", "monolithic", "corollary_centralizer_condition", "zm_condition")


class HypothesisReport(
    namedtuple(
        "HypothesisReport",
        "p_odd nonabelian monolithic all_maximals_nonabelian zm_condition"
        " zm_counterexample corollary_centralizer_condition diagnostics",
    )
):
    """The verdicts, all bools but zm_counterexample, (maximal index, m, g)
    or None, and the diagnostics dict."""

    __slots__ = ()

    @property
    def theorem_applicable(self):
        return all(getattr(self, name) for name in THEOREM)

    @property
    def corollary_applicable(self):
        return all(getattr(self, name) for name in COROLLARY)

    def to_dict(self):
        d = self._asdict()
        if self.zm_counterexample is not None:
            mi, m, g = self.zm_counterexample
            d["zm_counterexample"] = {"maximal": mi, "m": st.word_str(m), "g": st.word_str(g)}
        d["theorem_applicable"] = self.theorem_applicable
        d["corollary_applicable"] = self.corollary_applicable
        return d


def is_monolithic(P):
    """True iff Z(G) is cyclic of order p (unique minimal normal subgroup)."""
    return st.center(P).order == P.p


def check_zm_condition(P):
    """[Z(M), g] <= Z(G) for every maximal M and every g outside M.

    Returns (verdict, first violating (maximal index, m, g) or None), in the
    order maximals, then m, then g, each lex-least, from generators.  Fix g0
    outside M and take m in Z(M).  For m' in M, [m, m' g0^i] = [m, g0^i],
    and m -> [m, g0] is a homomorphism on Z(M), since its values lie in M,
    which m centralizes.  So the m with [m, g0] in Z(G) form a subgroup B,
    and for them [m, g0^i] = [m, g0]^i is central: no g is bad, so
    [m, G] <= Z(G) and m lies in Z_2(G).  Every other m is bad with g = g0
    and lies outside Z_2(G).  So B is Z(M) intersected with Z_2(G), and the
    first bad m is the lex-least element of Z(M) outside Z_2(G).  Whether g
    is bad for it depends only on g's coset of M, and g is the least of the
    lex-least elements of the bad cosets.
    """
    Z, Z2 = st.center(P), st.second_center(P)
    for mi, (M, zm) in enumerate(zip(st.maximal_subgroups(P), st.maximal_centers(P))):
        m = st.least_outside(zm, Z2)
        if m is None:
            continue
        g0 = next(f for f in P.generators() if f not in M)
        bad = []
        for i in range(1, P.p):
            gi = pc.pow_(P, g0, i)
            if pc.comm(P, m, gi) not in Z:
                bad.append(st.least_in_coset(P, M, gi))
        return False, (mi, m, min(bad))
    return True, None


@pc.memoized
def check_theorem_hypotheses(P):
    """The report for both the theorem and the corollary, memoized per presentation."""
    Z, Z2 = st.center(P), st.second_center(P)
    F = st.frattini(P)
    maxls = st.maximal_subgroups(P)
    zm_ok, zm_ce = check_zm_condition(P)

    z_phi = st.center_of(P, F)
    cent_z_phi = st.centralizer(P, z_phi)

    qf = st.quotient_facts(P, Z2, Z)
    exceeds = st.least_order_p_outside_center(P) is not None

    diagnostics = {
        "z2_abelian": st.is_abelian(P, Z2),
        "z2_in_z_phi": Z2 <= z_phi,
        "zm_in_z2": [zm <= Z2 for zm in st.maximal_centers(P)],
        "z2_mod_z_elementary": qf["elementary_abelian"],
        "rank_z2_mod_z": qf["rank"],
        "rank_g": st.rank(P),
        "omega1_z2_exceeds_center": exceeds,
    }
    return HypothesisReport(
        p_odd=P.p % 2 == 1,
        nonabelian=not st.is_abelian(P),
        monolithic=is_monolithic(P),
        all_maximals_nonabelian=all(not st.is_abelian(P, M) for M in maxls),
        zm_condition=zm_ok,
        zm_counterexample=zm_ce,
        corollary_centralizer_condition=cent_z_phi == F,
        diagnostics=diagnostics,
    )
