"""Run reports.

A report is a JSON object with the fixed top-level keys group, hypotheses,
witness, verification, oracle, timing, in that order.  Keys inside each
section are sorted, subgroup generator lists follow the canonical subgroup
ordering, and every number outside the timing section is a decimal integer,
so two runs over the same input produce byte-identical text once the timing
section is dropped.
"""

from __future__ import annotations

import json

from . import hypotheses as hy
from . import structure as st

TOP_KEYS = ("group", "hypotheses", "witness", "verification", "oracle", "timing")


def _canon(x):
    """Plain JSON-safe copy with sorted dict keys; tuples become lists."""
    if isinstance(x, dict):
        return {str(k): _canon(x[k]) for k in sorted(x, key=str)}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x


def _subgroup_entry(P, H, Z=None):
    """H's generators, order and abelianness, and its center Z when given."""
    entry = {
        "generators": [st.word_str(g) for g in H.gens],
        "order": H.order,
        "abelian": st.is_abelian(P, H),
    }
    if Z is not None:
        entry["center_generators"] = [st.word_str(g) for g in Z.gens]
        entry["center_order"] = Z.order
    return entry


def group_section(P):
    Z = st.center(P)
    F = st.frattini(P)
    return {
        "name": P.name,
        "p": P.p,
        "n": P.n,
        "order": P.order,
        "nilpotency_class": st.nilpotency_class(P),
        "rank": st.rank(P),
        "exponent": st.exponent(P),
        "center": _subgroup_entry(P, Z),
        "frattini": _subgroup_entry(P, F),
        "maximal_subgroups": [
            _subgroup_entry(P, M, ZM)
            for M, ZM in zip(st.maximal_subgroups(P), st.maximal_centers(P))
        ],
    }


def witness_section(P, w):
    return {
        "u": st.word_str(w.u),
        "g": st.word_str(w.g),
        "maximal_generators": [st.word_str(m) for m in w.M.gens],
        "images": [st.word_str(w.A.images[i]) for i in range(P.n)],
    }


def verification_section(P):
    """The certificate of a witness of P: construct_theorem_witness returns
    one only when it is an automorphism of order p that is not inner and
    fixes Phi(G) and M elementwise, and raises otherwise."""
    return {
        "certified": True,
        "order": P.p,
        "is_inner": False,
        "fixes_frattini_elementwise": True,
        "fixes_maximal_elementwise": True,
    }


def oracle_section(count, cross_validated):
    return {
        "total": count.total,
        "inner": count.inner,
        "order_p_noninner_fixing_frattini": count.order_p_noninner_fixing_frattini,
        "cross_validated": cross_validated,
    }


def build(P, *, hypotheses=None, witness=None, verification=None, oracle=None, timing=None):
    """Assemble the six fixed sections; absent sections are null."""
    out = {}
    out["group"] = _canon(group_section(P))
    out["hypotheses"] = _canon(hypotheses)
    out["witness"] = _canon(witness)
    out["verification"] = _canon(verification)
    out["oracle"] = _canon(oracle)
    out["timing"] = timing
    return out


def to_json(rep):
    ordered = {k: rep.get(k) for k in TOP_KEYS}
    return json.dumps(ordered, indent=2) + "\n"


def _fmt_subgroup(entry, label):
    gens = ", ".join(entry["generators"]) if entry["generators"] else "1"
    line = f"{label} = <{gens}>, order {entry['order']}"
    line += ", abelian" if entry["abelian"] else ", non-abelian"
    return line


def render_text(rep):
    """Terminal rendering of a report."""
    lines = []
    g = rep["group"]
    lines.append(
        f"group {g['name']}: p = {g['p']}, {g['n']} pc generators, "
        f"order {g['order']} = {g['p']}^{g['n']}"
    )
    lines.append(
        f"  class {g['nilpotency_class']}, rank {g['rank']}, exponent {g['exponent']}"
    )
    lines.append("  " + _fmt_subgroup(g["center"], "Z(G)"))
    lines.append("  " + _fmt_subgroup(g["frattini"], "Phi(G)"))
    lines.append(f"  {len(g['maximal_subgroups'])} maximal subgroups:")
    for k, m in enumerate(g["maximal_subgroups"], start=1):
        lines.append("    " + _fmt_subgroup(m, f"M{k}"))
        zg = ", ".join(m["center_generators"])
        lines.append(f"      Z(M{k}) = <{zg}>, order {m['center_order']}")
    h = rep["hypotheses"]
    if h is not None:
        lines.append("hypotheses:")
        # each hypothesis once, the theorem's first, then the two verdicts
        for key in (*dict.fromkeys(hy.THEOREM + hy.COROLLARY), "theorem_applicable",
                    "corollary_applicable"):
            lines.append(f"  {key}: {str(h[key]).lower()}")
        if h["zm_counterexample"] is not None:
            ce = h["zm_counterexample"]
            lines.append(
                f"  zm violated at maximal {ce['maximal']}: m = {ce['m']}, g = {ce['g']}"
            )
    w = rep["witness"]
    if w is not None:
        lines.append("witness:")
        lines.append(f"  u = {w['u']}")
        lines.append(f"  M = <{', '.join(w['maximal_generators'])}>")
        lines.append(f"  g = {w['g']}")
        lines.append("  alpha: " + ", ".join(
            f"g{i + 1} -> {img}" for i, img in enumerate(w["images"])
        ))
    v = rep["verification"]
    if v is not None:
        lines.append("verification:")
        lines.append(f"  automorphism certified, order {v['order']}")
        lines.append(f"  is_inner: {str(v['is_inner']).lower()}")
        lines.append(
            f"  fixes_frattini_elementwise: {str(v['fixes_frattini_elementwise']).lower()}"
        )
        lines.append(
            f"  fixes_maximal_elementwise: {str(v['fixes_maximal_elementwise']).lower()}"
        )
    o = rep["oracle"]
    if o is not None:
        lines.append("oracle:")
        lines.append(f"  |Aut(G)| = {o['total']}")
        lines.append(f"  inner = {o['inner']}")
        lines.append(
            f"  order-p non-inner fixing Phi(G) = {o['order_p_noninner_fixing_frattini']}"
        )
        lines.append(f"  cross_validated: {str(o['cross_validated']).lower()}")
    t = rep["timing"]
    if t is not None:
        for key in sorted(t):
            lines.append(f"timing {key}: {t[key]:.3f}s")
    return "\n".join(lines) + "\n"
