"""Terminal rendering of a report.

Only --format text imports this module, so a JSON run never compiles it,
and it loads hypotheses only to render a hypotheses section.
"""


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
        from . import hypotheses as hy

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
