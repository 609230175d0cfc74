"""Run reports.

A report is a JSON object with the fixed top-level keys group, hypotheses,
witness, verification, oracle, timing, in that order.  Keys inside each
section are sorted, subgroup generator lists follow the canonical subgroup
ordering, and every number outside the timing section is a decimal integer,
so two runs over the same input produce byte-identical text once the timing
section is dropped.  render.render_text renders a report for the terminal.
"""

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
    import json  # here, so a text run without --report never loads it

    ordered = {k: rep.get(k) for k in TOP_KEYS}
    return json.dumps(ordered, indent=2) + "\n"
