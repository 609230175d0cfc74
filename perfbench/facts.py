"""Known facts about the shipped groups, and the checks of CLI reports against them.

The structural columns come from the corpus table in the package README, the
automorphism counts from the oracle tests (plus 4374/729/18 for the demo
group g2187).  A check returns a list of problems; an empty list means the
operation's output is correct.
"""

import json

# name: order, nilpotency class, rank, theorem applicable
STRUCTURE = {
    "c9": (9, 1, 1, False),
    "c3c3": (9, 1, 2, False),
    "h27": (27, 2, 2, False),
    "x27": (27, 2, 2, False),
    "w81": (81, 3, 2, False),
    "q8": (8, 2, 2, False),
    "m243": (243, 3, 2, True),
    "g2187": (2187, 4, 2, True),
}

# name: |Aut(G)|, inner, order-p non-inner Frattini-fixing bucket (None = not pinned)
AUT_COUNTS = {
    "c9": (6, 1, None),
    "c3c3": (48, 1, None),
    "h27": (432, 9, None),
    "x27": (54, 9, None),
    "w81": (324, 27, 18),
    "q8": (24, 4, None),
    "m243": (486, 81, 18),
    "g2187": (4374, 729, 18),
}

# the README's witness for the demo group: f2 -> f2 f6, every other generator fixed
WITNESS_IMAGES = {
    "g2187": ["g1^1", "g2^1 g6^1", "g3^1", "g4^1", "g5^1", "g6^1", "g7^1"],
}


def order(name):
    return STRUCTURE[name][0]


def broken():
    """A copy of STRUCTURE with one deliberately wrong fact, for self-tests."""
    wrong = dict(STRUCTURE)
    o, c, r, ok = wrong["c9"]
    wrong["c9"] = (o + 1, c, r, ok)
    return wrong


def strip_timing(report):
    """The report text without its timing section, the part that must repeat."""
    return json.dumps({k: v for k, v in report.items() if k != "timing"}, indent=2)


def check_construct(name, code, report, structure=STRUCTURE):
    o, cls, rank, applicable = structure[name]
    want_code = 0 if applicable else 1
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    g = report["group"]
    for key, want in (("order", o), ("nilpotency_class", cls), ("rank", rank)):
        if g.get(key) != want:
            problems.append(f"group.{key} = {g.get(key)}, expected {want}")
    h = report.get("hypotheses") or {}
    if h.get("theorem_applicable") is not applicable:
        problems.append(
            f"theorem_applicable = {h.get('theorem_applicable')}, expected {applicable}"
        )
    if applicable:
        v = report.get("verification") or {}
        if not (v.get("certified") and v.get("is_inner") is False
                and v.get("fixes_frattini_elementwise")):
            problems.append(f"witness verification section is {v}")
    want_images = WITNESS_IMAGES.get(name)
    if want_images is not None:
        got = (report.get("witness") or {}).get("images")
        if got != want_images:
            problems.append(f"witness images {got}, expected {want_images}")
    return problems


def check_count(name, code, report, structure=STRUCTURE):
    total, inner, bucket = AUT_COUNTS[name]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if report["group"].get("order") != structure[name][0]:
        problems.append(f"group.order = {report['group'].get('order')}, "
                        f"expected {structure[name][0]}")
    o = report.get("oracle") or {}
    if o.get("total") != total or o.get("inner") != inner:
        problems.append(f"oracle total/inner = {o.get('total')}/{o.get('inner')}, "
                        f"expected {total}/{inner}")
    if bucket is not None and o.get("order_p_noninner_fixing_frattini") != bucket:
        problems.append(f"order-p bucket = {o.get('order_p_noninner_fixing_frattini')}, "
                        f"expected {bucket}")
    if o.get("cross_validated") is not True:
        problems.append(f"cross_validated = {o.get('cross_validated')}")
    return problems


CHECKS = {"construct": check_construct, "count": check_count}
