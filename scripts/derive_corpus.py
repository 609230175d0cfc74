"""Rebuild every shipped .pg file from an independent integer model.

Each corpus group is realized as a concrete arithmetic model (pairs or
triples of residues with an explicit multiplication), a polycyclic sequence
m1..mn is fixed, and the power/commutator relations are read off by peeling
normal-form exponents along the subgroup chain <m_i..m_n>.  The emitted text
must match the shipped data file byte for byte, and the generator map
m_i -> f_i must be an isomorphism onto the parsed presentation.  The tests
load this file by path and read the same models from JOBS, and FAMILY from
beside mul_metacyclic.

Run:  python3 scripts/derive_corpus.py [--write]

--write replaces the shipped files instead of comparing against them.
"""

import argparse
import importlib.resources
import pathlib
import sys

from pgw import groupfile
from pgw import presentation as pc


def bfs_closure(seed, mul, one):
    elems = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in seed:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def derive(name, p, seq, defn, mul, one, minimal):
    """Emit .pg text for the group generated by the pc sequence seq."""
    n = len(seq)
    chains = []
    for i in range(n):
        H = bfs_closure(seq[i:], mul, one)
        assert len(H) == p ** (n - i), (name, i, len(H))
        chains.append(H)
    chains.append({one})

    def inverse(x):
        # x^(ord(x) - 1), by walking the powers of x back to the identity
        prev, y = one, x
        while y != one:
            prev, y = y, mul(y, x)
        return prev

    inv = {x: inverse(x) for x in seq}

    def power(x, k):
        r = one
        for _ in range(k):
            r = mul(r, x)
        return r

    def nf(x):
        # peel e_i with m_i^-e_i * x in <m_{i+1}..m_n>
        out = []
        for i in range(n):
            hit = None
            y = x
            for e in range(p):
                if y in chains[i + 1]:
                    hit = e
                    break
                y = mul(inv[seq[i]], y)
            assert hit is not None, (name, i, x)
            out.append(hit)
            x = y
        assert x == one
        return out

    def word(vec, min_index):
        parts = [f"g{i}^{e}" for i, e in enumerate(vec, start=1) if e]
        for i, e in enumerate(vec, start=1):
            assert e == 0 or i > min_index, (name, vec, min_index)
        return " ".join(parts) if parts else "1"

    lines = [f"name {name}", f"p {p}", f"n {n}"]
    for i in range(1, n + 1):
        vec = nf(power(seq[i - 1], p))
        if any(vec):
            lines.append(f"pow {i} = {word(vec, i)}")
    for i in range(2, n + 1):
        for j in range(1, i):
            a, b = seq[i - 1], seq[j - 1]
            vec = nf(mul(mul(inv[a], inv[b]), mul(a, b)))
            if any(vec):
                lines.append(f"comm {i} {j} = {word(vec, i)}")
    for i, tag in sorted(defn.items()):
        lines.append("def {} = {}".format(i, " ".join(str(t) for t in tag)))
    assert n - len(defn) == minimal, name
    return "\n".join(lines) + "\n"


def check_isomorphic(P, mul, one, seq):
    """Pair the model with the presentation over the product graph: walk it
    by BFS from the generator pairing m_i -> f_i, and fail on any pair that
    multiplication by a generator maps inconsistently."""
    pair = {one: pc.identity(P)}
    frontier = [one]
    gens = list(zip(seq, [P.generator(i) for i in range(1, P.n + 1)]))
    while frontier:
        nxt = []
        for x in frontier:
            for gm, gp in gens:
                ym = mul(x, gm)
                yp = pc.mul(P, pair[x], gp)
                if ym in pair:
                    assert pair[ym] == yp, (P.name, ym)
                else:
                    pair[ym] = yp
                    nxt.append(ym)
        frontier = nxt
    assert len(pair) == P.order, P.name
    assert len(set(pair.values())) == len(pair), P.name


# ---- integer models ----------------------------------------------------

def mul_c9(a, b):
    return (a + b) % 9


def mul_c3c3(a, b):
    return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3)


def mul_h27(x, y):
    # Heisenberg group over F3: unitriangular 3x3 matrices
    a, b, c = x
    d, e, f = y
    return ((a + d) % 3, (b + e) % 3, (c + f + b * d) % 3)


def mul_x27(x, y):
    # C9 : C3 with the order-3 automorphism k -> 7k
    a, b = x
    c, d = y
    return ((a + c * pow(7, b, 9)) % 9, (b + d) % 3)


def mul_w81(x, y):
    # F3^3 : C3, coordinate rotation
    i, v = x
    j, w = y
    sv = v[-j % 3:] + v[:-j % 3]
    return ((i + j) % 3, tuple((sv[k] + w[k]) % 3 for k in range(3)))


def mul_metacyclic(p):
    """C_{p^3} : C_{p^2}, the generator of the second factor acting as
    k -> (1 + p) k: m243 at p = 3, and the FAMILY text below at any p."""

    def mul(x, y):
        a, b = x
        c, d = y
        return ((a + c * pow(1 + p, b, p**3)) % p**3, (b + d) % p**2)

    return mul


# mul_metacyclic(p) as a group file: m243's text with p - 1 in place of 2,
# formatted with order=p**5, p=p, q=p - 1.  Not shipped; parse_text runs the
# full consistency battery on it.
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


def mul_g2187(x, y):
    # C81 : C27 with the order-27 automorphism k -> 4k, written with the
    # C27 part acting; element (s, t) means a^s b^t
    s, t = x
    u, v = y
    return ((s + u) % 27, (t * pow(4, u, 81) + v) % 81)


def mul_q8(x, y):
    # quaternion group as C4 . C2
    a, b = x
    c, d = y
    extra = 2 if (b and d) else 0
    return ((a + c * pow(3, b, 4) + extra) % 4, (b + d) % 2)


JOBS = [
    ("c9", 3, [1, 3], {2: ("pow", 1)}, mul_c9, 0, 1),
    ("c3c3", 3, [(1, 0), (0, 1)], {}, mul_c3c3, (0, 0), 2),
    ("h27", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], {3: ("comm", 2, 1)},
     mul_h27, (0, 0, 0), 2),
    ("x27", 3, [(0, 1), (1, 0), (3, 0)], {3: ("pow", 2)}, mul_x27, (0, 0), 2),
    ("w81", 3, [(1, (0, 0, 0)), (0, (1, 0, 0)), (0, (2, 1, 0)), (0, (1, 1, 1))],
     {3: ("comm", 2, 1), 4: ("comm", 3, 1)}, mul_w81, (0, (0, 0, 0)), 2),
    ("m243", 3, [(1, 0), (0, 1), (3, 0), (0, 3), (9, 0)],
     {3: ("pow", 1), 4: ("pow", 2), 5: ("pow", 3)}, mul_metacyclic(3), (0, 0), 2),
    ("g2187", 3, [(1, 0), (0, 1), (0, 3), (3, 0), (0, 9), (9, 0), (0, 27)],
     {3: ("comm", 2, 1), 4: ("pow", 1), 5: ("pow", 3), 6: ("pow", 4), 7: ("pow", 5)},
     mul_g2187, (0, 0), 2),
    ("q8", 2, [(1, 0), (0, 1), (2, 0)], {3: ("pow", 1)}, mul_q8, (0, 0), 2),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the shipped .pg files instead of comparing")
    args = ap.parse_args()

    data = importlib.resources.files("pgw").joinpath("data")
    failures = 0
    for name, p, seq, defn, mul, one, minimal in JOBS:
        text = derive(name, p, seq, defn, mul, one, minimal)
        gf = groupfile.parse_text(text, source=f"derived:{name}")
        check_isomorphic(gf.presentation, mul, one, seq)
        assert groupfile.serialize(gf.presentation) == text, name
        target = pathlib.Path(str(data.joinpath(f"{name}.pg")))
        if args.write:
            target.write_text(text)
            print(f"{name}: derived, verified, wrote {target}")
        elif target.read_text() == text:
            print(f"{name}: derived text matches shipped file byte for byte")
        else:
            print(f"{name}: MISMATCH against {target}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
