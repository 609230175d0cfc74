"""The exhaustive Aut(G) route, kept as a test reference for pgw.oracle.

Every |G|^d tuple of images of the minimal generators f_1..f_d is extended
to f_{d+1}..f_n through the defn tags by collection, then checked against
every pc relation, f_i^p = w and [f_i, f_j] = w, with pow_ and comm, and
kept when the images generate G: by Burnside's basis theorem, when the
first d exponents of the images of f_1..f_d have rank d modulo p, as
validate() makes Phi(G) = <f_{d+1}, ..., f_n>.  It reads neither the
certificate's plan nor the tables, and prunes nothing.  Each kept map is
tallied with is_inner, aut_order and fixes_elementwise, where the oracle
uses its inner table and its row classifier.  On every group the tests run
it on, the oracle's layered lift must return the same counts, tallies and
maps.
"""

import itertools
from array import array

from pgw import automorphisms as au
from pgw import presentation as pc
from pgw import structure as st


def is_automorphism(P, images):
    """True iff the images of f_1..f_n satisfy every pc relation of P and
    generate G."""
    one = pc.identity(P)

    def word(w):
        acc = one
        for g, m in w:
            acc = pc.mul(P, acc, pc.pow_(P, images[g - 1], m))
        return acc

    for i in range(1, P.n + 1):
        if pc.pow_(P, images[i - 1], P.p) != word(P.power_rel[i - 1]):
            return False
        for j in range(1, i):
            if pc.comm(P, images[i - 1], images[j - 1]) != word(P.comm_rel.get((i, j), ())):
                return False
    d = P.minimal_count  # Burnside: onto iff onto G/Phi(G), the first d exponents
    return not st._solve_mod_p(P.p, [x[:d] for x in images[:d]])[0]


def enumerate_unpruned(P):
    """(total, inner, order-p non-inner Phi(G)-fixing, maps) for G: the
    three tallies and the stream of image indices, one automorphism's n
    after another in sorted rows, as an array('i'), as
    oracle.enumerate_automorphisms returns them.  An element's index is its
    mixed-radix value."""
    d = P.minimal_count
    F = st.frattini(P)
    radix = [P.p ** (P.n - 1 - k) for k in range(P.n)]
    total = inner = bucket = 0
    rows = []
    for combo in itertools.product(itertools.product(range(P.p), repeat=P.n), repeat=d):
        images = list(combo) + [None] * (P.n - d)
        for i in range(d + 1, P.n + 1):
            tag = P.defn[i]
            if tag[0] == "pow":
                images[i - 1] = pc.pow_(P, images[tag[1] - 1], P.p)
            else:
                images[i - 1] = pc.comm(P, images[tag[1] - 1], images[tag[2] - 1])
        if not is_automorphism(P, images):
            continue
        A = au.Automorphism(P, tuple(images))
        total += 1
        if au.is_inner(A)[0]:
            inner += 1
        elif au.aut_order(A) == P.p and au.fixes_elementwise(A, F):
            bucket += 1
        rows.append(tuple(sum(e * r for e, r in zip(x, radix)) for x in A.images))
    return total, inner, bucket, array("i", [x for row in sorted(rows) for x in row])
