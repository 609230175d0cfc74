"""The exhaustive Aut(G) route, kept as a test reference for pgw.oracle.

Every |G|^d tuple of images of the minimal generators f_1..f_d goes through
automorphisms.verify, one map at a time; the images of f_{d+1}..f_n are
forced by collection from the defn tags.  No table is read and nothing is
pruned.  Each certified map is tallied with is_inner, aut_order and
fixes_elementwise, where the oracle uses its inner table and its row
classifier.  On every group the tests run it on, the oracle's layered lift
must return the same counts, tallies and maps.
"""

import itertools
from array import array

from pgw import automorphisms as au
from pgw import presentation as pc
from pgw import structure as st
from pgw.errors import NotSurjective, RelationViolated


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
        try:
            A = au.verify(au.GenMap(P, tuple(images)))
        except (RelationViolated, NotSurjective):
            continue
        total += 1
        if au.is_inner(A)[0]:
            inner += 1
        elif au.aut_order(A) == P.p and au.fixes_elementwise(A, F):
            bucket += 1
        rows.append(tuple(sum(e * r for e, r in zip(x, radix)) for x in A.images))
    return total, inner, bucket, array("i", [x for row in sorted(rows) for x in row])
