"""The stored facts about the built-in group, which pgw demo asserts.

Only demo imports this module, so no other command compiles it.
"""

from . import automorphisms as au
from . import hypotheses as hy
from . import presentation as pc
from . import structure as st


def facts(P, h, w, count):
    """(fact, holds) for each stored fact about the built-in group, in order;
    h, w and count are the pipeline's hypotheses, witness and oracle count
    (None without --with-oracle)."""
    f = {i: P.generator(i) for i in range(1, 8)}
    yield "|G| = 3^7 = 2187", P.order == 2187
    yield "nilpotency class = 4", st.nilpotency_class(P) == 4
    Z = st.center(P)
    yield "Z(G) = <f7> of order 3", Z.order == 3 and Z == st.closure(P, [f[7]])
    yield "G is monolithic", hy.is_monolithic(P)
    F = st.frattini(P)
    yield ("Phi(G) = <f3,f4,f5,f6,f7> of order 243",
           F.order == 243 and F == st.closure(P, [f[3], f[4], f[5], f[6], f[7]]))
    yield "Phi(G) is non-abelian", not st.is_abelian(P, F)
    maxs = st.maximal_subgroups(P)
    yield "exactly 4 maximal subgroups", len(maxs) == 4
    yield "all maximal subgroups non-abelian", all(not st.is_abelian(P, M) for M in maxs)

    printed = [
        ([f[1]], [f[6], f[7]]),
        ([f[2]], [f[5], f[7]]),
        ([pc.mul(P, f[1], pc.pow_(P, f[2], 2))],
         [pc.mul(P, pc.mul(P, pc.pow_(P, f[5], 2), f[6]), f[7]), pc.pow_(P, f[7], 2)]),
        ([pc.mul(P, f[1], f[2])],
         [pc.mul(P, pc.mul(P, f[5], f[6]), pc.pow_(P, f[7], 2)), f[7]]),
    ]
    tail = [f[3], f[4], f[5], f[6], f[7]]
    by_set = {M: M for M in maxs}
    for k, (head, zgens) in enumerate(printed, start=1):
        hit = by_set.pop(st.closure(P, head + tail), None)
        yield f"M{k} matches a computed maximal subgroup as an element set", hit is not None
        yield (f"Z(M{k}) matches as an element set",
               hit is not None and st.center_of(P, hit) == st.closure(P, zgens))
    yield "the four maximal subgroups are exactly M1..M4", not by_set

    yield "[Z(M), g] <= Z(G) for every maximal M and g outside M", h.zm_condition
    yield "theorem hypotheses all hold", h.theorem_applicable

    images = list(P.generators())
    images[1] = pc.mul(P, f[2], f[6])
    alpha = au.verify(au.GenMap(parent=P, images=tuple(images)))
    yield "printed map (f2 -> f2 f6, others fixed) is an automorphism", True
    yield "printed automorphism has order 3", au.aut_order(alpha) == 3
    yield "printed automorphism is non-inner", not au.is_inner(alpha)[0]
    yield "printed automorphism fixes Phi(G) elementwise", au.fixes_elementwise(alpha, F)

    yield "witness construction succeeds", w is not None
    yield "constructed automorphism has order 3", au.aut_order(w.A) == 3
    yield "constructed automorphism is non-inner", not au.is_inner(w.A)[0]
    yield "constructed automorphism fixes Phi(G) elementwise", au.fixes_elementwise(w.A, F)

    if count is not None:
        yield "|Aut(G)| = 4374", count.total == 4374
        yield "|Inn(G)| = 729", count.inner == 729
        yield ("oracle sees an order-3 non-inner automorphism fixing Phi(G)",
               count.order_p_noninner_fixing_frattini >= 1)
