"""A basis of R/[R,F]R^p among the relations of a pc presentation.

Write G = F/R, F free on the d minimal generators, each later f_k defined
by its defn tag.  The p-covering group G* = F/[R,F]R^p has the
presentation of G with a tail t_r on each relation r that defines no
generator: f_i^p = w t_r or [f_i, f_j] = w t_r, each t_r central of order
p, and the tails span R/[R,F]R^p (Holt, Eick & O'Brien, Handbook of
Computational Group Theory, sec. 9.4; Newman & O'Brien, J. Symb. Comput.
21, 1996).  basis() collects validate()'s consistency battery in G*, finds
the linear relations among the tails and keeps the relations whose tails
stay free: the set S with which automorphisms certifies a map and the
oracle sieves (see the automorphisms docstring).  Only
automorphisms._multiplicator_basis imports this module, when a
presentation's S is first needed, so a run that never needs S never
compiles it.
"""

from . import presentation as pc


def basis(P, full):
    """S, in plan order: the relations of full (every relation of the
    validated P, as Relation entries in plan order) whose tails are a basis
    of R/[R,F]R^p, so len(S) is its rank.

    _tail_relations gives the linear relations among the tails.  Each is
    reduced against those kept before it, and its last nonzero tail is left
    out, so the tails of the earliest relations stay free.  When a defn tag
    is no relation of the plan, such as [f_j, f_k] with j < k, every
    relation is kept."""
    defining = {tag: ((k, 1),) for k, tag in P.defn.items()}
    tailed = [e for e in full if defining.get(e.rel) != e.word]
    if len(tailed) + len(defining) > len(full):
        return tailed
    p = P.p
    pivots = {}  # a left-out tail r -> the kept relation, coefficient 1 at r
    for row in _tail_relations(P, tailed):
        for r in range(len(row) - 1, -1, -1):
            c = row[r]
            if not c:
                continue
            if r not in pivots:
                inv = pow(c, -1, p)
                pivots[r] = [x * inv % p for x in row]
                break
            row = [(x - c * y) % p for x, y in zip(row, pivots[r])]
    return [e for r, e in enumerate(tailed) if r not in pivots]


def _tail_relations(P, tailed):
    """Relations among the tails of G*, as lists of coefficients modulo p,
    one per relation of tailed.  G* is written as a pc presentation on
    f_1..f_n and, after f_n, one central generator of order p per tail, and
    validate()'s consistency battery on f_1..f_n is collected in it by
    presentation's collector.  Every step applies a relation of G*, so the
    two sides of a check are one element: they agree on f_1..f_n, since G
    is consistent, and their tail digits differ by a true relation.  The
    checks are the overlaps of the tailed presentation's rules, so once all
    these relations hold it is consistent: they span every relation among
    the tails."""
    n, p = P.n, P.p
    power_rel = list(P.power_rel) + [()] * len(tailed)
    comm_rel = dict(P.comm_rel)
    for t, e in enumerate(tailed, n + 1):  # f_t: the tail of relation e
        if e.rel[0] == "pow":
            power_rel[e.rel[1] - 1] = e.word + ((t, 1),)
        else:
            comm_rel[e.rel[1:]] = e.word + ((t, 1),)
    star = pc.PcPresentation(P.name, p, len(power_rel), tuple(power_rel), comm_rel)
    gens = star.generators()[:n]
    powers = [pc.collect(star, w) for w in power_rel[:n]]
    below = [pc.collect(star, ((i, p - 1),)) for i in range(1, n + 1)]
    mul = pc.mul

    def checks():  # validate()'s battery, as pairs of sides
        for i in range(n):
            yield mul(star, gens[i], powers[i]), mul(star, powers[i], gens[i])
        pairs = {}  # (j, i) -> f_j f_i
        for j in range(1, n):
            for i in range(j):
                fji = pairs[j, i] = mul(star, gens[j], gens[i])
                yield mul(star, powers[j], gens[i]), mul(star, below[j], fji)
                yield mul(star, gens[j], powers[i]), mul(star, fji, below[i])
        for k in range(2, n):
            for j in range(1, k):
                for i in range(j):
                    yield mul(star, gens[k], pairs[j, i]), mul(star, pairs[k, j], gens[i])

    for x, y in checks():
        assert x[:n] == y[:n], "the consistency battery disagrees on an exponent vector"
        if x != y:
            yield [(u - v) % p for u, v in zip(x[n:], y[n:])]
