"""Subgroup-level computations: closures, centers, centralizers, central
series, Frattini subgroup, maximal subgroups, omega_1, ranks.

A subgroup is a membership mask over the element indices of
tables.GroupTables, at desk scale.  Comparisons are always by element set,
never by generating list (recorded generating sets are a convenience for
reports and for generator-based tests).  All functions take a validated
presentation and are pure; per-presentation results are memoized.
Arithmetic is the index algebra of tables.GroupTables, on whole index arrays
where a test runs over every element.  Phi(G) comes from the pc series, not
from a closure: validate() makes Phi(G) = G_{d+1} = <f_{d+1}, ..., f_n>, whose
elements are the first p^(n-d) indices, so G/Phi(G) is read off the first d
digits and the maximal subgroups are the preimages of its hyperplanes.  Other
subgroups defined by products, such as commutator subgroups and Phi(H) for
rank, are built from generators: the normal closure of a few generator words,
never a pass over all pairs (Holt, Eick & O'Brien, Handbook of Computational
Group Theory, ch. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import presentation as pc
from .errors import NotAbelian, NotNormal
from .tables import get_tables


class Subgroup:
    """A subgroup as a read-only membership mask over the element indices,
    with a recorded generating set (by default the lex-greedy one)."""

    def __init__(self, parent, mask, gens=None):
        self.parent = parent
        self.mask = mask
        self.mask.flags.writeable = False
        self.order = int(mask.sum())
        self.gens = tuple(_greedy_gens(parent, self.indices()) if gens is None else gens)

    @property
    def elements(self):
        """The elements as exponent tuples, in index (= lexicographic) order."""
        return tuple(_tuples(get_tables(self.parent), self.indices()))

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        try:
            return bool(self.mask[get_tables(self.parent).encode(e)])
        except ValueError:  # not an exponent vector of this group
            return False

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and np.array_equal(self.mask, other.mask)

    def __le__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and not np.any(self.mask & ~other.mask)

    def __hash__(self):
        return hash(self.mask.tobytes())

    def __repr__(self):
        gens = ", ".join(word_str(self.parent, g) for g in self.gens) or "1"
        return f"<subgroup of {self.parent.name} order {self.order} = <{gens}>>"

    def indices(self):
        return np.flatnonzero(self.mask).astype(np.int32)


def word_str(P, e):
    """Render a normal form in the group-file word syntax."""
    parts = [f"g{i + 1}^{x}" for i, x in enumerate(e) if x]
    return " ".join(parts) if parts else "1"


def _tuples(t, indices):
    """Exponent tuples of a sequence of indices."""
    return list(map(tuple, t.decode(indices).tolist()))


def _greedy_gens(P, sorted_indices):
    """Lex-greedy generating set: add each element not yet generated."""
    t = get_tables(P)
    gens = []
    cur = t.closure_mask(gens)
    for i in map(int, sorted_indices):
        if not cur[i]:
            gens.append(i)
            cur = t.closure_mask(gens)
    return _tuples(t, gens)


def closure(P, S):
    """Smallest subgroup containing the elements of S (empty S gives 1)."""
    t = get_tables(P)
    seeds = np.unique(t.encode(list(S)))
    return Subgroup(P, t.closure_mask(seeds), _greedy_gens(P, seeds[seeds != 0]))


@lru_cache(maxsize=None)
def whole_group(P):
    return Subgroup(P, np.ones(P.order, dtype=bool), P.generators())


def trivial_subgroup(P):
    return Subgroup(P, get_tables(P).closure_mask([]), [])


def _centralizer_mask(P, targets):
    """Mask of {x : x s = s x for every s in targets (element tuples)}."""
    t = get_tables(P)
    mask = np.ones(t.N, dtype=bool)
    for s in t.encode(targets):
        mask &= t.mul(t.all, s) == t.mul(s, t.all)
    return mask


def centralizer(P, S):
    """C_G(S); S may be a Subgroup (generator test) or a single Element."""
    targets = S.gens if isinstance(S, Subgroup) else (tuple(S),)
    return Subgroup(P, _centralizer_mask(P, targets))


@lru_cache(maxsize=None)
def center(P):
    return Subgroup(P, _centralizer_mask(P, P.generators()))


def center_of(P, H):
    """Z(H): the center of H as a group, embedded back in G."""
    return Subgroup(P, _centralizer_mask(P, H.gens) & H.mask)


def is_abelian(P, H=None):
    gens = P.generators() if H is None else H.gens
    one = pc.identity(P)
    return all(
        pc.comm(P, a, b) == one for i, a in enumerate(gens) for b in gens[i + 1 :]
    )


def _normal_closure_mask(P, seeds, conjugators):
    """Mask of the smallest subgroup containing the seed indices and normalized
    by the conjugators (generators of an overgroup, as element tuples)."""
    t = get_tables(P)
    hs = t.encode(conjugators)
    gens = []
    mask = t.closure_mask(gens)
    queue = [int(s) for s in seeds]
    while queue:
        s = queue.pop()
        if mask[s]:
            continue
        gens.append(s)
        mask = t.closure_mask(gens)
        queue += [int(t.conj(s, h)) for h in hs]
    return mask


def commutator_subgroup(P, A, B):
    """[A, B]: the normal closure in <A, B> of the generator commutators."""
    t = get_tables(P)
    seeds = t.comm(t.encode(A.gens)[:, None], t.encode(B.gens)).ravel()
    return Subgroup(P, _normal_closure_mask(P, seeds, A.gens + B.gens))


@lru_cache(maxsize=None)
def derived(P):
    G = whole_group(P)
    return commutator_subgroup(P, G, G)


@lru_cache(maxsize=None)
def agemo(P):
    """G^p = <g^p : g in G>."""
    t = get_tables(P)
    return Subgroup(P, t.closure_mask(np.unique(t.pow(t.all, P.p))))


def _frattini_mask(P, H):
    """Phi(H) = H^p H': the normal closure in H of the p-th powers and pairwise
    commutators of H's generators (the quotient by it is elementary abelian
    and generated by the images of those generators)."""
    t = get_tables(P)
    hidx = t.encode(H.gens)
    seeds = list(t.pow(hidx, P.p))
    seeds += [t.comm(a, b) for i, a in enumerate(hidx) for b in hidx[i + 1 :]]
    return _normal_closure_mask(P, seeds, H.gens)


@lru_cache(maxsize=None)
def frattini(P):
    """Phi(G) = <f_{d+1}, ..., f_n>: the indices whose first d digits are zero,
    generated by f_n, ..., f_{d+1} (the lex-greedy order)."""
    t = get_tables(P)
    d = P.minimal_count
    gens = [P.generator(i) for i in range(P.n, d, -1)]
    return Subgroup(P, t.all < t.strides[d - 1], gens)


@dataclass(frozen=True)
class CentralSeries:
    kind: str  # "upper" or "lower"
    terms: tuple  # Subgroups; upper: 1 = Z_0 <= Z_1 <= ... = G; lower: G = g_1 >= ... >= 1


@lru_cache(maxsize=None)
def upper_central_series(P):
    t = get_tables(P)
    terms = [trivial_subgroup(P)]
    cur = terms[0].mask
    while cur.sum() < t.N:
        nxt = np.ones(t.N, dtype=bool)
        for g in t.strides:  # the indices of the generators
            nxt &= cur[t.comm(t.all, g)]
        if nxt.sum() == cur.sum():
            raise AssertionError("upper central series stalled below G")  # p-groups are nilpotent
        terms.append(Subgroup(P, nxt))
        cur = nxt
    return CentralSeries("upper", tuple(terms))


@lru_cache(maxsize=None)
def lower_central_series(P):
    G = whole_group(P)
    terms = [G]
    while terms[-1].order > 1:
        nxt = commutator_subgroup(P, terms[-1], G)
        if nxt.order == terms[-1].order:
            raise AssertionError("lower central series stalled above 1")
        terms.append(nxt)
    return CentralSeries("lower", tuple(terms))


def nilpotency_class(P):
    lower = lower_central_series(P)
    upper = upper_central_series(P)
    c = len(lower.terms) - 1
    assert len(upper.terms) - 1 == c, "upper and lower series disagree on class"
    return c


def second_center(P):
    """Z_2(G), the preimage of Z(G/Z(G))."""
    terms = upper_central_series(P).terms
    return terms[min(2, len(terms) - 1)]


@lru_cache(maxsize=None)
def maximal_subgroups(P):
    """All index-p subgroups: preimages of hyperplanes of G/Phi(G), whose
    coordinates are the first d digits taken as (e_d, ..., e_1)."""
    t = get_tables(P)
    d = P.minimal_count
    coords = t.decode(t.all)[:, d - 1 :: -1]
    return tuple(Subgroup(P, coords @ phi % P.p == 0) for phi in _dual_vectors(P.p, d))


def _dual_vectors(p, d):
    """Nonzero vectors of F_p^d up to scalar, first nonzero entry 1, lex order."""
    vecs = []
    for v in np.ndindex(*([p] * d)):
        nz = [c for c in v if c]
        if nz and nz[0] == 1:
            vecs.append(v)
    assert len(vecs) == (p**d - 1) // (p - 1)
    return vecs


def omega1(P, A):
    """{a in A : a^p = 1}, for abelian A."""
    if not is_abelian(P, A):
        raise NotAbelian(f"omega1 needs an abelian subgroup, got order {A.order} non-abelian")
    t = get_tables(P)
    return Subgroup(P, A.mask & (t.pow(t.all, P.p) == 0))


def exponent(P, H=None):
    """exp(H): largest element order (H defaults to G)."""
    t = get_tables(P)
    cur = t.all if H is None else H.indices()
    e = 1
    while np.any(cur != 0):
        cur = t.pow(cur, P.p)
        e *= P.p
    return e


def rank(P, H=None):
    """d(H) = log_p |H / Phi(H)|, with Phi(H) computed inside H."""
    if H is None:
        H = whole_group(P)
    return _log(P.p, H.order // int(_frattini_mask(P, H).sum()))


def _log(p, q):
    """The exact d with p^d = q."""
    d = 0
    while q % p == 0:
        q //= p
        d += 1
    assert q == 1, "not a power of p"
    return d


def quotient_facts(P, A, B):
    """Order, elementary-abelianness and rank of A/B, at coset level.

    With B normal in A, A/B is elementary abelian iff the p-th powers and the
    pairwise commutators of A's generators lie in B.
    """
    if not B <= A:
        raise NotNormal("B is not contained in A")
    for a in A.gens:
        for b in B.gens:
            if pc.conj(P, b, a) not in B:
                raise NotNormal(f"conjugate of {b} by {a} leaves B")
    order = A.order // B.order
    gens = A.gens
    ea = all(pc.pow_(P, a, P.p) in B for a in gens) and all(
        pc.comm(P, a, b) in B for i, a in enumerate(gens) for b in gens[i + 1 :]
    )
    return {"order": order, "elementary_abelian": ea, "rank": _log(P.p, order) if ea else None}
