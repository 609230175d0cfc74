"""Subgroup-level computations: closures, centers, centralizers, central
series, Frattini subgroup, maximal subgroups, omega_1, ranks.

A subgroup is a membership mask over the element indices of
tables.GroupTables, at desk scale.  Comparisons are always by element set,
never by generating list (recorded generating sets are a convenience for
reports and for generator-based tests).  All functions take a validated
presentation and are pure; per-presentation results are memoized.
Arithmetic is the index algebra of tables.GroupTables, on whole index arrays
where a test runs over every element.  The pc series G_k = <f_k, ..., f_n>,
whose elements are the first p^(n-k+1) indices, spares most closures: each
subgroup's generators are read off its mask layer by layer (_layer_gens), and
validate() makes Phi(G) = G_{d+1}, so G/Phi(G) is read off the first d digits
and the maximal subgroups are the preimages of its hyperplanes.  Commutator
subgroups and Phi(H) for rank are normal closures of a few generator words,
never a pass over all pairs (Laue, Neubueser & Schoenwaelder, SOGOS, 1984;
Holt, Eick & O'Brien, Handbook of Computational Group Theory, ch. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotAbelian, NotNormal
from .tables import get_tables


class Subgroup:
    """A subgroup as a read-only membership mask over the element indices,
    with its layer generators as exponent tuples (see _layer_gens)."""

    def __init__(self, parent, mask):
        self.parent = parent
        self.mask = mask
        self.mask.flags.writeable = False
        self.order = int(mask.sum())
        t = get_tables(parent)
        self.gens = tuple(_tuples(t, _layer_gens(t, mask)))

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


def _layer_gens(t, mask):
    """Indices of H's layer generators: the least element of H in each slice
    mask[s:2s], s = 1, p, p^2, ... (f_n's layer first).  With s = p^(n-k) the
    slice holds the elements of H_k = H intersect G_k with f_k exponent 1, and
    the f_k digit maps H_k onto F_p or 0 with kernel H_(k+1), so these are the
    lex-greedy generators of H, one per nontrivial layer."""
    gens = []
    for s in map(int, t.strides[::-1]):
        i = s + int(np.argmax(mask[s : 2 * s]))
        if mask[i]:
            gens.append(i)
    return np.array(gens, dtype=np.int32)


def closure(P, S):
    """Smallest subgroup containing S (empty S gives 1); gens are its layer gens."""
    t = get_tables(P)
    return Subgroup(P, t.closure_mask(t.encode(list(S))))


@lru_cache(maxsize=None)
def whole_group(P):
    """G, whose layer generators are f_n, ..., f_1."""
    return Subgroup(P, np.ones(P.order, dtype=bool))


def trivial_subgroup(P):
    return Subgroup(P, get_tables(P).all == 0)


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
    t = get_tables(P)
    gens = t.strides if H is None else t.encode(H.gens)
    return bool(np.all(t.comm(gens[:, None], gens) == 0))


def _normal_closure_mask(P, seeds, conjugators):
    """Mask of the smallest subgroup containing the seed indices and normalized
    by the conjugators (generators of an overgroup, as element tuples), in
    rounds: close, then add the conjugates of the layer generators that fall
    outside."""
    t = get_tables(P)
    hs = t.encode(conjugators)
    mask = t.closure_mask(seeds)
    while True:
        gens = _layer_gens(t, mask)
        conj = t.conj(gens[:, None], hs).ravel()
        outside = conj[~mask[conj]]
        if not outside.size:
            return mask
        mask = t.closure_mask(np.concatenate([gens, outside]))


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
    return Subgroup(P, t.closure_mask(t.pow(t.all, P.p)))


def _frattini_mask(P, H):
    """Phi(H) = H^p H': the normal closure in H of the p-th powers and pairwise
    commutators of H's generators (the quotient by it is elementary abelian
    and generated by the images of those generators)."""
    t = get_tables(P)
    hidx = t.encode(H.gens)
    seeds = np.concatenate([t.pow(hidx, P.p), t.comm(hidx[:, None], hidx).ravel()])
    return _normal_closure_mask(P, seeds, H.gens)


@lru_cache(maxsize=None)
def frattini(P):
    """Phi(G) = G_{d+1} = <f_{d+1}, ..., f_n>: the indices whose first d digits
    are zero.  Each of its layers is full, so its layer generators are
    f_n, ..., f_{d+1}."""
    t = get_tables(P)
    return Subgroup(P, t.all < t.strides[P.minimal_count - 1])


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


@lru_cache(maxsize=None)
def maximal_centers(P):
    """Z(M) for each maximal subgroup M, in the order of maximal_subgroups."""
    return tuple(center_of(P, M) for M in maximal_subgroups(P))


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
    t = get_tables(P)
    a, b = t.encode(A.gens), t.encode(B.gens)
    leaves = np.argwhere(~B.mask[t.conj(b, a[:, None])])  # [i, j]: b_j ^ a_i
    if leaves.size:
        i, j = leaves[0]
        raise NotNormal(f"conjugate of {B.gens[j]} by {A.gens[i]} leaves B")
    order = A.order // B.order
    ea = bool(B.mask[t.pow(a, P.p)].all() and B.mask[t.comm(a[:, None], a)].all())
    return {"order": order, "elementary_abelian": ea, "rank": _log(P.p, order) if ea else None}
