"""The subgroup layer as it was on membership masks, kept as a test reference.

A subgroup here is a boolean mask over the element indices of
tables.GroupTables, and every computation runs on whole index arrays of the
table algebra, with no pc sequence and no sifting: ArrayTables is a numpy
view of pgw's columns whose operations broadcast like numpy operands.  The pc
subgroup layer of structure.py, hypotheses.py and automorphisms.is_inner
must agree with it on every group the tests load.
"""

import weakref

import numpy as np

from pgw import automorphisms as au
from pgw import tables


class ArrayTables:
    """pgw's tables as int32 arrays: R[k, r, x] = x * f_{k+1}^r.  mul, inv,
    pow, comm and conj take scalars or index arrays, which broadcast like
    numpy operands; encode and decode convert whole arrays of exponent
    vectors and indices."""

    def __init__(self, P):
        t = tables.get_tables(P)
        self.P, self.N = P, t.N
        self.strides = np.array(t.strides, dtype=np.int32)
        self.all = np.arange(t.N, dtype=np.int32)
        self.R = np.array(t.R, dtype=np.int32)
        self._flat = self.R.reshape(P.n, P.p * t.N)  # x * f_{k+1}^r = _flat[k][_offset[k][y] + x]
        self._offset = np.ascontiguousarray(self.decode(self.all).T) * t.N
        self._inv = np.array([t.inv(x) for x in range(t.N)], dtype=np.int32)

    def encode(self, e):
        """Indices of exponent vectors: e has shape (..., n) with entries in
        0..p-1; an empty sequence gives an empty index array."""
        P = self.P
        e = np.asarray(e)
        if e.shape == (0,):
            return np.zeros(0, dtype=np.int32)
        if e.shape[-1:] != (P.n,) or e.dtype.kind not in "iu" or e.min() < 0 or e.max() >= P.p:
            raise ValueError(f"not exponent vectors of length {P.n} over 0..{P.p - 1}")
        return (e @ self.strides).astype(np.int32)

    def decode(self, x):
        """Exponent vectors of indices: shape (..., n)."""
        return np.asarray(x)[..., None] // self.strides % self.P.p

    def mul(self, a, b):
        """a * b on indices; a and b broadcast against each other."""
        cols = zip(self._flat, self._offset)
        if np.ndim(b) == 0:  # one right factor: walk only the generators it uses
            cols = [(flat, offset) for flat, offset in cols if offset[b]]
        for flat, offset in cols:
            a = flat.take(offset.take(b) + a)
        return a

    def inv(self, a):
        return self._inv[a]

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        acc = np.zeros_like(a)
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            k >>= 1
        return acc

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def conj(self, a, t):
        """a^t = t^-1 a t."""
        return self.mul(self.mul(self.inv(t), a), t)


_VIEWS = weakref.WeakKeyDictionary()


def get_tables(P):
    """The ArrayTables of P, built once per presentation."""
    if P not in _VIEWS:
        _VIEWS[P] = ArrayTables(P)
    return _VIEWS[P]


def closure_mask(t, seed_indices):
    """Boolean membership mask of the subgroup generated by the seeds.
    Seeds are taken in order, skipping those already in the closure;
    each one taken adds its right-multiplication column, and a BFS from
    the whole closure grows it.  A seed taken at least multiplies the
    order by p, so at most n columns are built, however many seeds
    there are."""
    seeds = np.asarray(seed_indices, dtype=np.int64).ravel()
    mask = np.zeros(t.N, dtype=bool)
    mask[0] = True
    cols = []
    while True:
        seeds = seeds[~mask[seeds]]
        if not seeds.size:
            return mask
        cols.append(t.mul(t.all, seeds[0]))  # one seed: mul skips its zero exponents
        frontier = np.flatnonzero(mask)
        while frontier.size:
            fresh = []
            for col in cols:  # col permutes G and the reached mask drops repeats
                prods = col[frontier]
                fresh.append(prods[~mask[prods]])
                mask[fresh[-1]] = True
            frontier = np.concatenate(fresh)


def tuples(t, indices):
    """Exponent tuples of a sequence of indices."""
    return list(map(tuple, t.decode(np.asarray(indices, dtype=np.int64)).tolist()))


def layer_gens(t, mask):
    """The least element of the subgroup in each slice mask[s:2s],
    s = 1, p, p^2, ... (f_n's layer first), as exponent tuples."""
    gens = []
    for s in map(int, t.strides[::-1]):
        i = s + int(np.argmax(mask[s : 2 * s]))
        if mask[i]:
            gens.append(i)
    return tuple(tuples(t, gens))


def mask_of(H):
    """The membership mask of a pc Subgroup, from its elements."""
    t = get_tables(H.parent)
    mask = np.zeros(t.N, dtype=bool)
    mask[t.encode(list(H.elements))] = True
    return mask


def indices(mask):
    return np.flatnonzero(mask).astype(np.int32)


def centralizer_mask(P, targets):
    """{x : x s = s x for every s in targets (element tuples)}."""
    t = get_tables(P)
    mask = np.ones(t.N, dtype=bool)
    for s in t.encode(list(targets)):
        mask &= t.mul(t.all, s) == t.mul(s, t.all)
    return mask


def normal_closure_mask(P, seeds, conjugators):
    """The smallest subgroup containing the seed indices and normalized by
    the conjugators (element tuples), in rounds: close, then add the
    conjugates of the layer generators that fall outside."""
    t = get_tables(P)
    hs = t.encode(list(conjugators))
    mask = closure_mask(t, seeds)
    while True:
        gens = t.encode(list(layer_gens(t, mask)))
        conj = t.conj(gens[:, None], hs).ravel()
        outside = conj[~mask[conj]]
        if not outside.size:
            return mask
        mask = closure_mask(t, np.concatenate([gens, outside]))


def commutator_mask(P, A, B):
    """[A, B] for masks A, B: the normal closure in <A, B> of the commutators
    of their layer generators."""
    t = get_tables(P)
    a, b = layer_gens(t, A), layer_gens(t, B)
    seeds = t.comm(t.encode(list(a))[:, None], t.encode(list(b))).ravel()
    return normal_closure_mask(P, seeds, a + b)


def frattini_mask(P, H):
    """Phi(H) for a mask H: the normal closure in H of the p-th powers and
    pairwise commutators of its layer generators."""
    t = get_tables(P)
    gens = layer_gens(t, H)
    hidx = t.encode(list(gens))
    seeds = np.concatenate([t.pow(hidx, P.p), t.comm(hidx[:, None], hidx).ravel()])
    return normal_closure_mask(P, seeds, gens)


def upper_central_series(P):
    t = get_tables(P)
    terms = [t.all == 0]
    while terms[-1].sum() < t.N:
        nxt = np.ones(t.N, dtype=bool)
        for g in t.strides:
            nxt &= terms[-1][t.comm(t.all, g)]
        assert nxt.sum() > terms[-1].sum()
        terms.append(nxt)
    return terms


def lower_central_series(P):
    t = get_tables(P)
    G = np.ones(t.N, dtype=bool)
    terms = [G]
    while terms[-1].sum() > 1:
        terms.append(commutator_mask(P, terms[-1], G))
    return terms


def agemo(P):
    t = get_tables(P)
    return closure_mask(t, t.pow(t.all, P.p))


def maximals(P, dual_vectors):
    t = get_tables(P)
    d = P.minimal_count
    coords = t.decode(t.all)[:, d - 1 :: -1]
    return [coords @ np.array(phi) % P.p == 0 for phi in dual_vectors]


def omega1(P, A):
    t = get_tables(P)
    return A & (t.pow(t.all, P.p) == 0)


def exponent(P, H):
    t = get_tables(P)
    cur = indices(H)
    e = 1
    while np.any(cur != 0):
        cur = t.pow(cur, P.p)
        e *= P.p
    return e


def zm_condition(P, zmask, maximal_masks, center_masks):
    """The scan: maximals, then m in Z(M), then g outside M, in index order."""
    t = get_tables(P)
    for mi, (M, zm) in enumerate(zip(maximal_masks, center_masks)):
        outside = np.flatnonzero(~M)
        for m in indices(zm):
            bad = np.flatnonzero(~zmask[t.comm(m, outside)])
            if bad.size:
                return False, (mi, *tuples(t, [m, outside[bad[0]]]))
    return True, None


def order_p_outside(P, Z2, Z):
    """Every element of order p in Z2 outside Z, in index order."""
    t = get_tables(P)
    return tuples(t, np.flatnonzero(Z2 & (t.pow(t.all, P.p) == 0) & ~Z))


def is_inner(A):
    """The inner test by lookup in the table of every conjugation map."""
    P = A.parent
    if len(A.images) != P.n:
        return False, None
    t = get_tables(P)
    try:
        images = t.encode(list(A.images))
    except ValueError:
        return False, None
    [x] = au._conjugators(P, [tuple(images.tolist())])
    if x < 0:
        return False, None
    return True, tuple(t.decode(x).tolist())
