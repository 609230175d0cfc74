"""Index arithmetic for a validated presentation.

Everything downstream of pc-core works on element indices.  The index of
f_1^e_1 ... f_n^e_n is the mixed-radix value of (e_1, ..., e_n), e_1 most
significant, so index order is lexicographic order on normal forms; encode
and decode convert between the two on arrays.

GroupTables keeps n power columns, R[k, r, x] = x * f_{k+1}^r, and multiplies
by walking the right operand's normal form through them.  The columns come
from the parsed relations alone, never from the collector, by induction down
the series G_k = <f_k, ..., f_n>, whose elements are the first |G_k| indices
(Holt, Eick & O'Brien, Handbook of Computational Group Theory, ch. 8).  For
y in G_{k+1} and j > k, (f_k^a y) f_j = f_k^a (y f_j) is a block-shifted copy
of G_{k+1}'s column, and (f_k^a y) f_k = f_k^(a+1) y^(f_k), where mul applies
conjugation by f_k, f_i -> f_i [f_i, f_k], to all of G_{k+1} at once, and
f_k^p is replaced by its power word when a + 1 = p.  mul, inv, pow, comm and
conj take scalars or index arrays, which broadcast like numpy operands.

Only the oracle builds these tables (its sieve, its classifier and the table
of conjugation images); deciding the hypotheses and constructing the witness
never do, so they never load numpy.
"""

from __future__ import annotations

import numpy as np

from .presentation import check_enumerable, memoized


class GroupTables:
    def __init__(self, P):
        if not P.validated:
            raise ValueError("tables need a validated presentation")
        check_enumerable(P.order, "G")
        N = P.order
        self.P = P
        self.N = N
        p, n = P.p, P.n
        self.strides = np.array([p ** (n - 1 - k) for k in range(n)], dtype=np.int32)
        self.all = np.arange(N, dtype=np.int32)

        self.R = np.empty((n, p, N), dtype=np.int32)
        self.R[:, 0] = self.all
        # mul reads R flat: x * f_{k+1}^r = _flat[k][_offset[k][y] + x] for y's exponent r
        self._flat = self.R.reshape(n, p * N)
        self._offset = np.ascontiguousarray(self.decode(self.all).T) * N
        for k in range(n - 1, -1, -1):
            self._extend(k)

        # x^-1 = f_n^-e_n ... f_1^-e_1: walk each x's normal form backwards
        # through the inverse permutations of its columns, x -> x f_k^-r
        self._inv = np.zeros(N, dtype=np.int32)
        back = np.empty((p, N), dtype=np.int32)
        for k in range(n - 1, -1, -1):
            back[np.arange(p)[:, None], self.R[k]] = self.all
            self._inv = back.reshape(-1).take(self._offset[k] + self._inv)

    def _extend(self, k):
        """Fill every column on G_{k+1} (0-based k) from the columns on G_{k+2}."""
        P, R = self.P, self.R
        p, size = P.p, int(self.strides[k])
        for a in range(1, p):
            R[k + 1 :, 1:, a * size : (a + 1) * size] = R[k + 1 :, 1:, :size] + a * size
        conj = np.zeros(size, dtype=np.int32)  # y^(f_{k+1}) for every y in G_{k+2}
        for i in range(k + 1, P.n):
            image = self._word(((i + 1, 1),) + P.comm_rel.get((i + 1, k + 1), ()))
            powers = np.array([self.pow(image, r) for r in range(p)], dtype=np.int32)
            conj = self.mul(conj, powers[self.all[:size] // self.strides[i] % p])
        shifted = [(a + 1) * size + conj for a in range(p - 1)]  # f_{k+1}^(a+1) y^(f_{k+1})
        R[k, 1, : p * size] = np.concatenate(shifted + [self.mul(self._word(P.power_rel[k]), conj)])
        for r in range(2, p):
            R[k, r, : p * size] = R[k, 1, R[k, r - 1, : p * size]]

    def _word(self, w):
        """Index of a relation word; validate() makes it a normal form."""
        return sum(m * int(self.strides[g - 1]) for g, m in w)

    def encode(self, e):
        """Indices of exponent vectors: e has shape (..., n) with entries in 0..p-1;
        an empty sequence gives an empty index array."""
        P = self.P
        e = np.asarray(e)
        if e.shape == (0,):
            return np.zeros(0, dtype=np.int32)
        if e.shape[-1:] != (P.n,) or e.dtype.kind not in "iu" or e.min() < 0 or e.max() >= P.p:
            raise ValueError(f"not exponent vectors of length {P.n} over 0..{P.p - 1}: {e.tolist()}")
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


@memoized
def get_tables(P):
    return GroupTables(P)
