"""Index arithmetic for a validated presentation.

Everything downstream of pc-core (subgroup enumeration, the hypothesis
checker, the brute-force oracle) works on element *indices* into the lex-
ordered list of normal forms.  Index order equals lexicographic order on
exponent vectors because the index is the mixed-radix value of the vector
with e_1 most significant.

The only products taken from the pure collector are x * f_k for every x and
every generator.  From them GroupTables keeps n power columns,
R[k, r, x] = x * f_{k+1}^r (n * p * |G| entries), and multiplies by walking
the right operand's normal form f_1^e_1 ... f_n^e_n through them.  mul, inv, pow,
comm and conj all take scalars or index arrays, which broadcast like numpy
operands; subgroup closures are a BFS over one right-multiplication column
per generator.  Memory stays linear in |G|.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import presentation as pc
from .errors import SizeCap

ELEMENT_CAP = 200_000  # refuse to enumerate beyond desk scale


class GroupTables:
    def __init__(self, P):
        if not P.validated:
            raise ValueError("tables need a validated presentation")
        N = P.order
        if N > ELEMENT_CAP:
            raise SizeCap(f"|G| = {N} exceeds the enumeration cap {ELEMENT_CAP}")
        self.P = P
        self.N = N
        p, n = P.p, P.n
        self.elements = [tuple(e) for e in _vectors(p, n)]
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.strides = [p ** (n - 1 - k) for k in range(n)]
        self.all = np.arange(N, dtype=np.int32)

        # R[k, r] is right multiplication by f_{k+1}^r; r = 1 from the pure collector
        self.R = np.empty((n, p, N), dtype=np.int32)
        self.R[:, 0] = self.all
        for k, g in enumerate(P.generators()):
            self.R[k, 1] = [self.index[pc.mul(P, e, g)] for e in self.elements]
            for r in range(2, p):
                self.R[k, r] = self.R[k, 1][self.R[k, r - 1]]
        # mul reads R flat: x * f_{k+1}^r = _flat[k][_offset[k][y] + x] for y's exponent r
        self._flat = self.R.reshape(n, p * N)
        self._offset = np.array([self.all // s % p * N for s in self.strides], dtype=np.int32)

        self._inv = self.pow(self.all, N - 1)  # x^N = 1

    def idx(self, e):
        return self.index[e]

    def elem(self, i):
        return self.elements[int(i)]

    def mul(self, a, b):
        """a * b on indices; a and b broadcast against each other."""
        for flat, offset in zip(self._flat, self._offset):
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

    def closure_mask(self, seed_indices):
        """Boolean membership mask of the subgroup generated by the seeds,
        by a BFS over one right-multiplication column per distinct seed."""
        mask = np.zeros(self.N, dtype=bool)
        mask[0] = True
        seeds = np.unique(np.asarray(seed_indices, dtype=np.int32))
        cols = self.mul(self.all, seeds[seeds != 0, None])  # cols[i, x] = x * seed_i
        frontier = np.flatnonzero(mask)
        while frontier.size:
            prods = np.unique(cols[:, frontier])
            frontier = prods[~mask[prods]]
            mask[frontier] = True
        return mask


def _vectors(p, n):
    # lexicographic order, first coordinate most significant
    e = [0] * n
    while True:
        yield tuple(e)
        k = n - 1
        while k >= 0 and e[k] == p - 1:
            e[k] = 0
            k -= 1
        if k < 0:
            return
        e[k] += 1


@lru_cache(maxsize=None)
def get_tables(P):
    return GroupTables(P)
