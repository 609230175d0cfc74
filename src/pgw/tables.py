"""Index arithmetic for a validated presentation, in plain lists.

Everything downstream of pc-core works on element indices.  The index of
f_1^e_1 ... f_n^e_n is the mixed-radix value of (e_1, ..., e_n), e_1 most
significant, so index order is lexicographic order on normal forms; encode
and decode convert between the two.

GroupTables keeps n power columns, R[k][r][x] = x * f_{k+1}^r, each a list
of N indices, and multiplies by walking the right operand's normal form
through them, with a memo of each right operand's columns (walks).  The
columns come from the parsed relations alone, never from the collector, by
induction down the series G_k = <f_k, ..., f_n>, whose elements are the
first |G_k| indices (Holt, Eick & O'Brien, Handbook of
Computational Group Theory, ch. 8).  For y in G_{k+1} and j > k,
(f_k^a y) f_j = f_k^a (y f_j) is a block-shifted copy of G_{k+1}'s column,
and (f_k^a y) f_k = f_k^(a+1) y^(f_k), with f_k^p replaced by its power word
w when a + 1 = p.  Conjugation by f_k is an automorphism of G_{k+1}, so
y^(f_k) and w y^(f_k) are filled in index order (fill): a y whose last
nonzero exponent is that of f_j is y' f_j for an earlier y', and its values
are those of y' times f_j^(f_k) = f_j [f_j, f_k], one relation word walked
through columns already built.  Every entry is an object of the list
range(N) that the columns share, so a column costs one pointer per entry.

This is pgw's one index algebra: mul, inv, pow, comm and conj take element
indices, and fill is the index-order fill that the table of conjugation
images (automorphisms._inner_table) also uses.

Only the oracle builds these tables (its sieve, its classifier and the table
of conjugation images); deciding the hypotheses and constructing the witness
never do.
"""

from .presentation import check_enumerable, memoized


class Memo(dict):
    """f(x) for each x looked up, computed on the first lookup."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, x):
        value = self[x] = self.f(x)
        return value


class GroupTables:
    def __init__(self, P):
        if not P.validated:
            raise ValueError("tables need a validated presentation")
        check_enumerable(P.order, "G")
        N = P.order
        self.P = P
        self.N = N
        p, n = P.p, P.n
        self.strides = [p ** (n - 1 - k) for k in range(n)]
        self.all = list(range(N))
        # R[k][0] is the identity map, shared; _extend(k) makes the others
        self.R = [[self.all] + [None] * (p - 1) for _ in range(n)]
        self.inverse = [0]
        for k in range(n - 1, -1, -1):
            self._extend(k)
        self.walks = Memo(self.columns)  # b -> b's columns, which mul walks

    def _extend(self, k):
        """Fill every column on G_{k+1} (0-based k) from the columns on G_{k+2},
        and the inverses of G_{k+1}."""
        P, R, everything = self.P, self.R, self.all
        p, size = P.p, self.strides[k]
        shifts = [everything[a * size : (a + 1) * size] for a in range(p)]  # y -> a * size + y
        for cols in R[k + 1 :]:
            for col in cols[1:]:
                head = col[:size]
                for shift in shifts[1:]:
                    col += [shift[y] for y in head]
        # conj[y] = y^(f_{k+1}) and carry[y] = w y^(f_{k+1}) on G_{k+2}, walking
        # f_{j+1}^(f_{k+1}) = f_{j+1} [f_{j+1}, f_{k+1}]
        walks = [
            [R[j][1]] + [R[g - 1][m] for g, m in P.comm_rel.get((j + 1, k + 1), ())]
            for j in range(k + 1, P.n)
        ]
        conj = self.fill(0, walks, k + 1)
        carry = self.fill(everything[self._word(P.power_rel[k])], walks, k + 1)
        # (f_{k+1}^a y) f_{k+1} = f_{k+1}^(a+1) y^(f_{k+1}), and w y^(f_{k+1}) past a = p - 1
        first = R[k][1] = []
        for shift in shifts[1:]:
            first += [shift[y] for y in conj]
        first += carry
        for r in range(2, p):
            R[k][r] = [first[x] for x in R[k][r - 1]]
        # x = f_{k+1} x' with x' = x - size, so x^-1 = x'^-1 f_{k+1}^-1
        back = [0] * (p * size)
        for x, y in zip(everything, first):
            back[y] = x
        inv = self.inverse
        for a in range(1, p):
            inv += [back[x] for x in inv[(a - 1) * size : a * size]]

    def fill(self, first, walks, start=0):
        """The list v over the first N / p^start indices, the elements of
        <f_{start+1}, ..., f_n>, with v[0] = first and v[y' f_j] = v[y']
        walked through the columns walks[j - start - 1] in order, for each
        y = y' f_j with f_j the last generator of y's normal form.  y' comes
        before y in index order, so each value is taken from one already
        filled."""
        p = self.P.p
        values = [first] * (self.N // p**start)
        for s, walk in zip(self.strides[start:], walks):
            for e in range(1, p):
                acc = values[(e - 1) * s :: p * s]
                for col in walk:
                    acc = [col[y] for y in acc]
                values[e * s :: p * s] = acc
        return values

    def _word(self, w):
        """Index of a relation word; validate() makes it a normal form."""
        return sum(m * self.strides[g - 1] for g, m in w)

    def encode(self, e):
        """Index of an exponent vector: a sequence of n integers in 0..p-1."""
        P = self.P
        if not (
            len(e) == P.n
            and all(isinstance(x, int) and not isinstance(x, bool) and 0 <= x < P.p for x in e)
        ):
            raise ValueError(f"not exponent vectors of length {P.n} over 0..{P.p - 1}: {list(e)}")
        return sum(x * s for x, s in zip(e, self.strides))

    def decode(self, x):
        """Exponent vector of index x, a tuple of n integers."""
        p = self.P.p
        return tuple(x // s % p for s in self.strides)

    def columns(self, b):
        """The columns that multiply by b on the right: x * b is x walked
        through them in order, one per nonzero exponent of b."""
        return tuple(cols[r] for cols, r in zip(self.R, self.decode(b)) if r)

    def mul(self, a, b):
        """a b: a walked through b's columns, kept per b in a memo."""
        for col in self.walks[b]:
            a = col[a]
        return a

    def inv(self, a):
        return self.inverse[a]

    def pow(self, a, k):
        """a^k by the bits of |k| from the top: one square per bit after the
        first and one product per further set bit."""
        if k < 0:
            a, k = self.inv(a), -k
        if not k:
            return 0
        acc = a
        for bit in bin(k)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
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
