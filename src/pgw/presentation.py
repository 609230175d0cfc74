"""Finite p-groups given by consistent power-commutator presentations.

A presentation has generators f_1 .. f_n, each of relative order p, with
relations

    f_i^p     = power_rel[i]      (word over generators with index > i)
    [f_i,f_j] = comm_rel[(i,j)]   (i > j, word over generators with index > i)

where an omitted relation means a trivial right-hand side.  Commutators are
[x,y] = x^-1 y^-1 x y and conjugation is x^t = t^-1 x t.  Once `validate` has
run the local consistency battery, |G| = p^n and every element has a unique
normal form f_1^e1 ... f_n^en with 0 <= e_k < p.

Elements are plain exponent tuples of length n.  Words are sequences of
(generator index, exponent) pairs with 1-based indices and arbitrary integer
exponents; `collect` normalizes them.

Collection is from the left (Leedham-Green & Soicher, J. Symb. Comput. 9,
1990; Vaughan-Lee, same issue).  The collector keeps the exponents e placed so
far and `top`, the highest position with a nonzero exponent.  A letter f_j^m
at or right of `top` is placed directly.  Otherwise, with h = 2^b the lowest
set bit of m, f_j^h is moved across the tail T = f_{j+1}^e_{j+1} ...
f_top^e_top, which is zeroed in one walk from `top` down; T^{f_j^h} is pushed
as one stored word per nonzero e_k, the normal form of (f_k^e_k)^{f_j^h}, and
f_j^(m-h) goes back on the stack beneath it.  So a letter crosses the tail
once per set bit of m, at most bit_length(p-1) times, not m times.
`conjugates` stores those words on the presentation, one row for each 2^b < p,
and `validate` hands them on.  Conjugating by f_j^h is collection in
G_{j+1} = <f_{j+1}, ..., f_n>, which needs only the rows for f_{j+1}..f_n,
so the collector builds the table itself from j = n down to 1; there is no
second collector to bootstrap it.  On a validated presentation a letter f_j^m
outside 0 < m < p is first reduced modulo |G_j| = p^(n-j+1), and pow_ spells
the rest as a normal form, so a huge m costs O(n log p) collections.

A validated presentation also carries a tail memo (see conjugates()), and
three shortcuts follow from its normal forms.  When f_j commutes with every
f_k, k > j, f_j^m crosses any tail unchanged, so it is added to digit j in
place.  Otherwise, on a memoized level, one lookup keyed by the tail's
digits gives those of T^{f_j^h}, or of w_j T^{f_j^h} when f_j^h overflows
into its power word w_j, and they are written at once instead of pushing
one stored word per nonzero digit and collecting them again.  A power word
that lands on zero digits is a normal form right of f_j and is written
directly.  The consistency battery collects on the unvalidated object,
which holds no memo, so its verdicts and messages come from the plain
collector above.

The derived operations never collect an inverse word, whose negative
letters each expand into an inverted power word.  inv, comm and conj are
left division (Sims, Computation with Finitely Presented Groups, ch. 9):
_solve finds the x with u x = v one pc letter at a time, since right
multiplication by f_k^x adds x to digit k modulo p and leaves the digits
before it alone.  So inv(a) solves a x = 1, comm(a, b) solves b a x = a b
and conj(a, t) solves t x = a t.  pow_ writes a^k as the product of
(a^(p^i))^(k_i) over the base-p digits k_i of k, one collection of the
concatenated words, with each a^(p^i) raised to the p from the term
before it; a negative k is reduced modulo ord(a) = p^m, read off the same
chain of p-th powers that element_order counts.  A power x^d with d >= 4 is
taken by squaring, O(log d) products, and a smaller one is spelled as d
copies of x's word, so pow_ costs O(n log p) products.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import BadDefinition, BadWeight, ConsistencyViolation, SizeCap

MAX_P = 97
MAX_N = 16
MEMO_TAILS = 729  # the largest tail space p^(n-j) that is memoized; see conjugates()


@dataclass(frozen=True, eq=False)  # eq=False: identity hash, lets lru_cache key on P
class PcPresentation:
    name: str
    p: int
    n: int
    power_rel: tuple = ()  # length n, power_rel[i-1] = word for f_i^p, () = identity
    comm_rel: dict = field(default_factory=dict)  # (i,j) i>j -> word for [f_i,f_j]
    defn: dict = field(default_factory=dict)  # i -> ("pow", j) or ("comm", j, k)
    minimal_count: int = 0
    validated: bool = False
    _conjugates: list = field(default=None, init=False, repr=False)  # see conjugates()
    _tails: list = field(default=None, init=False, repr=False)  # see conjugates()

    @property
    def order(self):
        return self.p**self.n

    def generator(self, i):
        """f_i as an element, 1-based."""
        e = [0] * self.n
        e[i - 1] = 1
        return tuple(e)

    def generators(self):
        return [self.generator(i) for i in range(1, self.n + 1)]


def identity(P):
    return (0,) * P.n


def word_of(e):
    """Normal-form word of an exponent vector."""
    return tuple([(i, ei) for i, ei in enumerate(e, 1) if ei])


def inverse_word(w):
    return tuple((g, -m) for (g, m) in reversed(w))


def collect(P, w):
    """Collection from the left: normal form of the group element spelled by w."""
    stack = list(w)
    stack.reverse()
    return _collect_into(P, [0] * P.n, stack)


def conjugates(P):
    """The stored conjugates, one table per presentation object, built on
    first use; validate() hands its table to the validated object.

    conjugates(P)[j-1][b][k-1][e], for k > j, 2^b < p and 1 <= e < p, is the
    normal-form word of (f_k^e)^{f_j^(2^b)}, stored reversed (in push order
    for the collector's stack); entry 0 is unused.  That is bit_length(p-1)
    rows per j.  Row 0 takes the powers of f_k [f_k, f_j]; row b conjugates
    row b-1's f_k once more by f_j^(2^(b-1)), letter by letter, and takes the
    powers of that.  Both are collection in G_{j+1}, from the rows of
    j+1..n only, so the rows go from j = n down to 1.

    Beside the table sits the tail memo, P._tails, which validate() makes
    fresh for the validated object only: the unvalidated object that the
    consistency battery collects on has none, and a copy made with
    dataclasses.replace starts without one, so no two presentations share
    entries.  Level j is memoized when its tail space p^(n-j) is at most
    MEMO_TAILS = 729 (3^6, the largest level of the shipped groups).  A key
    is (j, b, over, T): the tail's digits T right of f_j, the bit 2^b of
    the letter that crosses it, and whether f_j overflows into its power
    word; the entry is the digits of T^{f_j^(2^b)}, or of w_j T^{f_j^(2^b)},
    collected once in G_{j+1} on the first miss.  A level whose f_j commutes
    with G_{j+1} needs the overflow key only, whatever the letter.  So level
    j holds at most p^(n-j) - 1 entries (nonzero tails) on such a level and
    2 bit_length(p-1) (p^(n-j) - 1) on any other, plus one copy of each
    distinct tail tuple, shared by keys and values.  Larger levels keep the
    push path.  The bound comes from scripts/collector_scan.py, about 10^3
    random products per group in a fresh interpreter: against no memoized
    level, random mul took 1.06x at p = 7 and 0.83x at p = 31 with this
    bound, but 1.27x at p = 7 with 2401, which adds p = 7's 2401-tail level,
    and 1.25x at p = 31 with 29791, which adds p = 31's 29791-tail level.
    Such a level is still mostly misses after the scan, and a miss costs
    more than the push it replaces.
    """
    if P._conjugates is None:
        object.__setattr__(P, "_conjugates", _conjugate_table(P))
    return P._conjugates


def _conjugate_table(P):
    n, p = P.n, P.p
    table = [None] * n
    plain = [((),) + tuple(((k, e),) for e in range(1, p)) for k in range(1, n + 1)]
    for j in range(n, 0, -1):
        # units[k] spells f_k^{f_j^(2^b)}; row 0 starts from f_k [f_k, f_j]
        units = {k: ((k, 1),) + tuple(P.comm_rel.get((k, j), ())) for k in range(j + 1, n + 1)}
        rows = []
        for _ in range((p - 1).bit_length()):
            if rows:
                # conjugate each unit once more by f_j^(2^(b-1)), letter by
                # letter from the last row; every letter lies in G_{j+1}
                last = rows[-1]
                units = {
                    k: tuple(u for g, e in last[k - 1][1][::-1] for u in last[g - 1][e][::-1])
                    for k in units
                }
            row = [None] * n
            for k, unit in units.items():
                if unit == ((k, 1),):  # f_j^(2^b) commutes with f_k
                    row[k - 1] = plain[k - 1]
                    continue
                words = [()]
                x = [0] * n
                stack = unit[::-1]
                for _ in range(1, p):
                    x = _collect_into(P, list(x), list(stack), table)
                    words.append(word_of(x)[::-1])
                row[k - 1] = tuple(words)
            rows.append(row)
        table[j - 1] = tuple(rows)
    return table


def _collect_into(P, e, stack, table=None):
    """Collect the letters of the list stack, in push order (the last one
    first), to the right of the exponent vector e; both are consumed, and
    the normal form is returned as a tuple."""
    # invariant: value = normalform(e) * product(stack, top first), and
    # e[k] == 0 for every k > top, e[top] != 0 (top = -1 when e is all zero)
    p = P.p
    power_rel = P.power_rel
    # table: the stored conjugates when the caller holds them, or the rows
    # that _conjugate_table is building
    conj = conjugates(P) if table is None else table
    tails = P._tails  # the tail memo, on a validated presentation only
    pop, push = stack.pop, stack.extend  # a letter with m = 0 is dropped
    last = top = P.n - 1
    while top >= 0 and not e[top]:
        top -= 1
    while stack:
        j, m = pop()
        if not (0 < m < p):
            if P.validated:
                # f_j lies in G_j, of order p^(n-j+1), and pow_ takes the rest
                # p-adically: O(n log p) collections, not m/p copies of f_j's
                # power word
                m %= p ** (P.n - j + 1)
                if m:
                    push(reversed(word_of(pow_(P, P.generator(j), m))))
                continue
            if not m:
                continue
            r = m % p
            q = (m - r) // p
            # f_j^m = f_j^r * (f_j^p)^q, powers of f_j commute with each other
            wj = power_rel[j - 1]
            rep = wj if q > 0 else inverse_word(wj)
            for _ in range(abs(q)):
                if rep:
                    push(reversed(rep))
            if r:
                stack.append((j, r))
            continue
        jj = j - 1
        if jj < top:
            # move f_j^h across the tail T = f_{j+1}^e.. f_{top+1}^e, where
            # h = 2^b is the lowest set bit of m: NF(e)*T*f_j^m =
            # NF(e)*f_j^h*T^{f_j^h}*f_j^{m-h}.
            h = m & -m
            memo = None
            if tails is not None:
                _, central, memo, _ = tails[jj]
                if central:  # T^{f_j^m} = T, so f_j^m crosses in one step
                    if e[jj] + m < p:
                        e[jj] += m
                        continue
                    h = m
            if m > h:
                stack.append((j, m - h))
            if memo is not None:
                # one lookup gives the digits right of f_j of T^{f_j^h}, or
                # of w_j T^{f_j^h} when f_j overflows
                s = e[jj] + h
                over = s >= p
                memo = memo[p + h if over else h]
                key = tuple(e[j:])
                digits = memo.get(key)
                if digits is None:
                    digits = _tail_entry(P, conj, memo, jj, h, over, key)
                e[j:] = digits
                e[jj] = s - p if over else s
                top = last
                while top >= 0 and not e[top]:
                    top -= 1
                continue
            # T^{f_j^h} is the product of the stored (f_k^e_k)^{f_j^h} in
            # row b.  Push in reverse processing order: f_j^{m-h} deepest,
            # then T^{f_j^h} from its last factor on; the tail is zeroed in
            # the same walk.  A central f_j^m has h = m, and every row of
            # its j holds plain powers.
            row = conj[jj][h.bit_length() - 1]
            for k in range(top, jj, -1):
                ek = e[k]
                if ek:
                    e[k] = 0
                    push(row[k][ek])
            m = h
        # nothing right of f_j now: place f_j^m directly
        s = e[jj] + m
        if s < p:
            e[jj] = s
            top = jj
            continue
        # f_j^p overflows into its power word, which lies right of f_j
        e[jj] = s - p
        if tails is not None:
            # on zero digits the power word is a normal form: write it
            e[j:], top = tails[jj][0]
            if top >= 0:
                continue
        else:
            wj = power_rel[jj]
            if wj:
                push(reversed(wj))
        top = jj
        while top >= 0 and not e[top]:
            top -= 1
    return tuple(e)


def _tail_entry(P, conj, memo, jj, h, over, tail):
    """Fill memo[tail] with the digits right of f_j, j = jj + 1, of
    T^{f_j^h}, or of w_j T^{f_j^h} when over, where T is the element whose
    digits right of f_j are tail, by one collection in G_{j+1}; return them.
    Key and value are the level's one copy of each tuple."""
    row = conj[jj][h.bit_length() - 1]
    stack = []
    for k in range(P.n - 1, jj, -1):
        ek = tail[k - jj - 1]
        if ek:
            stack += row[k][ek]
    if over:
        stack += reversed(P.power_rel[jj])
    digits = _collect_into(P, [0] * P.n, stack, conj)[jj + 1:]
    canon = P._tails[jj][3]
    digits = canon.setdefault(digits, digits)
    memo[canon.setdefault(tail, tail)] = digits
    return digits


def _fresh_tails(P):
    """A cold tail memo for the validated P (see conjugates()).

    Entry j-1 is (the digits right of f_j of its power word w_j and their
    top, whether f_j commutes with G_{j+1}, the level's dicts or None, the
    level's interned tail tuples).  The dicts are indexed by h for a
    crossing f_j^h and by p + h when f_j overflows; a central level has one
    dict, at every p + m, and nothing else."""
    p, n = P.p, P.n
    tails = []
    for j in range(1, n + 1):
        digits = [0] * n
        for g, m in P.power_rel[j - 1]:
            digits[g - 1] = m
        top = max((g - 1 for g, _ in P.power_rel[j - 1]), default=-1)
        central = not any(P.comm_rel.get((k, j)) for k in range(j + 1, n + 1))
        memo = None
        if 1 < p ** (n - j) <= MEMO_TAILS:
            if central:  # f_j^m crosses whole, and only when it overflows
                memo = [None] * p + [{}] * p
            else:
                memo = [None] * (2 * p)
                for b in range((p - 1).bit_length()):
                    memo[1 << b] = {}
                    memo[p + (1 << b)] = {}
        tails.append(((tuple(digits[j:]), top), central, memo, {}))
    return tails


def mul(P, a, b):
    return _collect_into(P, list(a), [(k + 1, b[k]) for k in range(P.n - 1, -1, -1) if b[k]])


def _solve(P, u, v):
    """The x with u x = v, by left division one pc letter at a time.

    cur = NF(u f_1^x_1 ... f_{k-1}^x_{k-1}) already agrees with v in digits
    1..k-1.  G_k is normal and |G_k / G_{k+1}| = p, so right multiplication
    by f_k^x adds x to digit k modulo p and leaves the digits before it
    alone: x_k = v_k - cur_k modulo p.
    """
    p = P.p
    table = conjugates(P)
    cur = list(u)
    x = [0] * P.n
    for k, vk in enumerate(v):
        xk = (vk - cur[k]) % p
        if xk:
            x[k] = xk
            _collect_into(P, cur, [(k + 1, xk)], table)
    return tuple(x)


def inv(P, a):
    return _solve(P, a, identity(P))


def comm(P, a, b):
    """[a, b] = a^-1 b^-1 a b, the x with b a x = a b."""
    return _solve(P, mul(P, b, a), mul(P, a, b))


def conj(P, a, t):
    """a^t = t^-1 a t, the x with t x = a t."""
    return _solve(P, t, mul(P, a, t))


def _power_word(P, x, d):
    """A word for x^d, d >= 0: d copies of x's word when d < 4, else the
    normal form of x^d by squaring, x^(2^b) for each bit of d multiplied
    over the set bits, O(log d) products; powers of x commute."""
    if d < 4:
        return word_of(x) * d
    acc = None
    while True:
        if d & 1:
            acc = x if acc is None else mul(P, acc, x)
        d >>= 1
        if not d:
            return word_of(acc)
        x = mul(P, x, x)


def _p_powers(P, a, limit=None):
    """The terms a^(p^i) = (a^(p^(i-1)))^p with p^i <= limit, each raised
    to the p by _power_word, stopping at the last term that limit needs or
    before the identity; with no limit, ord(a) is p to the number of
    terms."""
    p, one = P.p, identity(P)
    chain = []
    x = tuple(a)
    while x != one:
        if len(chain) == P.n:
            raise SizeCap(f"element order exceeded group order, arithmetic bug: {a}")
        chain.append(x)
        if limit is not None and p ** len(chain) > limit:
            break
        x = collect(P, _power_word(P, x, p))
    return chain


def pow_(P, a, k):
    """a^k as the product of (a^(p^i))^(k_i) over the base-p digits k_i of k,
    collected as one word; powers of a commute.  A negative k is first
    reduced modulo ord(a), so no inverse is formed."""
    p = P.p
    if k < 0:
        chain = _p_powers(P, a)
        k %= p ** len(chain)
    else:
        chain = _p_powers(P, a, k)
    w = []
    for x in chain:
        k, digit = divmod(k, p)
        w += _power_word(P, x, digit)
    return collect(P, w)


def element_order(P, a):
    """Least k >= 1 with a^k = 1; always a power of p in a p-group."""
    return P.p ** len(_p_powers(P, a))


def size_cap(**given):
    """The SizeCap for a p over MAX_P or an n over MAX_N, naming the values given."""
    got = ", ".join(f"{k}={v}" for k, v in given.items())
    return SizeCap(f"p <= {MAX_P} and n <= {MAX_N} required, got {got}")


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_word(P, w, min_index, context):
    last = 0
    for g, m in w:
        if not (1 <= g <= P.n):
            raise BadWeight(f"{context}: generator index {g} out of range 1..{P.n}")
        if g <= min_index:
            raise BadWeight(f"{context}: index {g} <= {min_index} violates weighted form")
        if g <= last:
            raise ValueError(f"{context}: indices must be strictly increasing, got {g} after {last}")
        last = g
        if not (1 <= m < P.p):
            raise ValueError(f"{context}: exponent {m} not in 1..{P.p - 1}")


def validate(P):
    """Run the local consistency battery; return the presentation marked validated.

    Checks, for the collector defined above:
      - f_k (f_j f_i) = (f_k f_j) f_i for all k > j > i
      - f_j^p f_i = f_j^{p-1} (f_j f_i)  and  f_j (f_i^p) = (f_j f_i) f_i^{p-1} for j > i
      - f_i f_i^p = f_i^p f_i for all i (the power rule's overlap with itself)
      - every defn[i] collects to f_i
    Together these are the standard consistency conditions for a weighted pc
    presentation, so passing them guarantees |G| = p^n and unique normal forms.
    Last, _check_frattini_split makes Phi(G) = <f_{d+1}, ..., f_n>, which lets
    automorphisms.verify read surjectivity off the first d exponents.
    """
    if P.p > MAX_P or P.n > MAX_N:
        raise size_cap(p=P.p, n=P.n)
    if not _is_prime(P.p):
        raise ValueError(f"p = {P.p} is not prime")
    if P.n < 1:
        raise ValueError("need at least one generator")
    if len(P.power_rel) != P.n:
        raise ValueError(f"power_rel must have length n={P.n}")
    for i in range(1, P.n + 1):
        _check_word(P, P.power_rel[i - 1], i, f"power_rel[{i}]")
    for (i, j), w in P.comm_rel.items():
        if not (1 <= j < i <= P.n):
            raise ValueError(f"comm_rel key ({i},{j}) needs 1 <= j < i <= n")
        _check_word(P, w, i, f"comm_rel[{i},{j}]")
    d = P.minimal_count
    if not (1 <= d <= P.n):
        raise ValueError(f"minimal_count {d} out of range 1..{P.n}")
    for i, tag in P.defn.items():
        if not (d < i <= P.n):
            raise BadDefinition(
                f"defn[{i}]: only non-minimal generators ({d + 1}..{P.n}) take definitions"
            )
        if tag[0] == "pow":
            if not (1 <= tag[1] < i):
                raise BadDefinition(f"defn[{i}] = pow({tag[1]}): index must be < {i}")
        elif tag[0] == "comm":
            if not (1 <= tag[1] < i and 1 <= tag[2] < i):
                raise BadDefinition(f"defn[{i}] = comm{tag[1:]}: indices must be < {i}")
        else:
            raise BadDefinition(f"defn[{i}]: unknown tag {tag[0]!r}")

    p = P.p
    for i in range(1, P.n + 1):
        lhs = collect(P, ((i, p + 1),))  # = f_i * (f_i^p word)
        rhs = mul(P, collect(P, ((i, p),)), P.generator(i))
        if lhs != rhs:
            raise ConsistencyViolation("power/power", (i,), lhs, rhs)
    for j in range(2, P.n + 1):
        for i in range(1, j):
            fji = collect(P, ((j, 1), (i, 1)))
            lhs = mul(P, collect(P, ((j, p),)), P.generator(i))
            rhs = collect(P, ((j, p - 1),) + word_of(fji))
            if lhs != rhs:
                raise ConsistencyViolation("power/swap", (j, i), lhs, rhs)
            lhs = collect(P, ((j, 1),) + word_of(collect(P, ((i, p),))))
            rhs = mul(P, fji, collect(P, ((i, p - 1),)))
            if lhs != rhs:
                raise ConsistencyViolation("swap/power", (j, i), lhs, rhs)
    for k in range(3, P.n + 1):
        fk = P.generator(k)
        for j in range(2, k):
            fkj = collect(P, ((k, 1), (j, 1)))
            for i in range(1, j):
                lhs = mul(P, fk, collect(P, ((j, 1), (i, 1))))
                rhs = mul(P, fkj, P.generator(i))
                if lhs != rhs:
                    raise ConsistencyViolation("associativity", (k, j, i), lhs, rhs)

    for i, tag in sorted(P.defn.items()):
        if tag[0] == "pow":
            value = collect(P, ((tag[1], p),))
        else:
            value = comm(P, P.generator(tag[1]), P.generator(tag[2]))
        if value != P.generator(i):
            raise BadDefinition(f"defn[{i}] = {tag} collects to {value}, not f_{i}")
    _check_frattini_split(P)

    V = dataclasses.replace(P, validated=True)
    object.__setattr__(V, "_conjugates", conjugates(P))
    object.__setattr__(V, "_tails", _fresh_tails(V))
    return V


def _check_frattini_split(P):
    """Require Phi(G) = <f_{d+1}, ..., f_n> for d = minimal_count.

    Each f_i with i > d must carry a defn tag, so it is a p-th power or a
    commutator and lies in Phi(G).  The power relations of f_1..f_d and the
    commutator relations among them must use only f_{d+1}..f_n, so the
    quotient by the normal subgroup <f_{d+1}, ..., f_n> is elementary abelian
    and that subgroup contains Phi(G).  A generator that breaks either rule
    needs a def line.
    """
    d = P.minimal_count
    for i in range(d + 1, P.n + 1):
        if i not in P.defn:
            raise BadDefinition(f"f_{i} is not minimal (d = {d}) but has no definition")
    rels = [(f"f_{i}^{P.p}", P.power_rel[i - 1]) for i in range(1, d + 1)]
    rels += [
        (f"[f_{i},f_{j}]", P.comm_rel.get((i, j), ()))
        for i in range(2, d + 1)
        for j in range(1, i)
    ]
    for name, w in rels:
        low = [g for g, _ in w if g <= d]
        if low:
            raise BadDefinition(
                f"relation {name} uses f_{low[0]}, so f_{low[0]} lies in the Frattini "
                "subgroup and is not minimal; give it a def line"
            )
