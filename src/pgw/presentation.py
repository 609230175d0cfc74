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
second collector to bootstrap it.  When f_j^m is placed and digit j
reaches p, f_j^p is replaced by its power word w_j, which is pushed.

A letter f_j^m outside 0 < m < p is replaced by the normal-form word of
pow_(f_j, m), which reduces m modulo |G| and collects only letters in
range, so a huge m costs O(n log p) collections.  That is one rule on any
presentation, but ord(f_j) divides |G| only once the presentation is
consistent: on an unvalidated one such a letter means f_j^m only after
validate passes, and the consistency battery spells its checks with
letters in range.

A validated presentation also carries a tail memo (see conjugates()), and
two shortcuts follow from its normal forms.  When f_j commutes with every
f_k, k > j, f_j^m crosses any tail unchanged, so it is added to digit j in
place.  Otherwise, on a memoized level, one lookup keyed by the tail's
digits gives those of T^{f_j^h}, or of w_j T^{f_j^h} when f_j^h overflows
into w_j, and they are written at once instead of pushing one stored word
per nonzero digit and collecting them again.  The consistency battery
collects on the unvalidated object, which holds no memo, so its verdicts
and messages come from the plain collector above.

inv, comm and conj are left division (Sims, Computation with Finitely Presented Groups, ch. 9):
_solve finds the x with u x = v one pc letter at a time, since right
multiplication by f_k^x adds x to digit k modulo p and leaves the digits
before it alone.  So inv(a) solves a x = 1, comm(a, b) solves b a x = a b
and conj(a, t) solves t x = a t.  pow_ writes a^k as the product of
(a^(p^i))^(k_i) over the base-p digits k_i of k, one collection of the
concatenated words, with each a^(p^i) raised to the p from the term
before it.  k is first reduced modulo |G|, which ord(a) divides, so a
negative k forms no inverse.  A power x^d with d >= 4 is taken by
squaring, O(log d) products, and a smaller one is spelled as d copies of
x's word, so pow_ costs O(n log p) products.
"""

from __future__ import annotations

import functools
import operator

from .errors import BadDefinition, BadWeight, ConsistencyViolation, SizeCap

MAX_P = 97
MAX_N = 16
ELEMENT_CAP = 200_000  # refuse to enumerate G, or any set of its elements, beyond desk scale
MEMO_TAILS = 729  # the most tails, p^(n-j), of a memoized pc level; see conjugates()
MEMO_KEYS = 2912  # the most keys a memoized pc level can take; see conjugates()


class Record:
    """Base of pgw's immutable records, each equal only to itself.  A
    subclass's __init__ writes its fields, named in order by _fields,
    straight into the instance __dict__; assigning or deleting an attribute
    afterwards raises AttributeError."""

    _fields = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __repr__(self):
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__name__}({args})"

    def replace(self, **changes):
        """A copy, built by the constructor, with the named fields changed."""
        return type(self)(**{k: getattr(self, k) for k in self._fields} | changes)


class PcPresentation(Record):
    """A pc presentation, unchecked until validate() returns a validated
    copy.  P.replace(...) makes an unvalidated copy with an empty _memo,
    which must go through validate() again; validated and _memo are no
    constructor arguments."""

    _fields = ("name", "p", "n", "power_rel", "comm_rel", "defn")

    def __init__(self, name, p, n, power_rel=(), comm_rel=None, defn=None):
        vars(self).update(
            name=name,
            p=p,
            n=n,
            power_rel=power_rel,  # length n, power_rel[i-1] = word for f_i^p, () = identity
            comm_rel={} if comm_rel is None else comm_rel,  # (i,j) i>j -> word for [f_i,f_j]
            defn={} if defn is None else defn,  # i -> ("pow", j) or ("comm", j, k)
            validated=False,  # set by validate() alone
            _memo={},  # see memoized()
        )

    @property
    def order(self):
        return self.p**self.n

    @property
    def minimal_count(self):
        """d: f_1..f_d are the minimal generators, and validate() holds the
        defn tags to exactly f_{d+1}..f_n."""
        return self.n - len(self.defn)

    def generator(self, i):
        """f_i as an element, 1-based."""
        e = [0] * self.n
        e[i - 1] = 1
        return tuple(e)

    def generators(self):
        return [self.generator(i) for i in range(1, self.n + 1)]


def memoized(f):
    """f(P), computed once per presentation object and kept in P._memo under
    the returned wrapper, so it is freed with P; an exception is not kept.
    P._memo is no constructor argument, so a copy made with P.replace()
    starts empty.  validate() also keeps the tail memo there (see conjugates())."""

    @functools.wraps(f)
    def cached(P):
        if cached not in P._memo:
            P._memo[cached] = f(P)
        return P._memo[cached]

    return cached


def identity(P):
    return (0,) * P.n


def normal_form(P, e):
    """e as a tuple of ints when it is a normal form of P, a length-n
    sequence of integers in 0..p-1 (a numpy integer or a bool counts as the
    int it stands for), else None."""
    try:
        x = tuple(map(operator.index, e))  # exact ints, on Python >= 3.10
    except TypeError:
        return None
    if len(x) != P.n or not (0 <= min(x, default=0) and max(x, default=0) < P.p):
        return None
    return x


def checked_form(P, e, what):
    """normal_form(P, e), or a ValueError that names e as what when it is no
    normal form; a tuple or list is shown as a tuple."""
    x = normal_form(P, e)
    if x is None:
        shown = tuple(e) if isinstance(e, (tuple, list)) else e
        raise ValueError(f"{what} {shown} is not a normal form: need {P.n} ints in 0..{P.p - 1}")
    return x


def word_of(e):
    """Normal-form word of an exponent vector."""
    return tuple([(i, ei) for i, ei in enumerate(e, 1) if ei])


def collect(P, w):
    """Collection from the left: normal form of the group element spelled by
    w.  A letter f_j^m outside 0 < m < p stands for pow_(f_j, m), with m
    taken modulo |G|; on an unvalidated presentation that is f_j^m only
    once the presentation is consistent."""
    stack = list(w)
    stack.reverse()
    return _collect_into(P, [0] * P.n, stack)


@memoized
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

    Beside the table sits the tail memo, P._memo[_fresh_tails], made fresh
    by validate() for the validated object only: the unvalidated object that
    the consistency battery collects on has none, and a P.replace() copy
    starts with an empty P._memo, so no two presentations share
    entries.  A key is (j, b, over, T): the tail's digits T right of f_j,
    the bit 2^b of the letter that crosses it, and whether f_j overflows
    into its power word; the entry is the digits of T^{f_j^(2^b)}, or of
    w_j T^{f_j^(2^b)}, collected once in G_{j+1} on the first miss.  A level
    whose f_j commutes with G_{j+1} needs the overflow key only, whatever
    the letter.  So level j can take p^(n-j) - 1 keys (nonzero tails) on
    such a level and 2 bit_length(p-1) (p^(n-j) - 1) on any other.  It is
    memoized when its tails number at most MEMO_TAILS = 729 (3^6, the
    largest level of the shipped groups) and its keys at most MEMO_KEYS =
    2912, the count of p = 3's 729-tail level.  Each entry shares one copy
    of each distinct tail tuple with the keys.  Other levels keep the push
    path: a level that is still mostly misses after a session costs more
    than it saves, since a miss does the push work it replaces and more.
    The bounds come from scripts/collector_scan.py, about 10^3 random
    products per group in a fresh interpreter.  The key bound drops the
    levels within 729 tails that take the most keys: against the tail bound
    alone, over 20 alternating rounds, random mul took 0.89x at p = 5 (its
    625-tail level, 3,744 keys) and 0.92x and 0.87x on the Heisenberg groups
    at p = 19 and 23 (3,600 and 5,280 keys).  The tail bound stays because
    the key bound alone lets in central levels of up to 2,913 tails: on
    C_{3^5} x h27 (the scan's c243h27), with its central 2,187-tail level
    memoized, random mul took 1.10x and inv 1.08x.
    """
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
    # that conjugates() is building; else P's, read from P._memo directly
    conj = table or P._memo.get(conjugates) or conjugates(P)
    tails = P._memo.get(_fresh_tails)  # the tail memo, on a validated presentation only
    pop, push = stack.pop, stack.extend
    last = top = P.n - 1
    while top >= 0 and not e[top]:
        top -= 1
    while stack:
        j, m = pop()
        if not (0 < m < p):
            # pow_ takes m modulo |G| p-adically, O(n log p) collections of
            # letters in range, and spells f_j^0 as the empty word
            push(reversed(word_of(pow_(P, P.generator(j), m))))
            continue
        jj = j - 1
        if jj < top:
            # move f_j^h across the tail T = f_{j+1}^e.. f_{top+1}^e, where
            # h = 2^b is the lowest set bit of m: NF(e)*T*f_j^m =
            # NF(e)*f_j^h*T^{f_j^h}*f_j^{m-h}.
            h = m & -m
            memo = None
            if tails is not None:
                central, memo, _ = tails[jj]
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
    canon = P._memo[_fresh_tails][jj][2]
    digits = canon.setdefault(digits, digits)
    memo[canon.setdefault(tail, tail)] = digits
    return digits


def _fresh_tails(P):
    """A cold tail memo for the validated P (see conjugates()).

    Entry j-1 is (whether f_j commutes with G_{j+1}, the level's dicts or
    None, the level's interned tail tuples).  The dicts are indexed by h for a
    crossing f_j^h and by p + h when f_j overflows; a central level has one
    dict, at every p + m, and nothing else."""
    p, n = P.p, P.n
    tails = []
    for j in range(1, n + 1):
        central = not any(P.comm_rel.get((k, j)) for k in range(j + 1, n + 1))
        memo = None
        keys = (p ** (n - j) - 1) * (1 if central else 2 * (p - 1).bit_length())
        if 0 < keys <= MEMO_KEYS and p ** (n - j) <= MEMO_TAILS:
            if central:  # f_j^m crosses whole, and only when it overflows
                memo = [None] * p + [{}] * p
            else:
                memo = [None] * (2 * p)
                for b in range((p - 1).bit_length()):
                    memo[1 << b] = {}
                    memo[p + (1 << b)] = {}
        tails.append((central, memo, {}))
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


def pth_power(P, x):
    """x^p, collected from _power_word's word for it."""
    return collect(P, _power_word(P, x, P.p))


def _p_powers(P, a, limit):
    """The terms a^(p^i) = (a^(p^(i-1)))^p with p^i <= limit, each raised
    to the p by _power_word, stopping at the last term that limit needs or
    before the identity; with limit |G|, ord(a) is p to the number of
    terms."""
    p, one = P.p, identity(P)
    chain = []
    x = tuple(a)
    while x != one:
        if len(chain) == P.n:
            raise AssertionError(f"the order of {a} exceeded the group order")
        chain.append(x)
        if p ** len(chain) > limit:
            break
        x = pth_power(P, x)
    return chain


def pow_(P, a, k):
    """a^k as the product of (a^(p^i))^(k_i) over the base-p digits k_i of k,
    collected as one word; powers of a commute.  k is first reduced modulo
    |G|, which ord(a) divides, so a negative k forms no inverse."""
    p = P.p
    k %= P.order
    w = []
    for x in _p_powers(P, a, k):
        k, digit = divmod(k, p)
        w += _power_word(P, x, digit)
    return collect(P, w)


def element_order(P, a):
    """Least k >= 1 with a^k = 1; always a power of p in a p-group."""
    return P.p ** len(_p_powers(P, a, P.order))


def size_cap(**given):
    """The SizeCap for a p over MAX_P or an n over MAX_N, naming the values given."""
    got = ", ".join(f"{k}={v}" for k, v in given.items())
    return SizeCap(f"p <= {MAX_P} and n <= {MAX_N} required, got {got}")


def check_enumerable(size, name):
    """Raise SizeCap when |name| = size is over ELEMENT_CAP, before a scan
    or a table of that many elements."""
    if size > ELEMENT_CAP:
        raise SizeCap(f"|{name}| = {size} exceeds the enumeration cap {ELEMENT_CAP}")


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
    """Run the local consistency battery; return a copy of P marked validated,
    the only place the flag is set.

    The defn tags must sit on exactly f_{d+1}..f_n, d = minimal_count, and
    defn[i] must be ("pow", j) or ("comm", j, k) with int indices below i.
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
    if d < 1:
        raise BadDefinition(f"{len(P.defn)} defn tags for {P.n} generators leave none minimal")
    for i, tag in P.defn.items():
        if not (d < i <= P.n):
            raise BadDefinition(
                f"defn[{i}]: only non-minimal generators ({d + 1}..{P.n}) take definitions"
            )
        kind = tag[0] if isinstance(tag, tuple) and tag else None
        if (
            kind not in ("pow", "comm")
            or len(tag) != (2 if kind == "pow" else 3)
            or not all(isinstance(j, int) for j in tag[1:])
        ):
            raise BadDefinition(
                f"defn[{i}] = {tag!r}: need ('pow', j) or ('comm', j, k), j and k ints"
            )
        if kind == "pow":
            if not (1 <= tag[1] < i):
                raise BadDefinition(f"defn[{i}] = pow({tag[1]}): index must be < {i}")
        elif not (1 <= tag[1] < i and 1 <= tag[2] < i):
            raise BadDefinition(f"defn[{i}] = comm{tag[1:]}: indices must be < {i}")

    p = P.p
    # f_i^p is the normal form of its power word, and f_i^(p+1) = f_i f_i^p
    powers = [collect(P, w) for w in P.power_rel]
    for i in range(1, P.n + 1):
        lhs = mul(P, P.generator(i), powers[i - 1])
        rhs = mul(P, powers[i - 1], P.generator(i))
        if lhs != rhs:
            raise ConsistencyViolation("power/power", (i,), lhs, rhs)
    for j in range(2, P.n + 1):
        for i in range(1, j):
            fji = collect(P, ((j, 1), (i, 1)))
            lhs = mul(P, powers[j - 1], P.generator(i))
            rhs = collect(P, ((j, p - 1),) + word_of(fji))
            if lhs != rhs:
                raise ConsistencyViolation("power/swap", (j, i), lhs, rhs)
            lhs = collect(P, ((j, 1),) + word_of(powers[i - 1]))
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
            value = powers[tag[1] - 1]
        else:
            value = comm(P, P.generator(tag[1]), P.generator(tag[2]))
        if value != P.generator(i):
            raise BadDefinition(f"defn[{i}] = {tag} collects to {value}, not f_{i}")
    _check_frattini_split(P)

    V = P.replace()
    object.__setattr__(V, "validated", True)
    V._memo[conjugates] = conjugates(P)
    V._memo[_fresh_tails] = _fresh_tails(V)
    return V


def _check_frattini_split(P):
    """Require Phi(G) = <f_{d+1}, ..., f_n> for d = minimal_count.

    validate() has checked that f_{d+1}..f_n each carry a defn tag that
    collects to them, so each is a p-th power or a commutator and lies in
    Phi(G).  The power relations of f_1..f_d and the commutator relations
    among them must use only f_{d+1}..f_n, so the quotient by the normal
    subgroup <f_{d+1}, ..., f_n> is elementary abelian and that subgroup
    contains Phi(G).  A generator that breaks this rule needs a def line.
    """
    d = P.minimal_count
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
