"""Subgroup-level computations: closures, centers, centralizers, central
series, Frattini subgroup, maximal subgroups, omega_1, ranks.

A subgroup is its canonical induced pc sequence (Laue, Neubueser &
Schoenwaelder, SOGOS, 1984; Holt, Eick & O'Brien, Handbook of Computational
Group Theory, ch. 8), computed by pure collection: one element for each pc
position k where the subgroup H has an element whose first nonzero digit is
digit k, with that digit 1 and zeros at the other leading positions.  It is
the lex-least element of H in its slice, so it is what reading the least
element of each layer off a membership mask gave, and Subgroup.gens lists
the sequence from the f_n layer up.  Membership is sifting; equality,
containment and hashing go through the sequence, and |H| = p^len.

Closures add p-th powers and commutators (and conjugates, for a normal
closure) until sifting leaves nothing.  Centralizers, centers, the upper
central series and omega_1 are kernels computed down the pc series
G_k = <f_k, ..., f_n>: on K_k = {x in H : f(x) in G_k N}, each map f used
here (x -> [x, s], and x -> x^p where that is additive) is, modulo
G_{k+1} N, a homomorphism into the central layer G_k N / G_{k+1} N, so
K_{k+1} is the kernel of a linear map over F_p on K_k's sequence.
validate() makes Phi(G) = G_{d+1}, so G/Phi(G) is read off the first d
digits and the maximal subgroups are the preimages of its hyperplanes.  No
function here holds an array of size |G|; exponent and agemo alone scan G,
under ELEMENT_CAP, and exponent skips the scan when the class is below p.
maximal_subgroups lists (p^d - 1)/(p - 1) subgroups, under the same cap.
All functions take a validated presentation and are pure; the results that
depend on P alone (the center, the central series, the maximal subgroups,
...) are kept in P._memo by presentation.memoized, and freed with P.  So is
the one power memo, P._memo[_power]: (h, e) -> h^e for each sequence element
h and 0 < e < p that sifting, coset reduction, kernel products and the
listing of a subgroup's elements multiply by, shared by every subgroup and
call on P.  A subgroup's rank and a quotient's are differences of sequence
lengths.
"""

import itertools
from collections import namedtuple

from . import presentation as pc
from .errors import NotAbelian, NotNormal, SizeCap
from .groupfile import word_text
from .presentation import ELEMENT_CAP


class Subgroup:
    """A subgroup as its canonical induced pc sequence; gens lists it from
    the f_n layer up (see the module docstring)."""

    def __init__(self, parent, seq):
        """seq: the canonical sequence, first leading position first."""
        self.parent = parent
        self.gens = tuple(seq)[::-1]
        self.order = parent.p ** len(self.gens)
        self._lead = {_leading(h): h for h in self.gens}

    @property
    def elements(self):
        """The elements as exponent tuples, in lexicographic order."""
        return tuple(sorted(_products(self.parent, self.gens)))

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        x = pc.normal_form(self.parent, e)
        return x is not None and _sift(self.parent, self._lead, x)[1] < 0

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.gens == other.gens

    def __le__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (
            self.parent is other.parent
            and self.order <= other.order
            and all(h in other for h in self.gens)
        )

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        gens = ", ".join(word_str(g) for g in self.gens) or "1"
        return f"<subgroup of {self.parent.name} order {self.order} = <{gens}>>"


def word_str(e):
    """Render a normal form in the group-file word syntax."""
    return word_text(pc.word_of(e))


def _leading(x):
    """Position of x's first nonzero digit, -1 for the identity."""
    return next((i for i, v in enumerate(x) if v), -1)


def _power(P, h, e):
    """h^e, through P's power memo (see the module docstring)."""
    powers = P._memo.setdefault(_power, {})
    y = powers.get((h, e))
    if y is None:
        y = powers[h, e] = pc.pow_(P, h, e)
    return y


def _sift(P, lead, x):
    """(r, i): x right-multiplied by powers of the sequence elements lead[k]
    (leading digit 1 at k) to zero its digits at their positions, from the
    first digit on, until the first nonzero digit i that no element leads.
    Right multiplication by an element of G_k leaves the digits before k
    alone and adds to digit k.  i = -1 when r is the identity, that is, when
    x lies in the subgroup that an induced sequence spans."""
    p = P.p
    for i in range(P.n):
        a = x[i]
        if a:
            h = lead.get(i)
            if h is None:
                return x, i
            x = pc.mul(P, x, _power(P, h, p - a))
    return x, -1


def least_in_coset(P, H, x):
    """The lex-least element of the coset x H; x must be a normal form, else
    ValueError."""
    return _least(P, H._lead, pc.checked_form(P, x, "element"))


def _least(P, lead, x):
    """The lex-least element of x H, for H spanned by the induced sequence
    lead (position -> element): x with the digit at each leading position
    zeroed in turn.  Between two elements of x H that agree before position
    k, digit k can differ only when k leads, so the digits left are forced."""
    p = P.p
    for k in sorted(lead):
        if x[k]:
            x = pc.mul(P, x, _power(P, lead[k], p - x[k]))
    return x


def _close(P, lead, queue, conjugators=()):
    """Extend the induced sequence lead (position -> element, updated in
    place) to that of the subgroup generated by it and the queued elements,
    and normalized by the conjugators.  Each element that does not sift is
    scaled to leading digit 1 and added, and its p-th power and its
    commutators with the sequence and the conjugators are queued.  When the
    queue is empty every such power and commutator sifts, so the products
    of powers of the sequence, taken in order, are the whole subgroup."""
    p = P.p
    while queue:
        r, i = _sift(P, lead, queue.pop())
        if i < 0:
            continue
        if r[i] != 1:
            r = pc.pow_(P, r, pow(r[i], -1, p))
        queue.append(pc.pth_power(P, r))
        queue += [pc.comm(P, r, h) for h in lead.values()]
        queue += [pc.comm(P, r, g) for g in conjugators]
        lead[i] = r
    return lead


def _subgroup(P, lead):
    """The Subgroup that the induced sequence lead spans: each element gets
    zeros at the deeper leading positions, deepest first."""
    positions = sorted(lead)
    canon = {}
    for i in reversed(positions):
        canon[i] = _least(P, {j: canon[j] for j in positions if j > i}, lead[i])
    return Subgroup(P, [canon[i] for i in positions])


def _products(P, gens):
    """Every h_1^a_1 ... h_r^a_r over the sequence gens (deepest first)."""
    out = [pc.identity(P)]
    for h in gens:
        out += [pc.mul(P, _power(P, h, a), y) for a in range(1, P.p) for y in out]
    return out


def _solve_mod_p(p, vectors, target=None):
    """Linear algebra over F_p on the images v_0, v_1, ... of a sequence.

    Returns (kernel, solution).  kernel holds, for each i whose v_i lies in
    the span of v_(i+1), ..., a combination {i: 1, j: c_j (j > i)} with
    v_i + sum c_j v_j = 0.  solution is a combination {j: c_j} with
    sum c_j v_j = target, or None when there is none (or no target)."""
    rows = []  # (pivot, row, combination giving row); each row is 0 at earlier pivots

    def reduce(v, comb):
        for pivot, row, rc in rows:
            a = v[pivot]
            if a:
                v = [(x - a * y) % p for x, y in zip(v, row)]
                for j, c in rc.items():
                    comb[j] = (comb.get(j, 0) - a * c) % p
        return v, comb

    kernel = []
    for i in range(len(vectors) - 1, -1, -1):
        v, comb = reduce(list(vectors[i]), {i: 1})
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            kernel.append(comb)
        else:
            s = pow(v[pivot], -1, p)
            rows.append((pivot, [x * s % p for x in v], {j: c * s % p for j, c in comb.items()}))
    solution = None
    if target is not None:
        v, comb = reduce(list(target), {})
        if not any(v):  # then target + sum comb[j] v_j = 0
            solution = {j: -c % p for j, c in comb.items()}
    return kernel[::-1], solution


def _product(P, seq, comb):
    """prod seq[j]^comb[j] over j in increasing order."""
    x = pc.identity(P)
    for j in sorted(comb):
        if comb[j]:
            x = pc.mul(P, x, _power(P, seq[j], comb[j]))
    return x


def _layer_values(P, seq, maps, k, N, values):
    """The (len(seq), len(maps)) matrix of digit k of f(c) modulo N, for c
    in seq and f in maps, where f(c) lies in G_k N and k leads no element
    of N.  values caches (c, map index) -> f(c) sifted by N."""
    out = []
    for c in seq:
        row = []
        for m, f in enumerate(maps):
            key = (c, m)
            y = values.get(key)
            if y is None:
                y = values[key] = _sift(P, N._lead, f(c))
            r, i = y
            assert i < 0 or i >= k, "a map left the layer it should lie in"
            row.append(r[k] if i == k else 0)
        out.append(row)
    return out


def kernel(P, H, maps, N=None):
    """{x in H : f(x) in N for every f in maps}, N normal (default trivial).

    Each map must be, on K_k = {x in H : f(x) in G_k N for every f}, a
    homomorphism modulo G_{k+1} N into G_k N / G_{k+1} N: x -> [x, s] always
    is, since that layer is central, and x -> x^p is on abelian H and, for
    odd p, on any H of class at most 2.  Then K_{k+1} is the kernel of the
    linear map that the layer's digit gives on the exponents of K_k's
    sequence, and K_n is the answer."""
    N = trivial_subgroup(P) if N is None else N
    values = {}
    seq = list(H.gens[::-1])
    for k in range(P.n):
        if k in N._lead:  # G_k N = G_{k+1} N: no condition here
            continue
        vectors = _layer_values(P, seq, maps, k, N, values)
        if any(map(any, vectors)):
            combs, _ = _solve_mod_p(P.p, vectors)
            seq = [_product(P, seq, comb) for comb in combs]
    return _subgroup(P, {_leading(x): x for x in seq})


def commutators_with(P, targets):
    """The maps x -> [x, s], one per s in targets."""
    return [lambda x, s=tuple(s): pc.comm(P, x, s) for s in targets]


def conjugator(P, xs, ys):
    """The lex-least t with x^t = y for every pair of xs and ys, or None.

    Solved down the pc series (Handbook of Computational Group Theory,
    ch. 8).  Suppose t solves the equations modulo G_k, and let
    D = {z : [y, z] in G_k for every y}; then t D is every solution modulo
    G_k.  Modulo G_(k+1), x^(tz) = y [y, z] e with e = y^-1 x^t in G_k,
    both factors central in G/G_(k+1), and z -> [z, y] is a homomorphism
    from D into that layer.  So the digit k of [z, y] must equal that of
    x^t less that of y: a linear system over F_p on D's sequence, whose
    kernel is the next D.  At the end t C_G(ys) is every solution, and t
    is reduced to its lex-least element."""
    p = P.p
    ys = [tuple(map(int, y)) for y in ys]
    maps = commutators_with(P, ys)
    trivial = trivial_subgroup(P)
    t, seq = pc.identity(P), P.generators()
    values = {}
    images = [tuple(x) for x in xs]  # x^t
    for k in range(P.n):
        target = [(b[k] - y[k]) % p for b, y in zip(images, ys)]
        vectors = _layer_values(P, seq, maps, k, trivial, values)
        if not any(target) and not any(map(any, vectors)):
            continue
        combs, solution = _solve_mod_p(p, vectors, target)
        if solution is None:
            return None
        if any(solution.values()):
            t = pc.mul(P, t, _product(P, seq, solution))
            images = [pc.conj(P, x, t) for x in xs]
        seq = [_product(P, seq, comb) for comb in combs]
    if images != ys:
        return None
    return _least(P, {_leading(z): z for z in seq}, t)


def least_outside(A, B):
    """The lex-least element of the subgroup A outside the subgroup B, or
    None when A <= B.  With a_1, ..., a_r the canonical sequence of A, first
    leading position first, and a_i the deepest one outside B, the later a_j
    span a subgroup of B, so every element that leads with a_i's position
    and digit 1 lies outside B, every element outside B leads no deeper,
    and the least of them is the canonical a_i."""
    return next((h for h in A.gens if h not in B), None)


def closure(P, S):
    """Smallest subgroup containing S (empty S gives 1); each element of S
    must be a normal form, else ValueError."""
    seeds = [pc.checked_form(P, x, "generator") for x in S]
    return _subgroup(P, _close(P, {}, seeds))


@pc.memoized
def whole_group(P):
    """G, whose layer generators are f_n, ..., f_1."""
    return Subgroup(P, P.generators())


def trivial_subgroup(P):
    return Subgroup(P, ())


def _minimal_generators(P):
    """f_1, ..., f_d, which generate G since Phi(G) = G_{d+1}."""
    return P.generators()[: P.minimal_count]


def centralizer(P, S):
    """C_G(S); S may be a Subgroup (generator test) or a single Element,
    which must be a normal form, else ValueError."""
    targets = S.gens if isinstance(S, Subgroup) else (pc.checked_form(P, S, "element"),)
    return kernel(P, whole_group(P), commutators_with(P, targets))


@pc.memoized
def center(P):
    return kernel(P, whole_group(P), commutators_with(P, _minimal_generators(P)))


def center_of(P, H):
    """Z(H): the center of H as a group, embedded back in G."""
    return kernel(P, H, commutators_with(P, H.gens))


def is_abelian(P, H=None):
    gens = _minimal_generators(P) if H is None else H.gens
    one = pc.identity(P)
    return all(pc.comm(P, a, b) == one for i, a in enumerate(gens) for b in gens[:i])


def _normal_closure(P, seeds, conjugators):
    """The smallest subgroup containing the seeds and normalized by the
    conjugators (generators of an overgroup)."""
    return _subgroup(P, _close(P, {}, list(seeds), conjugators))


def commutator_subgroup(P, A, B):
    """[A, B]: the normal closure in <A, B> of the generator commutators."""
    seeds = [pc.comm(P, a, b) for a in A.gens for b in B.gens]
    return _normal_closure(P, seeds, A.gens + B.gens)


@pc.memoized
def derived(P):
    G = whole_group(P)
    return commutator_subgroup(P, G, G)


@pc.memoized
def agemo(P):
    """G^p = <g^p : g in G>, by a scan of G under ELEMENT_CAP."""
    pc.check_enumerable(P.order, "G")
    lead = {}
    for x in itertools.product(range(P.p), repeat=P.n):
        y = pc.pth_power(P, x)
        if _sift(P, lead, y)[1] >= 0:
            _close(P, lead, [y])
    return _subgroup(P, lead)


def _frattini_of(P, H):
    """Phi(H) = H^p H': the normal closure in H of the p-th powers and
    pairwise commutators of H's generators (the quotient by it is
    elementary abelian and generated by the images of those generators)."""
    seeds = [pc.pth_power(P, h) for h in H.gens]
    seeds += [pc.comm(P, a, b) for i, a in enumerate(H.gens) for b in H.gens[:i]]
    return _normal_closure(P, seeds, H.gens)


@pc.memoized
def frattini(P):
    """Phi(G) = G_{d+1} = <f_{d+1}, ..., f_n>: the elements whose first d
    digits are zero.  Each of its layers is full, so its layer generators
    are f_n, ..., f_{d+1}."""
    return Subgroup(P, P.generators()[P.minimal_count :])


# kind: "upper" or "lower"; terms: Subgroups, upper 1 = Z_0 <= Z_1 <= ... = G,
# lower G = g_1 >= ... >= 1
CentralSeries = namedtuple("CentralSeries", "kind terms")


@pc.memoized
def upper_central_series(P):
    """Z_{i+1} = {x : [x, f_j] in Z_i for j <= d}, the centralizer of G
    modulo Z_i."""
    G = whole_group(P)
    maps = commutators_with(P, _minimal_generators(P))
    terms = [trivial_subgroup(P), center(P)]
    while terms[-1].order < P.order:
        nxt = kernel(P, G, maps, terms[-1])
        if nxt.order == terms[-1].order:
            raise AssertionError("upper central series stalled below G")  # p-groups are nilpotent
        terms.append(nxt)
    return CentralSeries("upper", tuple(terms))


@pc.memoized
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


@pc.memoized
def least_order_p_outside_center(P):
    """The lex-least element of order p in Z_2(G) outside Z(G), or None.

    For odd p, Z_2(G) has class at most 2 < p, so it is regular and its
    elements of order dividing p form a subgroup (Huppert, Endliche Gruppen
    I, III.10), the kernel of x -> x^p taken down the series: within it,
    (xy)^p = x^p y^p [y, x]^(p(p-1)/2) and [y, x]^p = [y^p, x], which lies
    one layer below y^p.  So the answer is the lex-least element of a
    subgroup outside a subgroup.  For p = 2 no such subgroup need exist,
    and Z_2(G) is scanned in lex order (|G| <= 2^16)."""
    Z, Z2 = center(P), second_center(P)
    p, one = P.p, pc.identity(P)
    if p == 2:
        return next((x for x in Z2.elements if x not in Z and pc.pth_power(P, x) == one), None)
    omega = kernel(P, Z2, [lambda x: pc.pth_power(P, x)])
    return least_outside(omega, Z)


@pc.memoized
def maximal_subgroups(P):
    """All index-p subgroups: preimages of hyperplanes of G/Phi(G), whose
    coordinates are the first d digits taken as (e_d, ..., e_1).  With c_k
    the coefficient of digit k and j the last digit with c_j != 0, the
    canonical sequence takes, for every other k < d, the element with digit
    k equal to 1, digit j equal to -c_k / c_j and no other digit, then
    f_{d+1}, ..., f_n.  More than ELEMENT_CAP of them raises SizeCap before
    any is built: the report lists them all and the hypotheses visit each."""
    p, n, d = P.p, P.n, P.minimal_count
    count = (p**d - 1) // (p - 1)
    if count > ELEMENT_CAP:
        raise SizeCap(f"G has {count} maximal subgroups, over the enumeration cap {ELEMENT_CAP}")
    phi = P.generators()[d:]
    out = []
    for v in _dual_vectors(p, d):
        c = v[::-1]
        j = max(k for k in range(d) if c[k])
        scale = pow(c[j], -1, p)
        seq = []
        for k in range(d):
            if k != j:
                x = [0] * n
                x[k] = 1
                x[j] = -c[k] * scale % p if k < j else 0
                seq.append(tuple(x))
        out.append(Subgroup(P, seq + phi))
    return tuple(out)


@pc.memoized
def maximal_centers(P):
    """Z(M) for each maximal subgroup M, in the order of maximal_subgroups."""
    return tuple(center_of(P, M) for M in maximal_subgroups(P))


def _dual_vectors(p, d):
    """Nonzero vectors of F_p^d up to scalar, first nonzero entry 1, lex
    order: the more leading zeros, the earlier."""
    vecs = []
    for i in range(d - 1, -1, -1):
        head = (0,) * i + (1,)
        vecs += [head + rest for rest in itertools.product(range(p), repeat=d - 1 - i)]
    return vecs


def omega1(P, A):
    """{a in A : a^p = 1}, for abelian A."""
    if not is_abelian(P, A):
        raise NotAbelian(f"omega1 needs an abelian subgroup, got order {A.order} non-abelian")
    return kernel(P, A, [lambda x: pc.pth_power(P, x)])


def exponent(P, H=None):
    """exp(H): largest element order (H defaults to G).

    Below class p, G is regular (P. Hall), so is H, and the elements of
    order dividing p^k form a subgroup; exp(H) is then the largest order of
    a generator.  Otherwise H is scanned, under ELEMENT_CAP, generators
    first, until an order reaches the bound p^c of _p_class.  The scan
    keeps every order it finds: each candidate's p-power chain stops at its
    first term whose order is known, since chains meet."""
    gens = _minimal_generators(P) if H is None else H.gens
    if nilpotency_class(P) < P.p:
        return max((pc.element_order(P, h) for h in gens), default=1)
    K = whole_group(P) if H is None else H
    pc.check_enumerable(K.order, "G" if H is None else "H")
    bound, best = P.p ** _p_class(P), 1
    orders = {}  # element -> order, for every chain term met so far
    for x in itertools.chain(gens, _leading_ones(P, K.gens)):
        chain = []
        for y in pc._p_powers(P, x):
            if y in orders:
                break
            chain.append(y)
        else:
            y = None  # the chain reached the identity
        order = orders.get(y, 1)
        for y in reversed(chain):
            order *= P.p
            orders[y] = order
        best = max(best, order)
        if best == bound:
            break
    return best


def _p_class(P):
    """The length c of the lower exponent-p central series, P_1 = G and
    P_(i+1) = [P_i, G] P_i^p, each the normal closure of the commutators of
    P_i's generators with G's and their p-th powers (P_i / [P_i, G] is
    central, so abelian).  x^(p^k) lies in P_(k+1), so exp(G) <= p^c."""
    gens = _minimal_generators(P)
    term, c = whole_group(P), 0
    while term.order > 1:
        seeds = [pc.comm(P, x, g) for x in term.gens for g in gens]
        term = _normal_closure(P, seeds + [pc.pth_power(P, x) for x in term.gens], gens)
        c += 1
    return c


def _leading_ones(P, gens):
    """The elements of the subgroup with canonical sequence gens (deepest
    first) whose leading digit is 1: h y for each h and each product y of
    the deeper ones.  Every other element but 1 is a power x^a of one of
    them, a prime to p, so it has the same order."""
    deeper = [pc.identity(P)]
    for k, h in enumerate(gens):
        yield from (pc.mul(P, h, y) for y in deeper)
        if k + 1 < len(gens):
            deeper += [pc.mul(P, _power(P, h, a), y) for a in range(1, P.p) for y in deeper]


def rank(P, H=None):
    """d(H) = log_p |H / Phi(H)|, with Phi(H) computed inside H; d(G) is
    minimal_count, as validate() makes Phi(G) = G_{d+1}."""
    if H is None:
        return P.minimal_count
    return len(H.gens) - len(_frattini_of(P, H).gens)


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
    ea = all(pc.pth_power(P, a) in B for a in A.gens) and all(
        pc.comm(P, a, b) in B for i, a in enumerate(A.gens) for b in A.gens[:i]
    )
    rank = len(A.gens) - len(B.gens) if ea else None
    return {"order": order, "elementary_abelian": ea, "rank": rank}
