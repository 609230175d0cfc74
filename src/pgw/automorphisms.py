"""Automorphisms as generator-image maps.

A GenMap is an unverified candidate: one image per pc generator.  The
certificate is pure collection.  verify() checks that a map's images are
normal forms, numbers the distinct ones and hands the numbered row to
verify_coded(), which the oracle calls directly on whole blocks of rows.  It
checks them relation-major: each defining relation becomes an equality of
two words in the images, with no inverses and no table, compiled once per
presentation into a plan (_relation_plan, in P._memo): each side's start
image and letters, and the images the relation reads.  One row is collected
straight from its images; in a block, both sides are collected on the first
row of each distinct key of the images read, in row order, up to the first
row where they differ.  The oracle's sieve reads the same plan.
Surjectivity is Burnside's basis test: a verified endomorphism is onto iff
the images of f_1..f_d span G/Phi(G), which validate() makes the first d
exponents.  On top of that sit conjugation maps (inner_from), the inner
test, the maximal-subgroup extension map and the full witness
construction.  The inner test is a conjugacy solve down the pc series, by
collection.  The oracle labels whole blocks of maps with a second route,
one memoized table of the inner maps' image rows and their lex-least
conjugators, computed with the index algebra of tables.py, which only that
route imports, inside the functions.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import hypotheses as hp
from . import presentation as pc
from . import structure as st
from .errors import (
    CentralizerNotMaximal,
    CertificationFailed,
    InnerWitnessFound,
    NoEligibleU,
    NotSurjective,
    PreconditionFailed,
    RelationViolated,
    check_deadline,
)


class GenMap(pc.Record):
    _fields = ("parent", "images")

    def __init__(self, parent, images):
        vars(self).update(parent=parent, images=images)  # images[i] = candidate image of f_{i+1}


class Automorphism(GenMap):
    """A GenMap that verify certified, or a composite of certified maps."""


def identity_automorphism(P):
    return Automorphism(P, tuple(P.generators()))


def apply(A, x):
    """Image of x: substitute generator images into its normal-form word,
    A(f_1)^x_1 ... A(f_n)^x_n, and collect it as one word.  x must be a
    normal form, else ValueError."""
    x = pc.checked_form(A.parent, x, "element")
    w = [letter for img, e in zip(A.images, x) for letter in pc.word_of(img) * e]
    return pc.collect(A.parent, w)


def verify(A):
    """Certify a GenMap: every relation must hold under the map and the
    images must generate the group; a rejected map raises the error that
    verify_coded reports for it.

    Every image must be a normal form, a length-n tuple of ints in 0..p-1;
    anything else is a ValueError, as a wrong number of images is.  The
    collector would read (4, 0) on C3 x C3 as the word f_1^4 = f_1, but the
    certified map keeps its images as given, and is_inner, apply and the
    tables know each element by its normal form only.  The distinct normal
    forms are numbered in order and the row goes to verify_coded as
    numbers.  Entries are kept as ints, so a numpy integer or a bool becomes
    the int it stands for."""
    P = A.parent
    if len(A.images) != P.n:
        raise ValueError(f"need {P.n} images, got {len(A.images)}")
    number = {}
    row = [number.setdefault(pc.checked_form(P, x, "image"), len(number)) for x in A.images]
    forms = list(number)
    failed = verify_coded(P, forms, [row])
    if failed is not None:
        try:
            raise failed[1]
        finally:
            failed = None  # else the traceback's frame and the error keep each other alive
    return Automorphism(P, tuple(forms[c] for c in row))


def verify_coded(P, forms, coded, deadline=None):
    """Certify rows of image numbers by pure collection, relation by relation.

    Row k maps f_i to forms[coded[k][i - 1]], where forms are distinct normal
    forms and coded is a list of rows, each a sequence of n integers.  Each
    relation is an equality of words in the images: f_i^p = w holds iff
    A(f_i)^p = w(A), and [f_i, f_j] = w holds iff A(f_i) A(f_j) =
    A(f_j) A(f_i) w(A), where w(A) spells w in the images.  The relations go
    in the fixed order of _relation_plan, the powers of f_1..f_n, then the
    commutators [f_i, f_j] for i > j, each compiled once per presentation.
    Each side is collected from the exponent vector of the image it starts
    with.  One row is collected straight from its images.  While more than
    one row is live, the numbers of the images that a relation reads (A(f_i),
    A(f_j) and the images w spells) make one key per row, and rows with one
    key agree on the relation: both sides are collected on the first row of
    each key, in row order (_first_rows), and the scan stops at the first row
    whose sides differ, which give its message.  No inverse is formed; only a
    failing commutator relation is recomputed with comm for its message.
    Once every relation holds a row is an endomorphism, and by Burnside's
    basis theorem it is onto iff it is onto modulo Phi(G).  validate() makes
    Phi(G) = <f_{d+1}, ..., f_n> with d the minimal generator count, so the
    map is onto iff the first d exponents of A(f_1), ..., A(f_d) form a
    d x d matrix of rank d mod p, which structure._solve_mod_p tests on the
    first row of each distinct matrix, up to the first singular one.  Only
    the plan outlives a call, and nothing is read from the tables.

    A row drops out at its first failing relation, and so do the rows after
    it, which can no longer be the first to fail.  Returns None when every
    row is an automorphism, else (k, error) for the first failing row k, where
    error is the exception verify raises for that row alone.  deadline, a
    time.monotonic() value or None, is checked before each relation and
    raises OracleTimeout once passed, so one call over a large block still
    ends near the oracle's budget.
    """
    n, p = P.n, P.p
    plan = _relation_plan(P)
    stacks = [pc.word_of(x)[::-1] for x in forms]  # in the collector's push order
    collect, conj = pc._collect_into, pc.conjugates(P)  # looked up per call: a meter may wrap it
    m = len(coded)  # rows 0..m-1 hold every relation so far
    failed = None
    if m == 1:  # both sides straight from the row's images, written out: verify's path
        row = coded[0]
        words, starts = [stacks[c] for c in row], [forms[c] for c in row]
        for label, rel, word, _, ((s0, l0), (s1, l1)) in plan:
            if deadline is not None:  # no message to format on verify's path
                check_deadline(deadline, f"certifying {len(coded)} rows, at {label}")
            stack = []
            for g, e in l0:
                stack += words[g] * e
            lhs = collect(P, list(starts[s0]) if s0 is not None else [0] * n, stack, conj)
            stack = []
            for g, e in l1:
                stack += words[g] * e
            rhs = collect(P, list(starts[s1]) if s1 is not None else [0] * n, stack, conj)
            if lhs != rhs:
                return 0, _violation(P, forms, row, label, rel, word, lhs, rhs)
    else:

        def value(row, side):
            start, letters = side
            stack = []
            for g, e in letters:
                stack += stacks[row[g]] * e
            x = list(forms[row[start]]) if start is not None else [0] * n
            return collect(P, x, stack, conj)

        columns = list(zip(*coded))  # the live rows' image numbers, by generator
        for label, rel, word, reads, (left, right) in plan:
            if not m:
                return failed
            if deadline is not None:
                check_deadline(deadline, f"certifying {len(coded)} rows, at {label}")
            for q in _first_rows([columns[g] for g in reads]):
                row = coded[q]
                lhs, rhs = value(row, left), value(row, right)
                if lhs != rhs:
                    failed = q, _violation(P, forms, row, label, rel, word, lhs, rhs)
                    m = q
                    columns = [c[:m] for c in columns]
                    break
    if not m:
        return failed
    if not P.validated:
        return 0, ValueError("surjectivity needs a validated presentation")
    d = P.minimal_count
    if m == 1:
        if st._solve_mod_p(p, [forms[c][:d] for c in coded[0][:d]])[0]:  # rank < d
            return 0, NotSurjective("images do not generate the group")
        return failed
    # number the images' first d exponents, so that rows with the same
    # d x d matrix share one elimination
    heads = {}
    head = [heads.setdefault(f[:d], len(heads)) for f in forms]
    for k in _first_rows([[head[c] for c in column] for column in columns[:d]]):
        if st._solve_mod_p(p, [forms[c][:d] for c in coded[k][:d]])[0]:  # rank < d
            return k, NotSurjective("images do not generate the group")
    return failed


def _violation(P, forms, row, label, rel, word, lhs, rhs):
    """The RelationViolated for the row of image numbers whose two sides of
    a relation, lhs and rhs, differ.  A commutator relation shows
    [A(f_i), A(f_j)] and w(A) in place of the sides."""
    if rel[0] == "pow":
        return RelationViolated(f"power relation {label}: {lhs} != {rhs}")
    lhs = pc.comm(P, forms[row[rel[1] - 1]], forms[row[rel[2] - 1]])
    rhs = pc.collect(P, [x for g, e in word for x in pc.word_of(forms[row[g - 1]]) * e])
    return RelationViolated(f"commutator relation {label}: {lhs} != {rhs}")


# One relation compiled for verify_coded.  label: "f_i^p" or "[f_i,f_j]", as
# messages and deadline texts name it; rel: ("pow", i) or ("comm", i, j), a
# defn tag's form; word: its right-hand word; reads: the 0-based generators
# whose images it reads, each once: f_i, f_j, then those word spells.
# sides: left and right, each (start, letters), start the 0-based generator
# whose image the side is collected from (None: the identity), letters
# (generator, exponent) pairs in the collector's push order.  A block is
# collected on the first row of each key, its numbers of the images in reads.
Relation = namedtuple("Relation", "label rel word reads sides")


@pc.memoized
def _relation_plan(P):
    """The relations of P as Relation entries, in verify_coded's order: the
    powers of f_1..f_n, then the commutators [f_i, f_j] for i > j.  f_i^p = w
    is A(f_i) A(f_i)^(p-1) = w(A), whose right side starts at the image of
    w's first letter, and [f_i, f_j] = w is A(f_i) A(f_j) = A(f_j) A(f_i)
    w(A).  Built once per presentation object; the oracle's sieve reads its
    relations from here too."""
    p = P.p
    plan = []

    def add(label, rel, word, *sides):
        sides = tuple(
            (start - 1 if start else None, tuple((g - 1, e) for g, e in letters[::-1] if e))
            for start, letters in sides
        )
        reads = tuple(dict.fromkeys(g - 1 for g in rel[1:] + tuple(g for g, _ in word)))
        plan.append(Relation(label, rel, word, reads, sides))

    for i in range(1, P.n + 1):
        w = P.power_rel[i - 1]
        right = (w[0][0], ((w[0][0], w[0][1] - 1),) + tuple(w[1:])) if w else (0, ())
        add(f"f_{i}^{p}", ("pow", i), w, (i, ((i, p - 1),)), right)
    for i in range(2, P.n + 1):
        for j in range(1, i):
            w = P.comm_rel.get((i, j), ())
            add(f"[f_{i},f_{j}]", ("comm", i, j), w, (i, ((j, 1),)), (j, ((i, 1),) + tuple(w)))
    return plan


def _first_rows(columns):
    """The index of the first row of each distinct key, in row order; a
    row's key is its entries in the equal-length columns, as a tuple."""
    seen = set()
    for q, key in enumerate(zip(*columns)):
        if key not in seen:
            seen.add(key)
            yield q


def compose(A, B):
    """compose(A, B) applies B first: apply(compose(A, B), x) = apply(A, apply(B, x))."""
    if A.parent is not B.parent:
        raise ValueError("maps live over different presentations")
    images = tuple(apply(A, b) for b in B.images)
    if isinstance(A, Automorphism) and isinstance(B, Automorphism):
        return Automorphism(A.parent, images)
    return GenMap(A.parent, images)


def aut_order(A):
    """Least k >= 1 with A^k the identity map."""
    idimg = tuple(A.parent.generators())
    k = 1
    B = A
    while tuple(B.images) != idimg:
        B = compose(B, A)
        k += 1
        if k > 10**6:
            raise AssertionError("automorphism order runaway; map is not bijective?")
    return k


def inner_from(P, t):
    """The conjugation map x -> t^-1 x t, certified."""
    t = tuple(t)
    return verify(GenMap(P, tuple(pc.conj(P, g, t) for g in P.generators())))


@pc.memoized
def _inner_table(P):
    """The inner maps: a dict from each one's row of generator images, a
    tuple of element indices, to its lex-least conjugator.  The conjugators
    of one inner map are a coset of Z(G), so every row of conjugation images
    occurs |Z(G)| times.  The oracle's route: it reads the tables of
    tables.py.

    Both lists are filled in index order by GroupTables.fill: x = x' f_j,
    with f_j the last generator in x's normal form, gives f_i^x =
    (f_i^x')^(f_j), one lookup in the column of conjugation by f_j; that
    column is filled the same way, y = y' f_k giving y^(f_j) = y'^(f_j)
    f_k^(f_j), a walk through the columns of f_k^(f_j)."""
    from .tables import get_tables

    t = get_tables(P)
    # by_gen[j][y] = y^(f_{j+1}); f_i's index is a stride
    by_gen = [t.fill(0, [t.columns(t.conj(fk, fj)) for fk in t.strides]) for fj in t.strides]
    by_conj = [(col,) for col in by_gen]  # the walk of conjugation by f_{j+1}
    rows = list(zip(*[t.fill(f, by_conj) for f in t.strides]))
    # x conjugates trivially iff x is central, so the identity map's row occurs |Z(G)| times
    runs = set(Counter(rows).values())
    assert len(runs) == 1, "conjugators of one inner map are not a coset of Z(G)"
    return dict(zip(reversed(rows), range(t.N - 1, -1, -1)))


def _conjugators(P, rows):
    """For each row of generator-image indices, a tuple, the index of the
    lex-least element conjugating by which gives it, or -1 when it is no
    inner map."""
    table = _inner_table(P)
    return [table.get(row, -1) for row in rows]


def is_inner(A):
    """(True, conjugator) if A is conjugation by some t, else (False, None).

    The conjugator is the lex-least element of its coset of Z(G), found by
    the conjugacy solve of structure.conjugator on f_1, ..., f_d, which
    generate G; then all n images are checked, so a map that is no
    homomorphism is not inner.  A wrong number of images, or an image that
    is no normal form, makes no inner map."""
    P = A.parent
    images = [pc.normal_form(P, x) for x in A.images]
    if len(images) != P.n or None in images:
        return False, None
    d = P.minimal_count
    t = st.conjugator(P, P.generators()[:d], images[:d])
    if t is None or any(pc.conj(P, f, t) != y for f, y in zip(P.generators(), images)):
        return False, None
    return True, t


def fixes_elementwise(A, H):
    """True iff A fixes every generator of H (hence all of H)."""
    return all(apply(A, h) == h for h in H.gens)


def extend_to_automorphism(P, M, g, u):
    """Extend g -> gu, m -> m (m in M) to an automorphism of G.

    Needs M maximal, g outside M, u in Z(M) and (gu)^p = g^p; g and u must
    be normal forms, else ValueError.  The result fixes M elementwise and has
    order p when it is not the identity; a violation of either is raised as
    CertificationFailed since the underlying lemma guarantees them (for odd
    p; a p = 2 run can genuinely trip the order check, e.g. the quaternion
    group with u of order 4).
    """
    p = P.p
    if not isinstance(M, st.Subgroup) or M.parent is not P:
        raise PreconditionFailed("M is not a subgroup of this presentation")
    if M.order * p != P.order:
        raise PreconditionFailed(f"M has order {M.order}, not index {p} in the group")
    g = pc.checked_form(P, g, "g")
    u = pc.checked_form(P, u, "u")
    if g in M:
        raise PreconditionFailed(f"g = {g} lies in M")
    if u not in M:
        raise PreconditionFailed(f"u = {u} lies outside M")
    one = pc.identity(P)
    if any(pc.comm(P, u, m) != one for m in M.gens):
        raise PreconditionFailed(f"u = {u} is not central in M")
    gu = pc.mul(P, g, u)
    if pc.pow_(P, gu, p) != pc.pow_(P, g, p):
        raise PreconditionFailed(f"(gu)^{p} != g^{p} for g = {g}, u = {u}")

    # each f_j factors uniquely as m_j g^i with m_j in M; re-point g at gu
    back = [pc.pow_(P, g, -i) for i in range(p)]
    images = []
    for j, fj in enumerate(P.generators(), 1):
        cosets = [pc.mul(P, fj, b) for b in back]
        hits = [i for i, mj in enumerate(cosets) if mj in M]
        assert len(hits) == 1, f"coset decomposition of f_{j} not unique: {hits}"
        i = hits[0]
        images.append(pc.mul(P, cosets[i], pc.pow_(P, gu, i)))

    try:
        A = verify(GenMap(P, tuple(images)))
    except (RelationViolated, NotSurjective) as e:
        raise CertificationFailed(
            f"extension of g={g}, u={u} over M (order {M.order}) failed: {e}"
        ) from e
    if not fixes_elementwise(A, M):
        raise CertificationFailed(f"extension of g={g}, u={u} does not fix M elementwise")
    if tuple(A.images) != tuple(P.generators()):
        k = aut_order(A)
        if k != p:
            raise CertificationFailed(
                f"extension of g={g}, u={u} has order {k}, not {p} "
                f"(ord(u) = {pc.element_order(P, u)})"
            )
    return A


WitnessResult = namedtuple("WitnessResult", "u M g A")  # M: a Subgroup, A: an Automorphism


@pc.memoized
def construct_theorem_witness(P):
    """Select u in the second center of order p outside the center (lex-least),
    extend over M = C_G(u), and certify the result: order p, fixes the
    Frattini subgroup and M elementwise, non-inner.  A result is that
    certificate: any violation raises.  Raises PreconditionFailed when the
    group fails the hypotheses; its steps, least_order_p_outside_center,
    centralizer and extend_to_automorphism, take any group.  Memoized per
    presentation, so the pipeline and the oracle's cross-check share one.
    """
    report = hp.check_theorem_hypotheses(P)
    if not report.theorem_applicable:
        failed = [name for name in hp.THEOREM if not getattr(report, name)]
        raise PreconditionFailed("hypotheses not satisfied: " + ", ".join(failed))

    u = st.least_order_p_outside_center(P)
    if u is None:
        raise NoEligibleU(
            "every order-p element of the second center is central "
            f"(|Z| = {st.center(P).order}, |Z2| = {st.second_center(P).order})"
        )

    M = st.centralizer(P, u)
    if M.order * P.p != P.order:
        raise CentralizerNotMaximal(f"|C_G(u)| = {M.order} for u = {u}, group order {P.order}")
    g = next((gg for gg in P.generators() if gg not in M), None)
    assert g is not None, "index-p centralizer contains every generator"

    A = extend_to_automorphism(P, M, g, u)
    inner, conj_t = is_inner(A)
    if inner:
        raise InnerWitnessFound(conj_t, f"u={u}, g={g}, M gens={M.gens}; images={A.images}")
    if not fixes_elementwise(A, st.frattini(P)):
        raise CertificationFailed(f"witness moves the Frattini subgroup; images={A.images}")
    return WitnessResult(u=u, M=M, g=g, A=A)
