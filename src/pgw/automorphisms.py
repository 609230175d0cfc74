"""Automorphisms as generator-image maps.

A GenMap is an unverified candidate: one image per pc generator.  The
certificate is pure collection.  verify() checks that a map's images are
normal forms, numbers the distinct ones and hands the numbered row to
verify_coded(), which the oracle calls directly on whole blocks of rows.  It
checks them relation-major: each defining relation becomes an equality of
two words in the images, and each side is collected once per distinct tuple
of images it reads, with no inverses and no table.  Surjectivity is
Burnside's basis test: a verified endomorphism is onto iff the images of
f_1..f_d span G/Phi(G), which validate() makes the first d exponents.  On
top of that sit conjugation maps (inner_from), the inner test, the
maximal-subgroup extension map and the full witness construction.  The inner
test looks the generator images up in one cached table of the inner maps'
image rows and their lex-least conjugators, computed with the index algebra
of tables.py; the oracle's classifier reads the same table, and its
cross-validation re-checks every inner label by collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
from .tables import get_tables


@dataclass(frozen=True, eq=False)
class GenMap:
    parent: object
    images: tuple  # n Elements, images[i] = candidate image of f_{i+1}


@dataclass(frozen=True, eq=False)
class Automorphism(GenMap):
    """A GenMap that verify certified, or a composite of certified maps."""


def identity_automorphism(P):
    return Automorphism(P, tuple(P.generators()))


def apply(A, x):
    """Image of x: substitute generator images into its normal-form word,
    A(f_1)^x_1 ... A(f_n)^x_n, and collect it as one word."""
    w = [letter for img, e in zip(A.images, x) for letter in pc.word_of(img) * e]
    return pc.collect(A.parent, w)


def _rank_mod_p(rows, p):
    """Rank over F_p of a square integer matrix, by Gaussian elimination."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * scale % p
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def verify(A):
    """Certify a GenMap: every relation must hold under the map and the
    images must generate the group; a rejected map raises the error that
    verify_coded reports for it.

    Every image must be a normal form, a length-n tuple of ints in 0..p-1;
    anything else is a ValueError, as a wrong number of images is.  The
    collector would read (4, 0) on C3 x C3 as the word f_1^4 = f_1, but the
    certified map keeps its images as given, and is_inner, apply and the
    tables know each element by its normal form only.  The distinct images
    are numbered in order, each checked once, and the row goes to
    verify_coded as numbers.  Entries are kept as ints, so a numpy integer
    or a bool becomes the int it stands for."""
    P = A.parent
    n, p = P.n, P.p
    images = tuple(map(tuple, A.images))
    if len(images) != n:
        raise ValueError(f"need {n} images, got {len(images)}")
    number = {}
    for x in images:
        if x in number:
            continue
        if len(x) != n or not all(isinstance(v, (int, np.integer)) and 0 <= v < p for v in x):
            raise ValueError(f"image {x} is not a normal form: need {n} ints in 0..{p - 1}")
        number[x] = len(number)
    forms = [tuple(map(int, x)) for x in number]
    failed = verify_coded(P, forms, [[number[x] for x in images]])
    if failed is not None:
        try:
            raise failed[1]
        finally:
            failed = None  # else the traceback's frame and the error keep each other alive
    return Automorphism(P, tuple(forms[number[x]] for x in images))


def verify_coded(P, forms, coded, deadline=None):
    """Certify rows of image numbers by pure collection, relation by relation.

    Row k maps f_i to forms[coded[k][i - 1]], where forms are distinct normal
    forms and coded is a list of one row or an (R, n) integer array.  Each
    relation is an equality of words in the images: f_i^p = w holds iff
    A(f_i)^p = w(A), and [f_i, f_j] = w holds iff A(f_i) A(f_j) =
    A(f_j) A(f_i) w(A), where w(A) spells w in the images.  The relations go
    in a fixed order, the powers of f_1..f_n, then the commutators [f_i, f_j]
    for i > j.  For each relation, each side is collected once per distinct
    tuple of images that it reads (A(f_i) and A(f_j) for the left side of
    [f_i, f_j]), from the exponent vector of the image it starts with, and
    the two sides are compared row by row.  While more than one row is live,
    the numbers of the images that a side reads are keyed with numpy, each
    distinct key is collected once, the values are numbered, and the two
    sides are compared as integer arrays.  No inverse is formed; only a
    failing commutator relation is recomputed with comm for its message.
    Once every relation holds a row is an endomorphism, and by Burnside's
    basis theorem it is onto iff it is onto modulo Phi(G).  validate() makes
    Phi(G) = <f_{d+1}, ..., f_n> with d the minimal generator count, so the
    map is onto iff the first d exponents of A(f_1), ..., A(f_d) form a
    d x d matrix of rank d mod p.  The memos live for one relation of one
    call, and nothing is read from the tables.

    A row drops out at its first failing relation, and so do the rows after
    it, which can no longer be the first to fail.  Returns None when every
    row is an automorphism, else (k, error) for the first failing row k, where
    error is the exception verify raises for that row alone.  deadline, a
    time.monotonic() value or None, is checked before each relation and
    raises OracleTimeout once passed, so one call over a large block still
    ends near the oracle's budget.
    """
    n, p = P.n, P.p
    stacks = [pc.word_of(x)[::-1] for x in forms]  # in the collector's push order
    conj = pc.conjugates(P)  # handed to the collector, which would look it up per call

    def value(r, start, letters):
        """A(f_start) times A(f_g)^m for each letter (g, m), start 0 being the
        identity, for the row r of image numbers."""
        stack = []
        for g, m in reversed(letters):
            stack += stacks[r[g - 1]] * m
        return pc._collect_into(P, list(forms[r[start - 1]]) if start else [0] * n, stack, conj)

    def numbered(m, start, letters, results):
        """The number in results of value() on each of rows 0..m-1, collected
        once per distinct tuple of images read."""
        reads = [g - 1 for g, _ in letters]
        if start:
            reads.insert(0, start - 1)
        reads = list(dict.fromkeys(reads))  # A(f_i)^p reads A(f_i) once
        if not reads:
            return np.full(m, results.setdefault(value(None, 0, ()), len(results)))
        first, inverse = _distinct_rows(coded[:m, reads])
        found = [results.setdefault(value(r, start, letters), len(results))
                 for r in coded[first].tolist()]
        return np.array(found)[inverse]

    def differ(m, left, right):
        """(q, lhs, rhs) for the first of rows 0..m-1 whose two sides, each a
        (start, letters) pair, differ, or None."""
        if m == 1:  # nothing to share
            lhs, rhs = value(coded[0], *left), value(coded[0], *right)
            return None if lhs == rhs else (0, lhs, rhs)
        results = {}
        lhs, rhs = numbered(m, *left, results), numbered(m, *right, results)
        where = np.flatnonzero(lhs != rhs)
        if not where.size:
            return None
        q, values = int(where[0]), list(results)
        return q, values[lhs[q]], values[rhs[q]]

    m = len(coded)  # rows 0..m-1 hold every relation so far
    failed = None
    for i in range(1, n + 1):
        if not m:
            return failed
        if deadline is not None:  # no message to format on verify's path
            check_deadline(deadline, f"certifying {len(coded)} rows, at f_{i}^{p}")
        bad = differ(m, (i, ((i, p - 1),)), (0, P.power_rel[i - 1]))
        if bad is not None:
            m, lhs, rhs = bad
            failed = m, RelationViolated(f"power relation f_{i}^{p}: {lhs} != {rhs}")
    for i in range(2, n + 1):
        for j in range(1, i):
            if not m:
                return failed
            if deadline is not None:
                check_deadline(deadline, f"certifying {len(coded)} rows, at [f_{i},f_{j}]")
            w = P.comm_rel.get((i, j), ())
            bad = differ(m, (i, ((j, 1),)), (j, ((i, 1),) + w))
            if bad is not None:
                m = bad[0]
                r = coded[m]
                lhs = pc.comm(P, forms[r[i - 1]], forms[r[j - 1]])
                failed = m, RelationViolated(
                    f"commutator relation [f_{i},f_{j}]: {lhs} != {value(r, 0, w)}"
                )
    if not m:
        return failed
    if not P.validated:
        return 0, ValueError("surjectivity needs a validated presentation")
    d = P.minimal_count
    if m == 1:
        if _rank_mod_p([forms[c][:d] for c in coded[0][:d]], p) != d:
            return 0, NotSurjective("images do not generate the group")
        return failed
    # number the images' first d exponents, so that rows with the same
    # d x d matrix share one rank
    used, at = np.unique(coded[:m, :d], return_inverse=True)
    heads = {}
    codes = np.array([heads.setdefault(forms[c][:d], len(heads)) for c in used.tolist()])
    matrices = codes[at].reshape(m, d)
    first, inverse = _distinct_rows(matrices)
    heads = list(heads)
    ranks = [_rank_mod_p([heads[h] for h in r], p) for r in matrices[first].tolist()]
    k = np.flatnonzero((np.array(ranks) != d)[inverse])
    if k.size:
        return int(k[0]), NotSurjective("images do not generate the group")
    return failed


def _distinct_rows(keys):
    """(first, inverse) for the rows of a 2-d integer array: the index of one
    row for each distinct row, and the distinct row of each row."""
    keys = np.ascontiguousarray(keys)
    if keys.shape[1] > 1:  # one void scalar per row, compared bytewise
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return first, inverse


def compose(A, B):
    """compose(A, B) applies B first: apply(compose(A, B), x) = apply(A, apply(B, x))."""
    if A.parent is not B.parent:
        raise ValueError("maps live over different presentations")
    images = tuple(apply(A, b) for b in B.images)
    if isinstance(A, Automorphism) and isinstance(B, Automorphism):
        return Automorphism(A.parent, images)
    return GenMap(A.parent, images)


def equal(A, B):
    return A.parent is B.parent and tuple(A.images) == tuple(B.images)


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


@lru_cache(maxsize=None)
def _inner_table(P):
    """The inner maps: their generator-image rows of element indices, as
    sorted void scalars, and the lex-least conjugator of each.  The
    conjugators of one inner map are a coset of Z(G), so every row of
    conjugation images occurs |Z(G)| times."""
    t = get_tables(P)
    columns = t.conj(t.strides[:, None], t.all)  # the generators' indices are the strides
    rows = np.ascontiguousarray(columns.T).view(np.dtype((np.void, columns.itemsize * P.n)))
    keys, first, counts = np.unique(rows.ravel(), return_index=True, return_counts=True)
    # x conjugates trivially iff x is central, so the identity map's row occurs |Z(G)| times
    assert (counts == counts[0]).all(), "conjugators of one inner map are not a coset of Z(G)"
    return keys, first


def _conjugators(P, rows):
    """For each row of generator-image indices, the index of the lex-least
    element conjugating by which gives it, or -1 when it is no inner map."""
    keys, first = _inner_table(P)
    q = np.ascontiguousarray(rows, dtype=np.int32).view(keys.dtype).ravel()
    k = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[k] == q, first[k], -1)


def is_inner(A):
    """(True, conjugator) if A is conjugation by some t, else (False, None).
    The conjugator is the lex-least element of its coset of Z(G)."""
    P = A.parent
    if len(A.images) != P.n:
        return False, None
    t = get_tables(P)
    try:
        images = t.encode(A.images)
    except ValueError:  # an image outside the group makes no inner map
        return False, None
    x = _conjugators(P, images[None])[0]
    if x < 0:
        return False, None
    return True, tuple(t.decode(x).tolist())


def fixes_elementwise(A, H):
    """True iff A fixes every generator of H (hence all of H)."""
    return all(apply(A, h) == h for h in H.gens)


def extend_to_automorphism(P, M, g, u):
    """Extend g -> gu, m -> m (m in M) to an automorphism of G.

    Needs M maximal, g outside M, u in Z(M) and (gu)^p = g^p.  The result
    fixes M elementwise and has order p when it is not the identity; a
    violation of either is raised as CertificationFailed since the underlying
    lemma guarantees them (for odd p; a p = 2 run can genuinely trip the
    order check, e.g. the quaternion group with u of order 4).
    """
    p = P.p
    if not isinstance(M, st.Subgroup) or M.parent is not P:
        raise PreconditionFailed("M is not a subgroup of this presentation")
    if M.order * p != P.order:
        raise PreconditionFailed(f"M has order {M.order}, not index {p} in the group")
    g = tuple(g)
    u = tuple(u)
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
    images = []
    for j in range(1, P.n + 1):
        fj = P.generator(j)
        hits = [i for i in range(p) if pc.mul(P, fj, pc.pow_(P, g, -i)) in M]
        assert len(hits) == 1, f"coset decomposition of f_{j} not unique: {hits}"
        i = hits[0]
        mj = pc.mul(P, fj, pc.pow_(P, g, -i))
        images.append(pc.mul(P, mj, pc.pow_(P, gu, i)))

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


@dataclass(frozen=True)
class WitnessResult:
    u: tuple
    M: st.Subgroup
    g: tuple
    A: Automorphism


def construct_theorem_witness(P, skip_hypothesis_check=False):
    """Select u in the second center of order p outside the center (lex-least),
    extend over M = C_G(u), and certify the result: order p, fixes the
    Frattini subgroup elementwise, non-inner.

    skip_hypothesis_check is a test hook: construction still runs and the
    extension is still certified (order, fixes M), but non-inner-ness and
    Frattini fixing are not asserted for groups that fail the hypotheses.
    """
    p = P.p
    if not skip_hypothesis_check:
        report = hp.check_theorem_hypotheses(P)
        if not report.theorem_applicable:
            failed = [
                name
                for name in (
                    "p_odd",
                    "nonabelian",
                    "monolithic",
                    "all_maximals_nonabelian",
                    "zm_condition",
                )
                if not getattr(report, name)
            ]
            raise PreconditionFailed("hypotheses not satisfied: " + ", ".join(failed))

    t = get_tables(P)
    Z = st.center(P)
    Z2 = st.second_center(P)
    idxs = np.flatnonzero(Z2.mask & (t.pow(t.all, p) == 0) & ~Z.mask)
    if idxs.size == 0:
        raise NoEligibleU(
            "every order-p element of the second center is central "
            f"(|Z| = {Z.order}, |Z2| = {Z2.order})"
        )
    u = tuple(t.decode(idxs[0]).tolist())

    M = st.centralizer(P, u)
    if M.order * p != P.order:
        raise CentralizerNotMaximal(f"|C_G(u)| = {M.order} for u = {u}, group order {P.order}")
    g = next((gg for gg in P.generators() if gg not in M), None)
    assert g is not None, "index-p centralizer contains every generator"
    assert pc.pow_(P, pc.mul(P, g, u), p) == pc.pow_(P, g, p), "odd-p power identity failed"

    A = extend_to_automorphism(P, M, g, u)
    if not skip_hypothesis_check:
        inner, conj_t = is_inner(A)
        if inner:
            raise InnerWitnessFound(
                conj_t, f"u={u}, g={g}, M gens={M.gens}; images={A.images}"
            )
        if not fixes_elementwise(A, st.frattini(P)):
            raise CertificationFailed(
                f"witness moves the Frattini subgroup; images={A.images}"
            )
    return WitnessResult(u=u, M=M, g=g, A=A)
