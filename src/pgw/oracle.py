"""Brute-force enumeration of Aut(G), independent of the construction code.

The search space is the |G|^d image tuples for the d minimal generators;
images of the remaining generators are forced by their defn tags.  The pruned
path drops tuples whose images are linearly dependent modulo the Frattini
subgroup (Burnside: such a map cannot be surjective), checks the relations on
whole batches of candidates with the index algebra of tables.py, then
re-certifies every survivor through the pure collection arithmetic in
automorphisms.verify.  The classifier reads order p and the fixing of Phi(G)
off the generator images, and finds inner maps in the inner test's array of
conjugation images.  The unpruned path skips both the pruning and the sieve
and pushes every tuple through verify; the two must agree exactly.

The sieve shares no arithmetic with verify: tables.py builds its tables from
the parsed relations by induction down the pc series, and verify collects.  So
pruned == unpruned tests that induction against the collector.  It also
cross-checks two readings of G/Phi(G): the pruning uses the coset coordinates
of structure.frattini_coordinates, built from the tables, while verify reads
the first d exponents of a pure normal form.  cross_validate checks every map
labelled inner against conjugation by its witness t by collection,
t A(f_i) = f_i t, without certifying it a second time.

Work is partitioned by the image of f_1; counts merge by summation and the
optional map stream is sorted by image vectors, so totals are independent of
the job count.  The budget is checked between search prefixes, between sieve
relations and before each certified row.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from . import automorphisms as au
from . import presentation as pc
from . import structure as st
from .errors import Mismatch, MissingDefinitions, OracleTimeout, PreconditionFailed, SizeCap
from .tables import get_tables


@dataclass(frozen=True)
class AutCount:
    total: int
    inner: int
    order_p_noninner_fixing_frattini: int
    elapsed: float
    maps: tuple = None  # certified Automorphisms, sorted by image vectors, when collected


def _check_defns(P):
    missing = [i for i in range(P.minimal_count + 1, P.n + 1) if i not in P.defn]
    if missing:
        raise MissingDefinitions(
            f"non-minimal generators without defn tags: {missing}; "
            "the oracle cannot derive their images"
        )


# worker state shared through fork(); set by the parent right before the pool starts
_WORK = {}

TABLE_CAP = 6600  # covers 3^8 = 6561; the |G|^d search, not memory, is the limit


def _check_deadline(deadline, where):
    if deadline is not None and time.monotonic() > deadline:
        raise OracleTimeout(f"budget exhausted {where}")


def _prepare(P):
    if P.order > TABLE_CAP:
        raise SizeCap(
            f"oracle search is capped at order {TABLE_CAP} (|G| = {P.order} is over the cap)"
        )
    t = get_tables(P)
    _, coords = st.frattini_coordinates(P)
    d = P.minimal_count
    # encode each element's Phi-coset coordinate vector as one integer
    codes = np.zeros(t.N, dtype=np.int64)
    for k in range(d):
        codes = codes * P.p + coords[:, k]
    # relation list, cheapest and most discriminating first: commutators then
    # powers; a relation that defines f_k holds by construction of f_k's image
    relations = [("comm", i, j) for i in range(2, P.n + 1) for j in range(1, i)]
    relations += [("pow", i) for i in range(1, P.n + 1)]
    defining = {tag: ((k, 1),) for k, tag in P.defn.items()}
    relations = [r for r in relations if defining.get(r) != _relation_word(P, r)]
    return {
        "P": P,
        "t": t,
        "pth": t.pow(t.all, P.p),
        "coords": coords,
        "codes": codes,
        "d": d,
        "relations": relations,
        "phi_gens": t.encode(st.frattini(P).gens),
        "inner": set(map(tuple, au._inner_table(P).T.tolist())),
    }


def _relation_word(P, rel):
    """Right-hand side of the relation ("comm", i, j) or ("pow", i)."""
    return P.comm_rel.get(rel[1:], ()) if rel[0] == "comm" else P.power_rel[rel[1] - 1]


def _eval_word_idx(t, img, w, shape):
    """The word w in the images img; its exponents are below p, so repeated
    mul costs less than pow."""
    acc = np.zeros(shape, dtype=np.int32)
    for g, m in w:
        for _ in range(m):
            acc = t.mul(acc, img[g - 1])
    return acc


def _sieve(ctx, prefix, batch, deadline):
    """Vectorized relation check for image tuples (prefix..., y) over y in batch.

    prefix: d-1 image indices (python ints); batch: candidate indices for the
    last minimal generator.  Returns the (rows, n) image-index matrix of the
    survivors.
    """
    P, t = ctx["P"], ctx["t"]
    n = P.n
    img = [None] * n
    for k, y in enumerate(prefix):
        img[k] = int(y)
    img[ctx["d"] - 1] = batch
    for i in range(ctx["d"] + 1, n + 1):
        tag = P.defn[i]
        if tag[0] == "pow":
            img[i - 1] = ctx["pth"][img[tag[1] - 1]]
        else:
            img[i - 1] = t.comm(img[tag[1] - 1], img[tag[2] - 1])

    alive = batch
    for rel in ctx["relations"]:
        if len(alive) == 0:
            break
        _check_deadline(deadline, f"in the sieve at prefix {prefix}")
        if rel[0] == "comm":
            lhs = t.comm(img[rel[1] - 1], img[rel[2] - 1])
        else:
            lhs = ctx["pth"][img[rel[1] - 1]]
        rhs = _eval_word_idx(t, img, _relation_word(P, rel), alive.shape)
        ok = np.broadcast_to(lhs == rhs, alive.shape)
        if not ok.all():
            alive = alive[ok]
            img = [x[ok] if isinstance(x, np.ndarray) else x for x in img]
    rows = np.empty((len(alive), n), dtype=np.int32)
    for k in range(n):
        rows[:, k] = img[k]
    return rows


def _span_codes(p, d, vecs):
    """Coset codes of the F_p span of the given coordinate vectors."""
    span = set()
    for combo in itertools.product(range(p), repeat=len(vecs)):
        v = [0] * d
        for c, vec in zip(combo, vecs):
            for k in range(d):
                v[k] = (v[k] + c * vec[k]) % p
        code = 0
        for k in range(d):
            code = code * p + v[k]
        span.add(code)
    return np.fromiter(sorted(span), dtype=np.int64)


def _certify_rows(ctx, rows, deadline):
    """Pure re-verification of sieve survivors; any rejection is a route bug."""
    P, t = ctx["P"], ctx["t"]
    # decode each distinct image once, so that the kept maps share their tuples
    distinct, inverse = np.unique(rows, return_inverse=True)
    forms = st._tuples(t, distinct)
    out = []
    for row in inverse.reshape(rows.shape).tolist():
        _check_deadline(deadline, f"after certifying {len(out)} of {len(rows)} sieve survivors")
        images = tuple(forms[i] for i in row)
        try:
            au.verify(au.GenMap(P, images))
        except Exception as e:
            raise Mismatch(
                f"sieve accepted {images} but pure verification rejected it: {e}"
            ) from e
        out.append(images)
    return out


def _apply_rows(t, rows, xs):
    """A_r(x) for each row r of generator images and each x in row r of xs
    (xs broadcasts against one column per row): the normal form
    f_1^e_1 ... f_n^e_n of x goes to A_r(f_1)^e_1 ... A_r(f_n)^e_n."""
    p = t.P.p
    r = np.arange(len(rows))[:, None]
    acc = np.zeros(np.broadcast_shapes(r.shape, np.shape(xs)), dtype=np.int32)
    for k, s in enumerate(t.strides):
        powers = [np.zeros(len(rows), dtype=np.int32)]
        for _ in range(p - 1):
            powers.append(t.mul(powers[-1], rows[:, k]))
        acc = t.mul(acc, np.stack(powers, axis=1)[r, xs // s % p])
    return acc


def _row_flags(ctx, rows):
    """(order p, fixes Phi(G) elementwise) flags for rows of automorphism
    generator images, both read off the generators."""
    t, phi = ctx["t"], ctx["phi_gens"]
    gens = np.array(t.strides, dtype=np.int32)  # f_k is the element of index strides[k]
    acc = rows
    for _ in range(ctx["P"].p - 1):
        acc = _apply_rows(t, rows, acc)
    order_p = (acc == gens).all(axis=1) & (rows != gens).any(axis=1)
    fixes_phi = (_apply_rows(t, rows, phi) == phi).all(axis=1)
    return order_p, fixes_phi


def _classify_rows(ctx, rows):
    """(inner, order-p non-inner Phi-fixing) tallies for certified rows."""
    inner = np.fromiter(
        (row in ctx["inner"] for row in map(tuple, rows.tolist())), dtype=bool, count=len(rows)
    )
    order_p, fixes_phi = _row_flags(ctx, rows)
    return int(inner.sum()), int((order_p & ~inner & fixes_phi).sum())


def _run_range(args):
    lo, hi, deadline = args
    ctx = _WORK["ctx"]
    P, t = ctx["P"], ctx["t"]
    p, d = P.p, ctx["d"]
    codes, coords = ctx["codes"], ctx["coords"]

    survivors = []
    if d == 1:
        batch = np.arange(lo, hi, dtype=np.int32)
        batch = batch[codes[batch] != 0]
        survivors.append(_sieve(ctx, (), batch, deadline))
    else:

        def descend(prefix, vecs):
            _check_deadline(deadline, f"at prefix {prefix}")
            span = _span_codes(p, d, vecs)
            if len(prefix) == d - 1:
                batch = np.flatnonzero(~np.isin(codes, span)).astype(np.int32)
                survivors.append(_sieve(ctx, prefix, batch, deadline))
                return
            for y in range(t.N):
                if codes[y] in span:
                    continue
                descend(prefix + (y,), vecs + (tuple(coords[y]),))

        for y1 in range(lo, hi):
            _check_deadline(deadline, f"at first image {y1}/{t.N}")
            if codes[y1] == 0:
                continue
            descend((y1,), (tuple(coords[y1]),))

    rows = np.concatenate(survivors, axis=0) if survivors else np.empty((0, P.n), dtype=np.int32)
    certified = _certify_rows(ctx, rows, deadline)
    inner, bucket = _classify_rows(ctx, rows)
    return len(certified), inner, bucket, certified


def _enumerate_unpruned(P, deadline, collect_maps):
    """Pure route: every |G|^d tuple through verify, no tables, no pruning."""
    d = P.minimal_count
    total = inner = bucket = 0
    maps = []
    F = st.frattini(P)
    for combo in itertools.product(itertools.product(range(P.p), repeat=P.n), repeat=d):
        _check_deadline(deadline, "in unpruned enumeration")
        images = list(combo) + [None] * (P.n - d)
        for i in range(d + 1, P.n + 1):
            tag = P.defn[i]
            if tag[0] == "pow":
                images[i - 1] = pc.pow_(P, images[tag[1] - 1], P.p)
            else:
                images[i - 1] = pc.comm(P, images[tag[1] - 1], images[tag[2] - 1])
        try:
            A = au.verify(au.GenMap(P, tuple(images)))
        except Exception:
            continue
        total += 1
        lab, _ = au.is_inner(A)
        if lab:
            inner += 1
        elif au.aut_order(A) == P.p and au.fixes_elementwise(A, F):
            bucket += 1
        if collect_maps:
            maps.append(A)
    return total, inner, bucket, maps


def enumerate_automorphisms(P, budget=None, jobs=1, pruned=True, collect_maps=False):
    """Count (and optionally collect) all automorphisms of G.

    budget: wall-clock seconds before OracleTimeout; jobs: worker processes
    for the pruned path; pruned=False selects the pure exhaustive route.
    """
    if not P.validated:
        raise PreconditionFailed("presentation must be validated first")
    _check_defns(P)
    start = time.monotonic()
    deadline = start + budget if budget is not None else None

    if not pruned:
        total, inner, bucket, maps = _enumerate_unpruned(P, deadline, collect_maps)
        maps = tuple(sorted(maps, key=lambda A: A.images)) if collect_maps else None
        return AutCount(total, inner, bucket, time.monotonic() - start, maps)

    ctx = _prepare(P)
    _WORK["ctx"] = ctx
    N = ctx["t"].N
    jobs = max(1, int(jobs))
    if jobs == 1:
        results = [_run_range((0, N, deadline))]
    else:
        chunks = jobs * 4
        bounds = np.linspace(0, N, chunks + 1, dtype=int)
        tasks = [(int(bounds[k]), int(bounds[k + 1]), deadline) for k in range(chunks)]
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            results = pool.map(_run_range, tasks)

    total = sum(r[0] for r in results)
    inner = sum(r[1] for r in results)
    bucket = sum(r[2] for r in results)
    maps = None
    if collect_maps:
        images = sorted(img for r in results for img in r[3])
        maps = tuple(au.Automorphism(P, img) for img in images)
    return AutCount(total, inner, bucket, time.monotonic() - start, maps)


def _conjugates_by(P, A, t):
    """True iff A is conjugation by t, x -> t^-1 x t: t A(f_i) = f_i t for every
    generator, two collections each.  A is already certified, so this skips
    inner_from and its second verify."""
    wt = pc.word_of(t)
    return all(
        pc.collect(P, wt + pc.word_of(a)) == pc.collect(P, pc.word_of(f) + wt)
        for f, a in zip(P.generators(), A.images)
    )


def cross_validate(P, budget=None, jobs=1, precomputed=None):
    """Check the oracle against the construction code.

    (a) the oracle's inner tally equals |G/Z(G)|, so no inner map is labelled
    non-inner; (b) every streamed map the inner test labels inner is
    conjugation by its conjugator t, checked by pure collection as
    t A(f_i) = f_i t on each generator, and their number equals the inner
    tally; (c) when the witness construction succeeds, its output sits in
    the oracle's order-p non-inner Frattini-fixing bucket.
    """
    count = precomputed
    if count is None:
        count = enumerate_automorphisms(P, budget=budget, jobs=jobs, collect_maps=True)
    if count.maps is None:
        raise ValueError("cross_validate needs a count with collected maps")

    Z = st.center(P)
    if count.inner * Z.order != P.order:
        raise Mismatch(f"inner count {count.inner} != |G/Z(G)| = {P.order // Z.order}")

    labeled_inner = 0
    for A in count.maps:
        lab, t_witness = au.is_inner(A)
        if lab:
            labeled_inner += 1
            if not _conjugates_by(P, A, t_witness):
                raise Mismatch(f"inner witness {t_witness} does not reproduce {A.images}")
    if labeled_inner != count.inner:
        raise Mismatch(
            f"stream relabeling finds {labeled_inner} inner maps, count says {count.inner}"
        )

    try:
        wit = au.construct_theorem_witness(P)
    except PreconditionFailed:
        wit = None
    if wit is not None:
        target = tuple(wit.A.images)
        matches = [A for A in count.maps if tuple(A.images) == target]
        if len(matches) != 1:
            raise Mismatch(f"witness images {target} appear {len(matches)} times in the stream")
        A = matches[0]
        if au.aut_order(A) != P.p:
            raise Mismatch("witness does not have order p under the oracle's copy")
        if au.is_inner(A)[0]:
            raise Mismatch("witness is inner under the oracle's copy")
        if not au.fixes_elementwise(A, st.frattini(P)):
            raise Mismatch("witness moves the Frattini subgroup under the oracle's copy")
        if count.order_p_noninner_fixing_frattini < 1:
            raise Mismatch("order-p non-inner Frattini-fixing bucket is empty despite a witness")
    return True
