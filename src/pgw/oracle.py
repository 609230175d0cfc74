"""Brute-force enumeration of Aut(G), independent of the construction code.

The search space is the |G|^d image tuples for the d minimal generators;
images of the remaining generators are forced by their defn tags.  The pruned
path drops tuples whose images are linearly dependent modulo the Frattini
subgroup (Burnside: such a map cannot be surjective) and checks the relations
as vectorized lookups in a |G| x |G| Cayley table that only this module
builds, then re-certifies every survivor through the pure collection
arithmetic in automorphisms.verify.  The unpruned path skips both the pruning
and the table sieve and pushes every tuple through verify; the two must agree
exactly.

Work is partitioned by the image of f_1; counts merge by summation and the
optional map stream is sorted by image vectors, so totals are independent of
the job count.
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

TABLE_CAP = 6600  # covers 3^8 = 6561; the Cayley table is then ~172 MB of int32


def _steps(t):
    """(pred, last) with y = pred[y] * f_{last[y]+1} for every index y >= 1:
    last[y] is the position of y's last nonzero exponent, and pred[y] is y
    with that exponent lowered by one."""
    last = np.array([max((k for k, e in enumerate(v) if e), default=0) for v in t.elements])
    return t.all - np.take(t.strides, last), last


def _cayley_table(t, pred, last):
    """T[x, y] = x * y, column by column: x * y = (x * pred(y)) * f_j."""
    T = np.empty((t.N, t.N), dtype=np.int32)
    T[:, 0] = t.all
    for y in range(1, t.N):
        T[:, y] = t.R[last[y], 1][T[:, pred[y]]]
    return T


def _perm_of_images(ctx, images_idx):
    """The permutation of indices induced by a generator-image tuple.

    images_idx: (rows, n) array, one candidate map per row.  Returns a
    (rows, N) array whose [r, x] entry is the image of element x under the
    multiplicative extension of row r.
    """
    T, pred, last = ctx["T"], ctx["pred"], ctx["last"]
    out = np.empty((images_idx.shape[0], T.shape[0]), dtype=np.int32)
    out[:, 0] = 0
    for x in range(1, T.shape[0]):
        out[:, x] = T[out[:, pred[x]], images_idx[:, last[x]]]
    return out


def _prepare(P):
    if P.order > TABLE_CAP:
        raise SizeCap(
            f"oracle needs the full multiplication table (|G| = {P.order} is over "
            f"the cap {TABLE_CAP})"
        )
    t = get_tables(P)
    pred, last = _steps(t)
    _, coords = st.frattini_coordinates(P)
    d = P.minimal_count
    # encode each element's Phi-coset coordinate vector as one integer
    codes = np.zeros(t.N, dtype=np.int64)
    for k in range(d):
        codes = codes * P.p + coords[:, k]
    # relation list, cheapest and most discriminating first: commutators then powers
    relations = [("comm", i, j) for i in range(2, P.n + 1) for j in range(1, i)]
    relations += [("pow", i) for i in range(1, P.n + 1)]
    return {
        "P": P,
        "t": t,
        "T": _cayley_table(t, pred, last),
        "inv": t.inv(t.all),
        "pred": pred,
        "last": last,
        "pth": t.pow(t.all, P.p),
        "coords": coords,
        "codes": codes,
        "d": d,
        "relations": relations,
        "phi_idx": st.frattini(P).indices(),
        "inner_table": au._inner_table(P),
    }


def _comm_idx(ctx, a, b):
    T, inv = ctx["T"], ctx["inv"]
    return T[T[inv[a], inv[b]], T[a, b]]


def _eval_word_idx(ctx, img, w, shape):
    acc = np.zeros(shape, dtype=np.int32)
    for g, m in w:
        x = img[g - 1]
        for _ in range(m):
            acc = ctx["T"][acc, x]
    return acc


def _sieve(ctx, prefix, batch):
    """Vectorized relation check for image tuples (prefix..., y) over y in batch.

    prefix: d-1 image indices (python ints); batch: candidate indices for the
    last minimal generator.  Returns the (rows, n) image-index matrix of the
    survivors.
    """
    P = ctx["P"]
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
            img[i - 1] = _comm_idx(ctx, img[tag[1] - 1], img[tag[2] - 1])

    alive = batch
    for rel in ctx["relations"]:
        if len(alive) == 0:
            break
        if rel[0] == "comm":
            i, j = rel[1], rel[2]
            lhs = _comm_idx(ctx, img[i - 1], img[j - 1])
            rhs = _eval_word_idx(ctx, img, P.comm_rel.get((i, j), ()), alive.shape)
        else:
            i = rel[1]
            lhs = ctx["pth"][img[i - 1]]
            rhs = _eval_word_idx(ctx, img, P.power_rel[i - 1], alive.shape)
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


def _certify_rows(ctx, rows):
    """Pure re-verification of sieve survivors; any rejection is a route bug."""
    P, t = ctx["P"], ctx["t"]
    out = []
    for row in rows:
        images = tuple(t.elements[int(i)] for i in row)
        try:
            au.verify(au.GenMap(P, images))
        except Exception as e:
            raise Mismatch(
                f"table sieve accepted {images} but pure verification rejected it: {e}"
            ) from e
        out.append(images)
    return out


def _classify_rows(ctx, rows):
    """(inner, order-p non-inner Phi-fixing) tallies for certified rows."""
    P, t = ctx["P"], ctx["t"]
    if len(rows) == 0:
        return 0, 0
    perms = _perm_of_images(ctx, rows)
    idn = t.all
    acc = perms
    for _ in range(P.p - 1):
        acc = np.take_along_axis(perms, acc, axis=1)
    is_id = (perms == idn).all(axis=1)
    order_p = (acc == idn).all(axis=1) & ~is_id
    fixes_phi = (perms[:, ctx["phi_idx"]] == ctx["phi_idx"]).all(axis=1)
    inner_flags = np.fromiter(
        (
            tuple(t.elements[int(i)] for i in row) in ctx["inner_table"]
            for row in rows
        ),
        dtype=bool,
        count=len(rows),
    )
    bucket = order_p & ~inner_flags & fixes_phi
    return int(inner_flags.sum()), int(bucket.sum())


def _run_range(args):
    lo, hi, deadline = args
    ctx = _WORK["ctx"]
    P, t = ctx["P"], ctx["t"]
    p, d = P.p, ctx["d"]
    codes, coords = ctx["codes"], ctx["coords"]

    survivors = []
    if d == 1:
        if deadline is not None and time.monotonic() > deadline:
            raise OracleTimeout("budget exhausted before the sieve started")
        batch = np.arange(lo, hi, dtype=np.int32)
        batch = batch[codes[batch] != 0]
        survivors.append(_sieve(ctx, (), batch))
    else:

        def descend(prefix, vecs):
            if deadline is not None and time.monotonic() > deadline:
                raise OracleTimeout(f"budget exhausted at prefix {prefix}")
            span = _span_codes(p, d, vecs)
            if len(prefix) == d - 1:
                batch = np.flatnonzero(~np.isin(codes, span)).astype(np.int32)
                survivors.append(_sieve(ctx, prefix, batch))
                return
            for y in range(t.N):
                if codes[y] in span:
                    continue
                descend(prefix + (y,), vecs + (tuple(coords[y]),))

        for y1 in range(lo, hi):
            if deadline is not None and time.monotonic() > deadline:
                raise OracleTimeout(f"budget exhausted at first image {y1}/{t.N}")
            if codes[y1] == 0:
                continue
            descend((y1,), (tuple(coords[y1]),))

    rows = np.concatenate(survivors, axis=0) if survivors else np.empty((0, P.n), dtype=np.int32)
    certified = _certify_rows(ctx, rows)
    inner, bucket = _classify_rows(ctx, rows)
    return len(certified), inner, bucket, certified


def _enumerate_unpruned(P, deadline, collect_maps):
    """Pure route: every |G|^d tuple through verify, no tables, no pruning."""
    t = get_tables(P)
    d = P.minimal_count
    total = inner = bucket = 0
    maps = []
    F = st.frattini(P)
    for combo in itertools.product(t.elements, repeat=d):
        if deadline is not None and time.monotonic() > deadline:
            raise OracleTimeout("budget exhausted in unpruned enumeration")
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


def cross_validate(P, budget=None, jobs=1, precomputed=None):
    """Check the oracle against the construction code.

    (a) the oracle's inner tally equals |G/Z(G)|; (b) every streamed map the
    inner test labels inner has a working conjugation witness; (c) when the
    witness construction succeeds, its output sits in the oracle's order-p
    non-inner Frattini-fixing bucket.
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
            B = au.inner_from(P, t_witness)
            if tuple(B.images) != tuple(A.images):
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
