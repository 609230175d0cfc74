"""Brute-force enumeration of Aut(G), independent of the construction code.

A map is fixed by the images of the d minimal generators; the defn tags,
which validate() requires on each f_i past d, force the rest.  The oracle
lifts those images one pc layer at a time, down the central series of the
pc presentation (Eick, Leedham-Green & O'Brien, Comm. Algebra 30, 2002;
Handbook of Computational Group Theory, ch. 8-9).
Each G_k = <f_k, ..., f_n> is normal and the first k digits of an index are
its image in G/G_{k+1}, so an automorphism satisfies every relation modulo
every G_{k+1}.  A level-k node is a tuple of minimal images modulo G_{k+1}
that does.  validate() makes Phi(G) = G_{d+1}, so the level-d nodes are
GL(d, p).  A node's p^d children add one digit to each minimal image, that
is, multiply it by an element z of G_{k+1}.  validate() also enforces the
weighted form, so G_{k+1}/G_{k+2} is central in G/G_{k+2}: modulo G_{k+2},
z drops out of every commutator and z^p is trivial.  Each non-minimal
generator is a commutator or a p-th power by its defn tag, and each relation
sets a commutator or a p-th power equal to a word in f_{d+1}..f_n, so modulo
G_{k+2} a child's forced images and both sides of its relations are its
parent's: the p^d children hold one level down all together or not at all.
So _sieve checks each level-k node once at level k + 1, where its new digits
are zero, with the index algebra of tables.py, and only the nodes that pass
are expanded into their children; a commutator relation [a, b] = w is tested
as a b = b a w, with no inverse.  At level n the children only need their
forced images, and they are exactly the automorphisms.  Each block of them
that the lift yields is re-certified in one call to the pure collection of
automorphisms.verify_coded, with each distinct image decoded once: relation
by relation, each distinct side is collected once per block, and the tables
are not read.  The classifier works on the same blocks.  Inner maps are
found in the table of conjugation images (automorphisms._inner_table), a
route apart from the conjugacy solve of automorphisms.is_inner.  A map
fixes Phi(G) = <f_{d+1}, ..., f_n> elementwise iff its columns past d hold
f_{d+1}, ..., f_n.  Only the rows that are non-inner and fix Phi(G) can
fall in the counted bucket, so only they take the order-p test: an
automorphism is fixed by its images of f_1..f_d, which generate G, so
order p is read off those d columns, with the powers of those rows' images
built once per block.  The exhaustive route of the test reference
tests/oracle_reference.py pushes every |G|^d tuple through verify, one map
at a time; on small groups the two must agree exactly.

The sieve's tables come from the parsed relations by induction down the pc
series and verify collects, so that agreement tests the induction and the
lift against the collector.  Both routes read G/Phi(G) off the first d
exponents.  cross_validate labels the whole map stream in one lookup of the
inner table and decodes only the maps labelled inner, each checked against
conjugation by its conjugator t, t A(f_i) = f_i t for i <= d, by collection,
without certifying it a second time: the map is certified and f_1..f_d
generate G.

Work is partitioned into chunks of level-d nodes by the image of f_1 modulo
Phi(G), with at most one worker per chunk; multiprocessing is imported only
when there is more than one job.  The map stream is one read-only
(total, n) int32 array of image indices, sorted with np.lexsort; index order
is normal-form order, so the output does not depend on the job count.  The
lift is depth first, with at most _ROWS nodes per _sieve call and at most
_ROWS children (or one node's p^d) per block, which bounds memory.  The
budget is checked per level, per block of nodes, between sieve relations and
inside verify_coded before each relation of a certified block.
cross_validate runs after the enumeration and has no deadline.
"""

from __future__ import annotations

import numbers
import time

import numpy as np

from . import automorphisms as au
from . import presentation as pc
from . import structure as st
from .errors import Mismatch, PgwError, PreconditionFailed, WorkerDied, check_deadline
from .tables import get_tables


class AutCount(pc.Record):
    _fields = ("total", "inner", "order_p_noninner_fixing_frattini", "elapsed", "maps")

    def __init__(self, total, inner, order_p_noninner_fixing_frattini, elapsed, maps):
        vars(self).update(
            total=total,
            inner=inner,
            order_p_noninner_fixing_frattini=order_p_noninner_fixing_frattini,
            elapsed=elapsed,
            maps=maps,  # (total, n) int32 image indices, one sorted row per automorphism
        )


_ROWS = 1 << 13  # nodes per _sieve call and rows per lift block; bounds the lift's memory


def _prepare(P):
    t = get_tables(P)
    d = P.minimal_count
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
        "d": d,
        "digits": np.array(list(np.ndindex(*(P.p,) * d)), dtype=np.int32),
        "relations": relations,
    }


def _relation_word(P, rel):
    """Right-hand side of the relation ("comm", i, j) or ("pow", i)."""
    return P.comm_rel.get(rel[1:], ()) if rel[0] == "comm" else P.power_rel[rel[1] - 1]


def _force(ctx, mins):
    """The image columns of f_1..f_n: the columns of mins, (rows, d) indices
    of minimal images, then the images that the defn tags force."""
    P, t = ctx["P"], ctx["t"]
    img = list(mins.T) + [None] * (P.n - ctx["d"])
    for i in range(ctx["d"] + 1, P.n + 1):
        tag = P.defn[i]
        if tag[0] == "pow":
            img[i - 1] = ctx["pth"][img[tag[1] - 1]]
        else:
            img[i - 1] = t.comm(img[tag[1] - 1], img[tag[2] - 1])
    return img


def _sieve(ctx, mins, level, deadline):
    """Vectorized relation check modulo G_{level+1}.

    mins: (rows, d) indices of candidate images of the minimal generators;
    _force adds the others.  Both sides of every relation are cut to their
    first `level` digits, which is their image in G/G_{level+1}.  A
    commutator relation [a, b] = w is checked as a b = b a w, which holds
    modulo the normal subgroup G_{level+1} exactly when [a, b] = w does.
    Returns the (survivors, n) image-index matrix.  _lift passes level-
    (level - 1) nodes, whose digit `level` is zero: G_level/G_{level+1} is
    central in G/G_{level+1}, so a node's verdict here is that of each of
    its children.
    """
    P, t = ctx["P"], ctx["t"]
    img = _force(ctx, mins)
    cut = int(t.strides[level - 1])
    for rel in ctx["relations"]:
        if len(img[0]) == 0:
            break
        check_deadline(deadline, f"in the sieve at level {level}")
        if rel[0] == "comm":  # [a, b] = w iff a b = b a w, with no inverse
            a, b = img[rel[1] - 1], img[rel[2] - 1]
            lhs, rhs = t.mul(a, b), t.mul(b, a)
        else:
            lhs = ctx["pth"][img[rel[1] - 1]]
            rhs = np.zeros_like(lhs)
        for g, m in _relation_word(P, rel):  # exponents below p: repeated mul beats pow
            for _ in range(m):
                rhs = t.mul(rhs, img[g - 1])
        ok = lhs // cut == rhs // cut
        if not ok.all():
            img = [x[ok] for x in img]
    return np.stack(img, axis=1)


def _bases(p, d, part, deadline):
    """The full-rank d x d matrices over F_p that extend the partial ones.

    part: (rows, r) codes of the first r rows, a row v coded as the integer
    with base-p digits v.  Each new row lies outside the span of the rows
    before it.  Yields blocks of codes of shape (rows, d), depth first.
    """
    r = part.shape[1]
    if r == d:
        yield part
        return
    radix = p ** np.arange(d - 1, -1, -1)
    digits = part[:, :, None] // radix % p
    combos = np.array(list(np.ndindex(*(p,) * r)))
    per = max(1, _ROWS // (p**d - p**r))
    for s in range(0, len(part), per):
        check_deadline(deadline, f"building row {r + 1} of the images modulo Phi(G)")
        block = digits[s : s + per]
        span = np.einsum("cr,mrd->mcd", combos, block) % p @ radix
        free = np.ones((len(block), p**d), dtype=bool)
        free[np.arange(len(block))[:, None], span] = False
        m, code = np.nonzero(free)
        yield from _bases(p, d, np.column_stack([part[s : s + per][m], code]), deadline)


def _lift(ctx, nodes, level, deadline):
    """The level-n nodes below the level-`level` nodes, depth first, in
    blocks of (rows, n) image rows.

    nodes: (count, >= d) rows whose first d columns are minimal images with
    zero digits past `level`.  A child adds e_j * p^(n-level-1) to the j-th
    minimal image for each e in F_p^d, a factor from G_{level+1}, which is
    central modulo G_{level+2}; so modulo G_{level+2} the child's forced
    images and relation sides are its parent's (see the module docstring).
    Each node is therefore sieved once at level + 1, with its new digits
    zero, and only the nodes that pass are expanded, each into all its p^d
    children.  At level n the children only need their forced images.
    """
    P, d = ctx["P"], ctx["d"]
    if level == P.n:
        yield np.stack(_force(ctx, nodes[:, :d]), axis=1)
        return
    steps = ctx["digits"] * ctx["t"].strides[level]
    per = max(1, _ROWS // len(steps))
    for s in range(0, len(nodes), _ROWS):
        check_deadline(deadline, f"at level {level + 1}")
        kept = _sieve(ctx, nodes[s : s + _ROWS, :d], level + 1, deadline)
        for r in range(0, len(kept), per):
            children = (kept[r : r + per, None, :d] + steps).reshape(-1, d)
            yield from _lift(ctx, children, level + 1, deadline)


def _certify_rows(ctx, rows, deadline):
    """Pure re-verification of one block of sieve survivors in one
    automorphisms.verify_coded call, which checks the deadline before each
    relation; any rejection is a route bug.  Each distinct image is decoded
    once.  Returns the certified rows."""
    distinct, inverse = np.unique(rows, return_inverse=True)
    forms = list(map(tuple, ctx["t"].decode(distinct).tolist()))
    coded = inverse.reshape(rows.shape)
    failed = au.verify_coded(ctx["P"], forms, coded, deadline)
    if failed is not None:
        k, e = failed
        bad = tuple(forms[c] for c in coded[k])
        raise Mismatch(f"sieve accepted {bad} but pure verification rejected it: {e}") from e
    return rows


def _powers(t, rows):
    """powers[k, r, e] = A_r(f_{k+1})^e for each row r of generator images
    and 0 <= e < p: the factors _apply_rows multiplies."""
    p = t.P.p
    powers = np.zeros((rows.shape[1], len(rows), p), dtype=np.int32)
    for e in range(1, p):
        powers[:, :, e] = t.mul(powers[:, :, e - 1], rows.T)
    return powers


def _apply_rows(t, powers, xs):
    """A_r(x) for each row r of _powers and each x in row r of xs (xs
    broadcasts against one column per row): the normal form
    f_1^e_1 ... f_n^e_n of x goes to A_r(f_1)^e_1 ... A_r(f_n)^e_n."""
    p = t.P.p
    r = np.arange(powers.shape[1])[:, None]
    acc = np.zeros(np.broadcast_shapes(r.shape, np.shape(xs)), dtype=np.int32)
    for k, s in enumerate(t.strides):
        acc = t.mul(acc, powers[k][r, xs // s % p])
    return acc


def _order_p(t, rows):
    """Flags A^p = id and A != id for rows of automorphism generator images.
    An automorphism is fixed by its images of f_1..f_d, which generate G, so
    both are read off the first d columns."""
    d = t.P.minimal_count
    gens = t.strides[:d]  # f_k is the element of index strides[k - 1]
    powers = _powers(t, rows)
    acc = rows[:, :d]
    for _ in range(t.P.p - 1):
        acc = _apply_rows(t, powers, acc)
    return (acc == gens).all(axis=1) & (rows[:, :d] != gens).any(axis=1)


def _fixes_phi(t, rows):
    """Flags A fixes Phi(G) elementwise: Phi(G) = <f_{d+1}, ..., f_n>, so
    iff columns d+1..n hold f_{d+1}, ..., f_n."""
    d = t.P.minimal_count
    return (rows[:, d:] == t.strides[d:]).all(axis=1)


def _row_flags(t, rows):
    """(order p, fixes Phi(G) elementwise) flags for rows of automorphism
    generator images."""
    return _order_p(t, rows), _fixes_phi(t, rows)


def _classify_rows(ctx, rows):
    """(inner, order-p non-inner Phi-fixing) tallies for certified rows.
    The A^p test runs only on the non-inner rows that fix Phi(G)."""
    t = ctx["t"]
    inner = au._conjugators(ctx["P"], rows) >= 0
    candidates = rows[~inner & _fixes_phi(t, rows)]
    return int(inner.sum()), int(_order_p(t, candidates).sum())


def _run_chunk(ctx, firsts, deadline):
    """Lift, certify and classify the level-d nodes whose image of f_1
    modulo Phi(G) has one of the codes firsts."""
    P, t, d = ctx["P"], ctx["t"], ctx["d"]
    total = inner = bucket = 0
    blocks = []
    for bases in _bases(P.p, d, firsts[:, None], deadline):
        mins = (bases * t.strides[d - 1]).astype(np.int32)  # digits past d are zero
        for rows in _lift(ctx, mins, d, deadline):
            blocks.append(_certify_rows(ctx, rows, deadline))
            i, b = _classify_rows(ctx, rows)
            total, inner, bucket = total + len(rows), inner + i, bucket + b
    return total, inner, bucket, blocks


def _report_chunks(ctx, chunks, deadline, conn):
    """A worker's body: send (True, results) of _run_chunk on each chunk, or
    (False, error) for the PgwError one of them raised.  The worker ignores
    Ctrl-C, which reaches the whole process group: the parent stops it."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        out = True, [_run_chunk(ctx, firsts, deadline) for firsts in chunks]
    except PgwError as e:
        out = False, e
    conn.send(out)


def _in_workers(ctx, chunks, jobs, deadline):
    """_run_chunk on every chunk, in min(jobs, len(chunks)) forked worker
    processes, which inherit ctx without pickling it; worker i takes chunks
    i, i + w, ... for w workers.

    Each worker reports once, through its own pipe, and the parent waits on
    all the pipes at once, up to the deadline.  The parent holds no copy of
    a pipe's sending end, so a worker that dies before it reports ends its
    pipe and raises WorkerDied here with the worker's exit status.  A worker
    that hangs without dying raises OracleTimeout once the deadline has
    passed; the wait goes in slices of at most a day, so any deadline works.
    An error a worker reports is raised as itself.  Every worker is stopped
    and reaped before this returns or raises, Ctrl-C included.
    """
    import multiprocessing
    from multiprocessing import connection

    fork = multiprocessing.get_context("fork")
    width = min(jobs, len(chunks))
    workers = []
    try:
        for i in range(width):
            receive, send = fork.Pipe(duplex=False)
            proc = fork.Process(target=_report_chunks, args=(ctx, chunks[i::width], deadline, send))
            proc.start()
            send.close()
            workers.append((proc, receive))
        reports = [None] * width
        pending = list(range(width))
        while pending:
            timeout = None
            if deadline is not None:  # poll takes a C int of milliseconds: a day at most
                timeout = min(max(0.0, deadline - time.monotonic()), 86400.0)
            ready = connection.wait([workers[i][1] for i in pending], timeout)
            if not ready:
                check_deadline(deadline, f"waiting for {len(pending)} of {width} oracle workers")
            for i in [i for i in pending if workers[i][1] in ready]:
                pending.remove(i)
                proc, receive = workers[i]
                try:
                    ok, out = receive.recv()
                except EOFError:
                    proc.join()
                    raise WorkerDied(
                        f"oracle worker {proc.pid} ended with exit status {proc.exitcode} "
                        "before it reported its chunks"
                    ) from None
                if not ok:
                    raise out
                reports[i] = out
        return [r for out in reports for r in out]
    finally:
        for proc, receive in workers:
            receive.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()


def enumerate_automorphisms(P, budget=None, jobs=1):
    """Count and collect all automorphisms of G by the layered lift.

    budget: wall-clock seconds before OracleTimeout, a number >= 0 (inf
    never expires) or None; jobs: worker processes, an integer >= 1, never
    more than there are chunks.  tests/oracle_reference.py holds the
    exhaustive route the tests compare this one with.
    """
    if budget is not None and not (isinstance(budget, numbers.Real) and budget >= 0):
        raise ValueError(f"budget must be a number of seconds >= 0 or None, got {budget!r}")
    if not (isinstance(jobs, numbers.Integral) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if not P.validated:
        raise PreconditionFailed("presentation must be validated first")
    start = time.monotonic()
    deadline = start + budget if budget is not None else None

    ctx = _prepare(P)
    firsts = np.arange(1, P.p ** ctx["d"])  # nonzero images of f_1 modulo Phi(G)
    if jobs == 1:
        results = [_run_chunk(ctx, firsts, deadline)]
    else:
        chunks = [c for c in np.array_split(firsts, jobs * 4) if len(c)]
        results = _in_workers(ctx, chunks, jobs, deadline)

    total, inner, bucket = (sum(r[k] for r in results) for k in range(3))
    maps = np.concatenate([b for r in results for b in r[3]], dtype=np.int32)
    maps = maps[np.lexsort(maps.T[::-1])]  # lexsort's last key is the primary one
    maps.flags.writeable = False
    return AutCount(total, inner, bucket, time.monotonic() - start, maps)


def _conjugates_by(P, images, t):
    """True iff the certified automorphism A, given by its generator images,
    is conjugation by t, x -> t^-1 x t.

    Checks t A(f_i) = f_i t for i <= d only, each side collected from the
    exponent vector of its first factor.  That is enough: A and conjugation
    by t are both automorphisms, and validate() makes Phi(G) = G_{d+1}, so
    f_1..f_d generate G and their images determine each map.  A is already
    certified, so this skips inner_from and its second verify.
    """
    return all(
        pc.mul(P, t, a) == pc.mul(P, f, t)
        for f, a in zip(P.generators()[: P.minimal_count], images)
    )


def cross_validate(P, precomputed):
    """Check the oracle's count and its map stream against the construction
    code.

    The stream must hold count.total rows of n element indices each.  (a) the
    oracle's inner tally equals |G/Z(G)|, so no inner map is labelled
    non-inner; (b) the stream is labelled in one lookup of the table of
    conjugation images, and every map labelled inner is conjugation by its
    lex-least conjugator t, checked by pure collection as t A(f_i) = f_i t
    on f_1..f_d (see _conjugates_by); their number equals the inner tally;
    (c) when the witness construction succeeds, its images are one row of
    the stream, and the oracle's classifier puts that row in the order-p
    non-inner Frattini-fixing bucket: _row_flags gives its order-p and
    Phi(G) flags, and (b)'s lookup its inner label.  The construction found the witness
    non-inner by the conjugacy solve of automorphisms.is_inner, so that
    lookup checks it by an independent route.  No deadline applies here; the
    budget bounds the enumeration only.
    """
    count = precomputed
    maps = count.maps
    if len(maps) != count.total:
        raise Mismatch(f"the stream holds {len(maps)} maps, the count says {count.total}")

    Z = st.center(P)
    if count.inner * Z.order != P.order:
        raise Mismatch(f"inner count {count.inner} != |G/Z(G)| = {P.order // Z.order}")

    t = get_tables(P)
    if maps.ndim != 2 or maps.shape[1] != P.n:
        raise Mismatch(f"a streamed map does not hold {P.n} images")
    outside = maps[(maps < 0) | (maps >= P.order)]
    if outside.size:
        raise Mismatch(
            f"a streamed image is not an element: index {outside[0]} is outside 0..{P.order - 1}"
        )
    found = au._conjugators(P, maps)
    labeled = np.flatnonzero(found >= 0)
    for c, images in zip(t.decode(found[labeled]).tolist(), t.decode(maps[labeled]).tolist()):
        images = tuple(map(tuple, images))
        if not _conjugates_by(P, images, tuple(c)):
            raise Mismatch(f"inner witness {tuple(c)} does not reproduce {images}")
    if len(labeled) != count.inner:
        raise Mismatch(
            f"stream relabeling finds {len(labeled)} inner maps, count says {count.inner}"
        )

    try:
        wit = au.construct_theorem_witness(P)
    except PreconditionFailed:
        wit = None
    if wit is not None:
        target = tuple(wit.A.images)
        hits = np.flatnonzero((maps == t.encode(target)).all(axis=1))
        if len(hits) != 1:
            raise Mismatch(f"witness images {target} appear {len(hits)} times in the stream")
        order_p, fixes_phi = _row_flags(t, maps[hits])
        if not order_p[0]:
            raise Mismatch("witness does not have order p under the oracle's copy")
        if found[hits[0]] >= 0:
            raise Mismatch("witness is inner under the oracle's copy")
        if not fixes_phi[0]:
            raise Mismatch("witness moves the Frattini subgroup under the oracle's copy")
        if count.order_p_noninner_fixing_frattini < 1:
            raise Mismatch("order-p non-inner Frattini-fixing bucket is empty despite a witness")
    return True
