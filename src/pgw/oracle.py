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
are expanded into their children.  The sieve works on columns of indices,
one list per generator, in plain Python: modulo G_{k+2} the nodes' p-th
powers and commutators take few distinct arguments, so each is computed
once, by the tables' mul, pow and comm, and memoized (_arithmetic), and the
relations go in an order fixed by the presentation (_relations), the ones
whose forced images are all p-th powers first: a power is memoized on one
argument and a commutator on a pair, so the images that need a commutator
are forced on the fewest rows.  The sieve at level n cuts nothing, so the
images it forces on a node are exact, and the node's p^d children, which
differ from it only in f_n's digit of their minimal images, share them:
those children are exactly the automorphisms.  Each block of them that
the lift yields is re-certified in one call to the pure collection of
automorphisms.verify_coded, one row per central-twist class.  When n > d,
two rows are in one class if their minimal images agree past f_n's digit
(index // p) and their forced entries agree.
validate()'s weighted form makes G_n = <f_n> central of order p, and G_n
lies in Phi(G) = G_{d+1}.  Let A be an automorphism and A' a row of its
class.  The elements A(f_i)^-1 A'(f_i), i <= d, lie in G_n, which is
elementary abelian, so they extend to a homomorphism psi: G -> G_n through
G/Phi(G), trivial on f_{d+1}..f_n (Adney & Yen, Illinois J. Math. 9, 1965).
As G_n is central, x -> A(x) psi(x) is a homomorphism.  It sends f_i to
A'(f_i) for i <= d and f_j to A(f_j) = A'(f_j) for j > d, and it agrees
with A modulo Phi(G), so it is onto: A' is an automorphism.  So a class is
all automorphisms or none, and verify_coded takes its first row, with each
distinct image decoded once: relation by relation, both sides are collected
once per distinct tuple of the images the relation reads, and the tables are
not read.  A row with a wrong forced entry, or a minimal image wrong above
f_n's digit, falls in a class apart from the true rows and is collected.
When n = d, G_n is not in Phi(G) and every row is collected.  The
classifier works on the same blocks.  Inner maps are found in the table of
conjugation images (automorphisms._inner_table), a route apart from the
conjugacy solve of automorphisms.is_inner.  A map fixes
Phi(G) = <f_{d+1}, ..., f_n> elementwise iff its entries past d hold
f_{d+1}, ..., f_n.  Only the rows
that are non-inner and fix Phi(G) can fall in the counted bucket, so only
they take the order-p test: an automorphism is fixed by its images of
f_1..f_d, which generate G, so order p is read off those d entries, with
the powers of each such row's images built once.  The exhaustive route of
the test reference tests/oracle_reference.py pushes every |G|^d tuple
through verify, one map at a time; on small groups the two must agree
exactly.

The sieve's tables come from the parsed relations by induction down the pc
series and verify collects, so that agreement tests the induction and the
lift against the collector.  Both routes read G/Phi(G) off the first d
exponents.  cross_validate labels the whole map stream in one lookup of the
inner table and checks each map labelled inner against conjugation by its
label, once per central-twist class when n > d.  The labelled rows of the
identity's class, and the first labelled row A = conj_c of each other
class, are collected as t A(f_i) = f_i t for i <= d, without certifying
them a second time: the map is certified and f_1..f_d generate G.  The
identity's class holds the conj_y with [f_i, y] in G_n for i <= d.  For
such y, x -> [x, y] is a homomorphism into G_n, central of order p, so it
kills Phi(G), and conj_cy(f_i) = conj_c(f_i) [conj_c(f_i), y] =
conj_c(f_i) [f_i, y]: conj_cy is A with the f_n digits of its minimal
images moved by conj_y's twist, and agrees with A past d.  Let A' be
another labelled row of A's class, with label c', that differs from A by
the twist of a row conj_y of the identity's class that passed its
collection.  Then A' = conj_cy on f_1..f_d, and conj_cy = conj_c' iff
(cy)^-1 c' lies in Z(G), that is iff c^-1 c' (presentation._solve) lies
in y Z(G), whose elements are collected once per twist: the coset test
gives A' the verdict its collection would.  A labelled row whose twist
from A is that of no such conj_y is collected; on a true stream there is
none, as c^-1 c' is such a y.  So every labelled row is proved
conjugation by its label, on any stream.

Work is partitioned into chunks of level-d nodes by the image of f_1 modulo
Phi(G), with at most one worker per chunk; multiprocessing is imported only
when there is more than one job.  The map stream is one read-only
memoryview of an array('i') of image indices, n to an automorphism, 4 * n
bytes each: each chunk sorts its rows, and the chunks are joined in order
of f_1's image, which leads the index of a row's first entry; index order is
normal-form order, so the output does not depend on the job count.  The
lift is depth first, with at most _ROWS nodes per _sieve call and at most
_ROWS children (or one node's p^d) per block, which bounds memory.  The
budget is checked per level, per block of nodes, between sieve relations and
inside verify_coded before each relation of a certified block.
cross_validate runs after the enumeration and has no deadline.
"""

import numbers
import time
from array import array
from itertools import chain, compress, product
from operator import eq

from . import automorphisms as au
from . import presentation as pc
from . import structure as st
from .errors import Mismatch, PgwError, PreconditionFailed, WorkerDied, check_deadline
from .tables import Memo, get_tables


class AutCount(pc.Record):
    _fields = ("total", "inner", "order_p_noninner_fixing_frattini", "elapsed", "maps")

    def __init__(self, total, inner, order_p_noninner_fixing_frattini, elapsed, maps):
        vars(self).update(
            total=total,
            inner=inner,
            order_p_noninner_fixing_frattini=order_p_noninner_fixing_frattini,
            elapsed=elapsed,
            maps=maps,  # total * n image indices, one automorphism's n after another, rows sorted
        )


_ROWS = 1 << 13  # nodes per _sieve call and rows per lift block; bounds the lift's memory
_MEMO = 1 << 17  # entries _arithmetic's memos may hold together before they are emptied


def _prepare(P):
    d = P.minimal_count
    return {
        "P": P,
        "t": get_tables(P),
        "d": d,
        "arithmetic": {},  # cut -> _arithmetic's functions and memos
        "digits": list(product(range(P.p), repeat=d)),
        "relations": _relations(P),
    }


def _arithmetic(ctx, cut):
    """(powers, products, commutators, small): functions that take columns
    of element indices to the column of x^p, of x y, of [x, y] and (with an
    exponent 0 < m < p) of x^m, row by row, each value cut to a multiple of
    cut, which is its image modulo the normal subgroup G_k that the cut
    drops.

    G_{k-1}/G_k is central in G/G_k and of exponent p, so modulo G_k,
    x^p and [x, y] depend only on x and y modulo G_{k-1}: their arguments
    are cut to multiples of cut * p.  Each value is memoized, since the
    sieve meets few distinct arguments, each many times; the siblings the
    lift makes differ only modulo G_{k-1}.  A value missing from its memo
    is computed by t.mul, t.pow or t.comm and then cut.  The memos are
    emptied once they hold _MEMO entries together."""
    cache = ctx["arithmetic"]
    if sum(len(m) for _, memos in cache.values() for m in memos) > _MEMO:
        cache.clear()
    if cut not in cache:
        t, p = ctx["t"], ctx["P"].p
        N, coarse = t.N, cut * p
        M = N // coarse  # classes modulo G_{k-1}, each keyed by x // coarse

        def power(a):
            z = t.pow(a * coarse, p)
            return z - z % cut

        def times(key):
            z = t.mul(*divmod(key, N))
            return z - z % cut

        def to_the(key):
            z = t.pow(*divmod(key, p))
            return z - z % cut

        def comm(key):
            x, y = divmod(key, M)
            z = t.comm(x * coarse, y * coarse)
            return z - z % cut

        pth, prod, comms, spow = Memo(power), Memo(times), Memo(comm), Memo(to_the)

        def powers(a):
            return [pth[x // coarse] for x in a]

        def products(a, b):
            return [prod[x * N + y] for x, y in zip(a, b)]

        def commutators(a, b):
            return [comms[x // coarse * M + y // coarse] for x, y in zip(a, b)]

        def small(a, m):
            return [spow[x * p + m] for x in a]

        cache[cut] = (powers, products, commutators, small), (pth, prod, comms, spow)
    return cache[cut][0]


def _relations(P):
    """The relations the sieve checks, as (relation, right-hand word, the
    forced generators whose images it needs), read from the certificate's
    plan (automorphisms._relation_plan), in an order fixed by the
    presentation, so that every job does the same work.  One stable sort
    of the plan's order f_1^p, ..., f_n^p, [f_2, f_1], [f_3, f_1],
    [f_3, f_2], ... puts first the relations whose forced images are all
    defined by p-th powers, then those that need an image defined by a
    commutator; within each part, the relations that read only the images
    of f_1..f_d come first, then the others by the highest generator whose
    image they read.  The sieve forces an image just before the first
    relation that needs it, so the images of the later generators are
    forced only on the rows that pass the earlier relations; a p-th power
    is memoized on one argument and a commutator on a pair, so the
    commutators go on the fewest rows (on g2187's last level,
    f_3 = [f_2, f_1] is forced on 1,458 rows, not 4,374).  A relation that
    defines f_k holds by construction of f_k's image and is left out."""
    needs = {}  # k -> the forced generators that f_k's image is forced from
    for k in range(1, P.n + 1):
        tag = P.defn.get(k)
        needs[k] = set() if tag is None else {k}.union(*(needs[g] for g in tag[1:]))
    defining = {tag: ((k, 1),) for k, tag in P.defn.items()}
    out = []
    for _, rel, word, reads, _ in au._relation_plan(P):
        if defining.get(rel) != word:
            reads = [g + 1 for g in reads]
            out.append((max(reads), rel, word, sorted(set().union(*(needs[g] for g in reads)))))
    d = P.minimal_count
    out.sort(key=lambda e: (any(P.defn[k][0] == "comm" for k in e[3]), e[0] > d, e[0]))
    return [entry[1:] for entry in out]


def _sieve(ctx, mins, level, deadline):
    """The relation check modulo G_{level+1}.

    mins: the columns of candidate images of f_1..f_d, one list per
    generator.  Both sides of every relation are taken modulo G_{level+1},
    as indices cut to their first `level` digits, by the functions of
    _arithmetic.  The image of f_k is forced by its defn tag just before the
    first relation that needs it, on the rows still alive; every f_k past d
    is needed by some relation (_relations).  Returns the surviving rows, in
    order: of d minimal images below level n, and of all n images at level
    n, where the cut is 1 and the forced images are exact.  _lift passes
    level-(level - 1) nodes, whose digit `level` is zero:
    G_level/G_{level+1} is central in G/G_{level+1}, so a node's verdict
    here is that of each of its children, and at level n so are its forced
    images.
    """
    P, d = ctx["P"], ctx["d"]
    powers, products, commutators, small = _arithmetic(ctx, ctx["t"].strides[level - 1])
    img = list(mins) + [None] * (P.n - d)

    def value(tag):  # the column of f_a^p for ("pow", a), of [f_a, f_b] for ("comm", a, b)
        if tag[0] == "comm":
            return commutators(img[tag[1] - 1], img[tag[2] - 1])
        return powers(img[tag[1] - 1])

    for rel, word, needs in ctx["relations"]:
        if not img[0]:
            return []
        check_deadline(deadline, f"in the sieve at level {level}")
        for k in needs:
            if img[k - 1] is None:
                img[k - 1] = value(P.defn[k])
        lhs = value(rel)
        rhs = [0] * len(lhs)
        for g, m in word:
            rhs = products(rhs, img[g - 1] if m == 1 else small(img[g - 1], m))
        if lhs != rhs:
            ok = list(map(eq, lhs, rhs))
            img = [col and list(compress(col, ok)) for col in img]
    return list(zip(*img[: P.n if level == P.n else d]))


def _bases(p, d, part, deadline):
    """The full-rank d x d matrices over F_p that extend the partial ones.

    part: tuples of the codes of the first r rows, a row v coded as the
    integer with base-p digits v.  Each new row lies outside the span of the
    rows before it.  Yields lists of tuples of d codes, depth first, in
    lexicographic order.

    A partial basis hands its span, a set of codes, down to its children:
    the span of rows + (c,) is S + F_p c for the span S of rows, and the
    children whose new rows lie in one line modulo S share it, so a parent
    forms (p^d - p^r) / ((p - 1) p^r) spans, not one per child.
    """
    q = p**d
    vectors = list(product(range(p), repeat=d))  # a code's digits
    radix = [p**k for k in range(d - 1, -1, -1)]

    def extend(span, c):
        """The span of span's vectors and the row coded c."""
        v = vectors[c]
        return span | {
            sum((x + a * y) % p * b for x, y, b in zip(vectors[s], v, radix))
            for s in span
            for a in range(1, p)
        }

    def grow(part, spans):
        if not part:
            return
        r = len(part[0])
        if r == d:
            yield part
            return
        per = max(1, _ROWS // (q - p**r))
        for s in range(0, len(part), per):
            check_deadline(deadline, f"building row {r + 1} of the images modulo Phi(G)")
            grown, below = [], []
            for rows, span in zip(part[s : s + per], spans[s : s + per]):
                new = [c for c in range(q) if c not in span]
                grown += [rows + (c,) for c in new]
                if r + 1 < d:  # the children grow further, so they need their spans
                    line = {}  # a new row -> the span it gives
                    for c in new:
                        if c not in line:
                            wider = extend(span, c)
                            line.update(dict.fromkeys(wider - span, wider))
                        below.append(line[c])
            yield from grow(grown, below)

    spans = []
    for rows in part:
        span = {0}
        for c in rows:
            span = extend(span, c)
        spans.append(span)
    yield from grow(part, spans)


def _lift(ctx, nodes, level, deadline):
    """The level-n nodes below the level-`level` nodes, depth first, in
    blocks of rows of n image indices.

    nodes: the d columns of the nodes' minimal images, with zero digits past
    `level`, then at level n > d the columns of their forced images.  A
    child adds e_j * p^(n-level-1) to the j-th minimal image for
    each e in F_p^d, a factor from G_{level+1}, which is central modulo
    G_{level+2}; so modulo G_{level+2} the child's forced images and
    relation sides are its parent's (see the module docstring).  Each node
    is therefore sieved once at level + 1, with its new digits zero, and
    only the nodes that pass are expanded, each into all its p^d children.
    At level n the sieve returns whole rows, its forced images exact, and
    the p^d siblings of a node share them: a child's factor lies in G_n,
    which is central of order p, so it drops out of every p-th power and
    commutator the defn tags force.  So each child repeats its node's
    forced entries, and the level-n nodes are the rows (when n = d, the
    level-d nodes, with no image forced).
    """
    P, d = ctx["P"], ctx["d"]
    if level == P.n:
        yield list(zip(*nodes))
        return
    s = ctx["t"].strides[level]
    steps = [[e[j] * s for e in ctx["digits"]] for j in range(d)]
    steps += [[0] * len(ctx["digits"])] * (P.n - d)  # the forced entries of a level-n row
    per = max(1, _ROWS // len(ctx["digits"]))
    for start in range(0, len(nodes[0]), _ROWS):
        check_deadline(deadline, f"at level {level + 1}")
        kept = _sieve(ctx, [col[start : start + _ROWS] for col in nodes], level + 1, deadline)
        for r in range(0, len(kept), per):
            columns = zip(*kept[r : r + per])
            children = [[x + e for x in col for e in step] for col, step in zip(columns, steps)]
            yield from _lift(ctx, children, level + 1, deadline)


def _twist_keys(P, rows):
    """The central-twist class of each row of n image indices, as a tuple,
    when n > d: its minimal images past f_n's digit (index // p) and its
    forced entries (see the module docstring).  Built from the block's
    columns, not row by row."""
    p, d = P.p, P.minimal_count
    columns = list(zip(*rows))
    return list(zip(*[[x // p for x in col] for col in columns[:d]], *columns[d:]))


def _certify_rows(ctx, rows, deadline):
    """Pure re-verification of one block of sieve survivors in one
    automorphisms.verify_coded call, which checks the deadline before each
    relation; any rejection is a route bug.  When n > d only the first row
    of each central-twist class goes to that call: rows whose minimal
    images agree past f_n's digit (index // p) and whose forced entries
    agree.  A class is all automorphisms or none (see the module
    docstring), so the first failing representative is the first failing
    row.  Each distinct image is decoded once.  Returns the certified rows,
    all of them."""
    P, t, d = ctx["P"], ctx["t"], ctx["d"]
    reps = rows
    if P.n > d:
        first = {}
        for key, row in zip(_twist_keys(P, rows), rows):
            first.setdefault(key, row)
        reps = list(first.values())
    distinct = list(set(chain.from_iterable(reps)))
    number = dict(zip(distinct, range(len(distinct))))
    coded = list(zip(*[[number[x] for x in col] for col in zip(*reps)]))
    forms = [t.decode(x) for x in distinct]
    failed = au.verify_coded(P, forms, coded, deadline)
    if failed is not None:
        k, e = failed
        bad = tuple(forms[c] for c in coded[k])
        raise Mismatch(f"sieve accepted {bad} but pure verification rejected it: {e}") from e
    return rows


def _powers(t, row):
    """powers[k][e] = A(f_{k+1})^e for the row of A's generator images and
    0 <= e < p: the factors _apply multiplies."""
    powers = []
    for a in row:
        column = [0]
        for _ in range(1, t.P.p):
            column.append(t.mul(column[-1], a))
        powers.append(column)
    return powers


def _apply(t, powers, x):
    """A(x) for the A of _powers: the normal form f_1^e_1 ... f_n^e_n of x
    goes to A(f_1)^e_1 ... A(f_n)^e_n."""
    acc = 0
    for column, e in zip(powers, t.decode(x)):
        if e:
            acc = t.mul(acc, column[e])
    return acc


def _order_p(t, rows):
    """Flags A^p = id and A != id for rows of automorphism generator images.
    An automorphism is fixed by its images of f_1..f_d, which generate G, so
    both are read off the first d entries."""
    d, p = t.P.minimal_count, t.P.p
    gens = tuple(t.strides[:d])  # f_k is the element of index strides[k - 1]
    flags = []
    for row in rows:
        powers = _powers(t, row)
        acc = row[:d]
        for _ in range(p - 1):
            acc = tuple(_apply(t, powers, x) for x in acc)
        flags.append(acc == gens and tuple(row[:d]) != gens)
    return flags


def _fixes_phi(t, rows):
    """Flags A fixes Phi(G) elementwise: Phi(G) = <f_{d+1}, ..., f_n>, so
    iff entries d+1..n hold f_{d+1}, ..., f_n."""
    d = t.P.minimal_count
    phi = tuple(t.strides[d:])
    return [tuple(row[d:]) == phi for row in rows]


def _classify_rows(ctx, rows):
    """(inner, order-p non-inner Phi-fixing) tallies for certified rows.
    The A^p test runs only on the non-inner rows that fix Phi(G)."""
    t = ctx["t"]
    found = au._conjugators(ctx["P"], rows)
    outer = [row for row, c, fixes in zip(rows, found, _fixes_phi(t, rows)) if c < 0 and fixes]
    order_p = _order_p(t, outer)
    return len(found) - found.count(-1), sum(order_p)


def _run_chunk(ctx, firsts, deadline):
    """Lift, certify and classify the level-d nodes whose image of f_1
    modulo Phi(G) has one of the codes firsts.  Returns the tallies and the
    chunk's rows, flat and sorted."""
    P, t, d = ctx["P"], ctx["t"], ctx["d"]
    total = inner = bucket = 0
    stream = array("i")
    for bases in _bases(P.p, d, [(c,) for c in firsts], deadline):
        mins = [[b[j] * t.strides[d - 1] for b in bases] for j in range(d)]  # zero past digit d
        for rows in _lift(ctx, mins, d, deadline):
            stream.extend(chain.from_iterable(_certify_rows(ctx, rows, deadline)))
            i, b = _classify_rows(ctx, rows)
            total, inner, bucket = total + len(rows), inner + i, bucket + b
    return total, inner, bucket, _sorted(stream, P.n, d, P.order)


def _sorted(stream, n, d, N):
    """The flat stream of rows of n indices below N, its rows in
    lexicographic order.  A row is fixed by its first d entries, the images
    of generators of G, so the rows are sorted by those entries as the
    digits of one integer base N."""
    keys = stream[::n].tolist()
    for j in range(1, d):
        keys = [k * N + x for k, x in zip(keys, stream[j::n])]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    out = array("i", bytes(len(stream) * stream.itemsize))
    for j in range(n):
        column = stream[j::n].tolist()
        out[j::n] = array("i", [column[k] for k in order])
    return out


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
    i, i + w, ... for w workers.  Returns the results in chunk order.

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
        ordered = [None] * len(chunks)
        for i, out in enumerate(reports):
            ordered[i::width] = out
        return ordered
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
    if budget is not None and (
        isinstance(budget, bool) or not (isinstance(budget, numbers.Real) and budget >= 0)
    ):
        raise ValueError(f"budget must be a number of seconds >= 0 or None, got {budget!r}")
    if isinstance(jobs, bool) or not (isinstance(jobs, numbers.Integral) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if not P.validated:
        raise PreconditionFailed("presentation must be validated first")
    start = time.monotonic()
    deadline = start + budget if budget is not None else None

    ctx = _prepare(P)
    firsts = range(1, P.p ** ctx["d"])  # nonzero images of f_1 modulo Phi(G)
    if jobs == 1:
        results = [_run_chunk(ctx, firsts, deadline)]
    else:
        results = _in_workers(ctx, _split(firsts, jobs * 4), jobs, deadline)

    total, inner, bucket = (sum(r[k] for r in results) for k in range(3))
    stream = results[0][3]
    for r in results[1:]:
        stream += r[3]
    return AutCount(total, inner, bucket, time.monotonic() - start, memoryview(stream).toreadonly())


def _split(items, k):
    """items in at most k runs, in order, the first len(items) % k of them
    one longer than the rest; empty runs are left out."""
    q, r = divmod(len(items), k)
    runs, start = [], 0
    for i in range(k):
        end = start + q + (i < r)
        if end > start:
            runs.append(items[start:end])
        start = end
    return runs


def _conjugates_by(P, gens, images, t):
    """True iff the certified automorphism A, given by its images of the
    generators gens, f_1..f_d (any images after those are not read), is
    conjugation by t, x -> t^-1 x t.

    Checks t A(f_i) = f_i t for i <= d only, each side collected from the
    exponent vector of its first factor.  That is enough: A and conjugation
    by t are both automorphisms, and validate() makes Phi(G) = G_{d+1}, so
    f_1..f_d generate G and their images determine each map.  A is already
    certified, so this skips inner_from and its second verify.
    """
    return all(pc.mul(P, t, a) == pc.mul(P, f, t) for f, a in zip(gens, images))


def cross_validate(P, precomputed):
    """Check the oracle's count and its map stream against the construction
    code.

    The stream must hold count.total rows of n element indices each.  (a) the
    oracle's inner tally equals |G/Z(G)|, so no inner map is labelled
    non-inner; (b) the stream is labelled in one lookup of the table of
    conjugation images, and every map labelled inner is conjugation by its
    lex-least conjugator t: each labelled row of the identity's twist class,
    and the first labelled row of each other class, by pure collection as
    t A(f_i) = f_i t on f_1..f_d (see _conjugates_by); every other labelled
    row by its twist from its class's first row and one left division into
    a coset of Z(G), a test that holds iff its collection would (see the
    module docstring), or by collection when its twist is not that of a
    collected row of the identity's class; their number equals the inner
    tally;
    (c) when the witness construction succeeds, its images are one row of
    the stream, and the oracle's classifier puts that row in the order-p
    non-inner Frattini-fixing bucket: _order_p and _fixes_phi give its
    order-p and Phi(G) flags, and (b)'s lookup its inner label.  The
    construction found the witness non-inner by the conjugacy solve of
    automorphisms.is_inner, so that lookup checks it by an independent
    route.  No deadline applies here; the
    budget bounds the enumeration only.
    """
    count = precomputed
    maps, n = count.maps, P.n
    if len(maps) % n:
        raise Mismatch(f"a streamed map does not hold {n} images")
    if len(maps) // n != count.total:
        raise Mismatch(f"the stream holds {len(maps) // n} maps, the count says {count.total}")

    Z = st.center(P)
    if count.inner * Z.order != P.order:
        raise Mismatch(f"inner count {count.inner} != |G/Z(G)| = {P.order // Z.order}")

    t = get_tables(P)
    if maps and not (0 <= min(maps) and max(maps) < P.order):
        outside = next(x for x in maps if not 0 <= x < P.order)
        raise Mismatch(
            f"a streamed image is not an element: index {outside} is outside 0..{P.order - 1}"
        )
    rows = list(zip(*[iter(maps)] * n))
    found = au._conjugators(P, rows)
    labeled = [k for k, c in enumerate(found) if c >= 0]
    d, p = P.minimal_count, P.p
    gens = P.generators()[:d]

    def collected(k):
        return _conjugates_by(P, gens, [t.decode(x) for x in rows[k][:d]], t.decode(found[k]))

    def twist(a, b):  # b's f_n digits less a's, on the minimal images
        return tuple((y - x) % p for x, y in zip(a[:d], b[:d]))

    # n = d: a class per row, so every labelled row is collected
    keys = _twist_keys(P, [rows[k] for k in labeled]) if n > d else labeled
    identity = _twist_keys(P, [tuple(t.strides)])[0] if n > d else None
    home, ys, firsts = {}, {}, {}  # home: verdicts in the identity's class; ys: twist -> y
    cosets = Memo(lambda y: {pc.mul(P, t.decode(y), z) for z in Z.elements})  # y -> y Z(G)
    for k, key in zip(labeled, keys):
        if key == identity:
            home[k] = collected(k)
            if home[k]:
                ys[twist(t.strides, rows[k])] = found[k]
    for k, key in zip(labeled, keys):
        if k in home:
            ok = home[k]
        else:
            j = firsts.setdefault(key, k)
            y = ys.get(twist(rows[j], rows[k]))
            if j == k or y is None:
                ok = collected(k)
            else:  # rows[j] is conj_c, rows[k] conj_cy, and conj_cy = conj_c' iff c^-1 c' in y Z(G)
                ok = pc._solve(P, t.decode(found[j]), t.decode(found[k])) in cosets[y]
        if not ok:
            c = t.decode(found[k])
            raise Mismatch(f"inner witness {c} does not reproduce {tuple(map(t.decode, rows[k]))}")
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
        row = tuple(map(t.encode, target))
        hits = [k for k, r in enumerate(rows) if r == row]
        if len(hits) != 1:
            raise Mismatch(f"witness images {target} appear {len(hits)} times in the stream")
        if not _order_p(t, [row])[0]:
            raise Mismatch("witness does not have order p under the oracle's copy")
        if found[hits[0]] >= 0:
            raise Mismatch("witness is inner under the oracle's copy")
        if not _fixes_phi(t, [row])[0]:
            raise Mismatch("witness moves the Frattini subgroup under the oracle's copy")
        if count.order_p_noninner_fixing_frattini < 1:
            raise Mismatch("order-p non-inner Frattini-fixing bucket is empty despite a witness")
    return True
