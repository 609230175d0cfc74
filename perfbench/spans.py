"""Per-layer spans and counters, recorded around pgw's module attributes.

A layer is a module under src/pgw.  install() replaces the module attributes
listed below with wrappers; every caller that looks the name up through the
module (``st.rank(P)``, or a plain ``rank(P)`` inside structure.py) then goes
through the wrapper.  Names bound elsewhere with ``from .x import y`` are not
seen, which is why tables are wrapped at ``tables.GroupTables`` rather than at
``get_tables``.  A listed attribute that no longer exists is reported as
absent, and its metrics are left out.

Spans nest: a span's self time is its inclusive time minus the time its child
spans cover.  Meters (verify, mul, _collect_into) count calls on hot paths and
open no span, so they take no self time away from the stage that calls them.
"""

import importlib
import time

import numpy as np

# (layer metric prefix, module under pgw, attribute): one span per call
SPANS = (
    ("groupfile.parse", "groupfile", "parse_text"),
    ("presentation.validate", "presentation", "validate"),
    ("tables.build", "tables", "GroupTables"),
    ("structure.rank", "structure", "rank"),
    ("structure.frattini", "structure", "frattini"),
    ("structure.central_series", "structure", "upper_central_series"),
    ("structure.central_series", "structure", "lower_central_series"),
    ("structure.maximals", "structure", "maximal_subgroups"),
    ("hypotheses.report", "hypotheses", "check_theorem_hypotheses"),
    ("hypotheses.zm", "hypotheses", "check_zm_condition"),
    ("automorphisms.inner_table", "automorphisms", "_inner_table"),
    ("automorphisms.witness", "automorphisms", "construct_theorem_witness"),
    ("oracle.enumerate", "oracle", "enumerate_automorphisms"),
    ("oracle.prepare", "oracle", "_prepare"),
    ("oracle.sieve", "oracle", "_sieve"),
    ("oracle.certify", "oracle", "_certify_rows"),
    ("oracle.classify", "oracle", "_classify_rows"),
    ("oracle.cross_validate", "oracle", "cross_validate"),
    ("report.build", "report", "build"),
)

# (module, attribute) of each meter
METERS = (
    ("automorphisms", "verify"),
    ("presentation", "mul"),
    ("presentation", "_collect_into"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# counters and ratios, with the attribute whose absence removes them
COUNTS = (
    ("tables.table_bytes", "bytes", "tables.GroupTables"),
    ("structure.rank_calls", "count", "structure.rank"),
    ("automorphisms.verify_s", "s", "automorphisms.verify"),
    ("automorphisms.verify_calls", "count", "automorphisms.verify"),
    ("automorphisms.verify_accept_ratio", "ratio", "automorphisms.verify"),
    ("presentation.collect_calls", "count", "presentation._collect_into"),
    ("presentation.mul_calls", "count", "presentation.mul"),
    ("presentation.mul_distinct_ratio", "ratio", "presentation.mul"),
    ("oracle.sieve_batches", "count", "oracle._sieve"),
    ("oracle.sieve_survivors", "count", "oracle._sieve"),
    ("oracle.certified", "count", "oracle._certify_rows"),
)

# measured by the benchmark itself, around the traced and untraced runs
TRACE_METRICS = (
    ("trace.overhead_ratio", "ratio"),
    ("trace.startup_s", "s"),
    ("trace.unattributed_s", "s"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit), in the order they are printed."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}_s", "s"), (f"{name}_self_s", "s")]
    out += [(name, unit) for name, unit, _ in COUNTS]
    return out + list(TRACE_METRICS)


def _array_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _add(counters, key, n):
    counters[key] = counters.get(key, 0) + n


# extra counters taken from a span's result
_AFTER = {
    "tables.build": lambda c, r: _add(c, "tables.table_bytes", _array_bytes(r)),
    "oracle.sieve": lambda c, r: _add(c, "oracle.sieve_survivors", len(r)),
    "oracle.certify": lambda c, r: _add(c, "oracle.certified", len(r)),
}


class Tracer:
    """Span totals and counters of one process."""

    def __init__(self):
        self.spans = {}  # name -> [inclusive_s, self_s, calls]
        self.top_level_s = 0.0  # inclusive time of spans opened with no span open
        self.counters = {}
        self.pairs = set()  # distinct (presentation, a, b) arguments of mul
        self.verify_s = 0.0
        self.absent = []
        self._stack = []  # per open span: time covered by its children so far
        self._open = {}  # open spans per name, so a recursive call counts once

    def span(self, name, fn):
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            self._open[name] = self._open.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._stack.pop()
                self._open[name] -= 1
                rec = self.spans.setdefault(name, [0.0, 0.0, 0])
                if not self._open[name]:
                    rec[0] += dt
                rec[1] += dt - children
                rec[2] += 1
                if self._stack:
                    self._stack[-1] += dt
                else:
                    self.top_level_s += dt
            if after is not None:
                after(self.counters, result)
            return result

        return wrapper

    def meter(self, attr, fn):
        c = self.counters
        if attr == "verify":
            def wrapper(*args, **kwargs):
                _add(c, "automorphisms.verify_calls", 1)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.verify_s += time.perf_counter() - t0
                _add(c, "automorphisms.verify_accepted", 1)  # verify raises on rejection
                return result
        elif attr == "mul":
            def wrapper(P, a, b):
                _add(c, "presentation.mul_calls", 1)
                self.pairs.add((id(P), tuple(a), tuple(b)))
                return fn(P, a, b)
        else:
            def wrapper(*args, **kwargs):
                _add(c, "presentation.collect_calls", 1)
                return fn(*args, **kwargs)
        return wrapper

    def dump(self):
        """The raw totals, as JSON-ready data; summed over processes by merge()."""
        counters = dict(self.counters)
        counters["presentation.mul_distinct"] = len(self.pairs)
        return {
            "spans": self.spans,
            "top_level_s": self.top_level_s,
            "counters": counters,
            "verify_s": self.verify_s,
            "absent": self.absent,
        }


def install(tracer):
    """Wrap every listed attribute that exists; return a function that undoes it."""
    undo = []
    wanted = list(SPANS) + [(None, mod, attr) for mod, attr in METERS]
    for name, mod, attr in wanted:
        module = importlib.import_module(f"pgw.{mod}")
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.absent.append(f"{mod}.{attr}")
            continue
        wrapped = tracer.span(name, fn) if name else tracer.meter(attr, fn)
        setattr(module, attr, wrapped)
        undo.append((module, attr, fn))

    def restore():
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)

    return restore


def merge(dumps):
    """Sum the raw totals of several traced processes."""
    total = {"spans": {}, "top_level_s": 0.0, "counters": {}, "verify_s": 0.0, "absent": []}
    for d in dumps:
        for name, rec in d["spans"].items():
            acc = total["spans"].setdefault(name, [0.0, 0.0, 0])
            for k in range(3):
                acc[k] += rec[k]
        for key, v in d["counters"].items():
            total["counters"][key] = total["counters"].get(key, 0) + v
        total["top_level_s"] += d["top_level_s"]
        total["verify_s"] += d["verify_s"]
        total["absent"] = sorted(set(total["absent"]) | set(d["absent"]))
    return total


def layer_metrics(total, overhead_ratio, startup_s, unattributed_s):
    """name -> value for every per-layer metric whose attribute is present."""
    absent = set(total["absent"])
    span_attrs = {}
    for name, mod, attr in SPANS:
        span_attrs.setdefault(name, []).append(f"{mod}.{attr}")
    c = total["counters"]
    out = {}
    for name in SPAN_NAMES:
        if absent.issuperset(span_attrs[name]):
            continue
        inclusive, self_s, _ = total["spans"].get(name, (0.0, 0.0, 0))
        out[f"{name}_s"] = inclusive
        out[f"{name}_self_s"] = self_s

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    derived = {
        "structure.rank_calls": total["spans"].get("structure.rank", (0, 0, 0))[2],
        "automorphisms.verify_s": total["verify_s"],
        "automorphisms.verify_accept_ratio": ratio("automorphisms.verify_accepted",
                                                   "automorphisms.verify_calls"),
        "presentation.mul_distinct_ratio": ratio("presentation.mul_distinct",
                                                 "presentation.mul_calls"),
        "oracle.sieve_batches": total["spans"].get("oracle.sieve", (0, 0, 0))[2],
    }
    for name, _, attr in COUNTS:
        if attr not in absent:
            out[name] = derived[name] if name in derived else c.get(name, 0)
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.startup_s"] = startup_s
    out["trace.unattributed_s"] = unattributed_s
    return out
