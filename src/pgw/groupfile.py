"""Plain-text group files.

Line-based UTF-8 format, `#` comments and blank lines ignored:

    name  <label>
    p     <prime>
    n     <generator count>
    pow   <i> = <word>          # f_i^p, omitted means f_i^p = 1
    comm  <i> <j> = <word>      # [f_i, f_j] with i > j, omitted means trivial
    def   <i> = pow <j>         # or: def <i> = comm <j> <k>

A word is `1` or space-separated `g<k>^<e>` tokens with strictly increasing k
and 1 <= e < p.  The p and n lines are held to presentation.MAX_P and MAX_N
as they are read.  Parsing validates the presentation, so a parsed GroupFile
always holds a consistent group; serialize() emits the canonical form and
parse(serialize(P)) reproduces P field for field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import presentation as pc
from .errors import PresentationSyntaxError

_WORD_TOKEN = re.compile(r"^g([0-9]+)\^([0-9]+)$")


@dataclass(frozen=True)
class GroupFile:
    presentation: pc.PcPresentation
    source: str


def _parse_word(text, p, n, min_index, source, lineno):
    text = text.strip()
    if not text:
        raise PresentationSyntaxError(source, lineno, "empty word (use 1 for the identity)")
    if text == "1":
        return ()
    word = []
    last = 0
    for tok in text.split():
        m = _WORD_TOKEN.match(tok)
        if not m:
            raise PresentationSyntaxError(source, lineno, f"bad word token {tok!r}")
        g, e = int(m.group(1)), int(m.group(2))
        if not (1 <= g <= n):
            raise PresentationSyntaxError(source, lineno, f"generator g{g} out of range 1..{n}")
        if g <= min_index:
            raise PresentationSyntaxError(
                source, lineno, f"generator g{g} not allowed here (needs index > {min_index})"
            )
        if g <= last:
            raise PresentationSyntaxError(
                source, lineno, f"generator indices must strictly increase, g{g} after g{last}"
            )
        if not (1 <= e < p):
            raise PresentationSyntaxError(source, lineno, f"exponent {e} not in 1..{p - 1}")
        word.append((g, e))
        last = g
    return tuple(word)


def parse_text(text, source="<string>"):
    """Parse and validate a group file; returns a GroupFile."""
    name = None
    p = None
    n = None
    pow_lines = {}
    comm_lines = {}
    def_lines = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if key == "name":
            if name is not None:
                raise PresentationSyntaxError(source, lineno, "duplicate name line")
            if not rest:
                raise PresentationSyntaxError(source, lineno, "name line needs a label")
            name = rest
        elif key == "p":
            if p is not None:
                raise PresentationSyntaxError(source, lineno, "duplicate p line")
            try:
                p = int(rest)
            except ValueError:
                raise PresentationSyntaxError(source, lineno, f"p must be an integer, got {rest!r}")
            if p > pc.MAX_P:  # before the trial division, which a huge p would stall
                raise pc.size_cap(p=p)
            if not pc._is_prime(p):
                raise PresentationSyntaxError(source, lineno, f"p = {p} is not prime")
        elif key == "n":
            if n is not None:
                raise PresentationSyntaxError(source, lineno, "duplicate n line")
            try:
                n = int(rest)
            except ValueError:
                raise PresentationSyntaxError(source, lineno, f"n must be an integer, got {rest!r}")
            if n < 1:
                raise PresentationSyntaxError(source, lineno, f"n must be >= 1, got {n}")
            if n > pc.MAX_N:  # before n sizes the relation tuples
                raise pc.size_cap(n=n)
        elif key in ("pow", "comm", "def"):
            if p is None or n is None:
                raise PresentationSyntaxError(
                    source, lineno, f"{key} line before p and n are declared"
                )
            if "=" not in rest:
                raise PresentationSyntaxError(source, lineno, f"{key} line needs '='")
            head, _, tail = rest.partition("=")
            idx_parts = head.split()
            if key == "pow":
                if len(idx_parts) != 1 or not idx_parts[0].isdigit():
                    raise PresentationSyntaxError(source, lineno, "pow needs one generator index")
                i = int(idx_parts[0])
                if not (1 <= i <= n):
                    raise PresentationSyntaxError(source, lineno, f"pow index {i} out of range")
                if i in pow_lines:
                    raise PresentationSyntaxError(source, lineno, f"duplicate pow line for {i}")
                pow_lines[i] = _parse_word(tail, p, n, i, source, lineno)
            elif key == "comm":
                if len(idx_parts) != 2 or not all(t.isdigit() for t in idx_parts):
                    raise PresentationSyntaxError(source, lineno, "comm needs two generator indices")
                i, j = int(idx_parts[0]), int(idx_parts[1])
                if not (1 <= j < i <= n):
                    raise PresentationSyntaxError(
                        source, lineno, f"comm indices need 1 <= j < i <= n, got i={i} j={j}"
                    )
                if (i, j) in comm_lines:
                    raise PresentationSyntaxError(source, lineno, f"duplicate comm line for {i} {j}")
                w = _parse_word(tail, p, n, i, source, lineno)
                if w:
                    comm_lines[(i, j)] = w
            else:
                if len(idx_parts) != 1 or not idx_parts[0].isdigit():
                    raise PresentationSyntaxError(source, lineno, "def needs one generator index")
                i = int(idx_parts[0])
                if not (1 <= i <= n):
                    raise PresentationSyntaxError(source, lineno, f"def index {i} out of range")
                if i in def_lines:
                    raise PresentationSyntaxError(source, lineno, f"duplicate def line for {i}")
                toks = tail.split()
                if len(toks) == 2 and toks[0] == "pow" and toks[1].isdigit():
                    def_lines[i] = ("pow", int(toks[1]))
                elif len(toks) == 3 and toks[0] == "comm" and all(t.isdigit() for t in toks[1:]):
                    def_lines[i] = ("comm", int(toks[1]), int(toks[2]))
                else:
                    raise PresentationSyntaxError(
                        source, lineno, f"def body must be 'pow <j>' or 'comm <j> <k>', got {tail!r}"
                    )
        else:
            raise PresentationSyntaxError(source, lineno, f"unknown directive {key!r}")

    if p is None:
        raise PresentationSyntaxError(source, 0, "missing p line")
    if n is None:
        raise PresentationSyntaxError(source, 0, "missing n line")
    if def_lines:
        expect = set(range(n - len(def_lines) + 1, n + 1))
        if set(def_lines) != expect:
            raise PresentationSyntaxError(
                source,
                0,
                f"def lines must cover a tail range of generators; got {sorted(def_lines)}",
            )
    minimal_count = n - len(def_lines)

    P = pc.PcPresentation(
        name=name if name is not None else "unnamed",
        p=p,
        n=n,
        power_rel=tuple(pow_lines.get(i, ()) for i in range(1, n + 1)),
        comm_rel=dict(sorted(comm_lines.items())),
        defn=dict(sorted(def_lines.items())),
        minimal_count=minimal_count,
    )
    return GroupFile(presentation=pc.validate(P), source=source)


def parse_path(path):
    source = str(path)
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise PresentationSyntaxError(source, 0, f"not UTF-8: {e.reason} at byte {e.start}")
    return parse_text(text, source=source)


def word_text(w):
    if not w:
        return "1"
    return " ".join(f"g{g}^{e}" for g, e in w)


def serialize(P):
    """Canonical text for a presentation; parse(serialize(P)) == P."""
    lines = [f"name {P.name}", f"p {P.p}", f"n {P.n}"]
    for i in range(1, P.n + 1):
        w = P.power_rel[i - 1]
        if w:
            lines.append(f"pow {i} = {word_text(w)}")
    for (i, j), w in sorted(P.comm_rel.items()):
        lines.append(f"comm {i} {j} = {word_text(w)}")
    for i, tag in sorted(P.defn.items()):
        if tag[0] == "pow":
            lines.append(f"def {i} = pow {tag[1]}")
        else:
            lines.append(f"def {i} = comm {tag[1]} {tag[2]}")
    return "\n".join(lines) + "\n"
