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

import re
from collections import namedtuple

from . import presentation as pc
from .errors import PresentationSyntaxError

_WORD_TOKEN = re.compile(r"^g([0-9]+)\^([0-9]+)$")

# how many generator indices each relation directive, and each def body, names
_ARITY = {"pow": 1, "comm": 2, "def": 1}
_ARITY_TEXT = {1: "one generator index", 2: "two generator indices"}


GroupFile = namedtuple("GroupFile", "presentation source")


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


def _indices(tokens, count):
    """The ints that tokens spell when they are count generator indices in
    ASCII digits, as in a word token, else None."""
    digits = "".join(tokens)
    if len(tokens) != count or not (digits.isascii() and digits.isdigit()):
        return None
    return tuple(map(int, tokens))


def parse_text(text, source="<string>"):
    """Parse and validate a group file; returns a GroupFile."""
    header = {}  # the name, p and n lines' values
    lines = {key: {} for key in _ARITY}  # per directive: indices -> word or def body

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if key in ("name", "p", "n"):
            if key in header:
                raise PresentationSyntaxError(source, lineno, f"duplicate {key} line")
            if key == "name":
                if not rest:
                    raise PresentationSyntaxError(source, lineno, "name line needs a label")
                header[key] = rest
                continue
            if not (rest.isascii() and rest.isdigit()):  # as in a relation index
                raise PresentationSyntaxError(
                    source, lineno, f"{key} must be an integer, got {rest!r}"
                )
            value = header[key] = int(rest)
            if key == "p":
                if value > pc.MAX_P:  # before the trial division, which a huge p would stall
                    raise pc.size_cap(p=value)
                if not pc._is_prime(value):
                    raise PresentationSyntaxError(source, lineno, f"p = {value} is not prime")
            else:
                if value < 1:
                    raise PresentationSyntaxError(source, lineno, f"n must be >= 1, got {value}")
                if value > pc.MAX_N:  # before n sizes the relation tuples
                    raise pc.size_cap(n=value)
        elif key in _ARITY:
            if "p" not in header or "n" not in header:
                raise PresentationSyntaxError(
                    source, lineno, f"{key} line before p and n are declared"
                )
            p, n = header["p"], header["n"]
            if "=" not in rest:
                raise PresentationSyntaxError(source, lineno, f"{key} line needs '='")
            head, _, tail = rest.partition("=")
            idx = _indices(head.split(), _ARITY[key])
            if idx is None:
                raise PresentationSyntaxError(
                    source, lineno, f"{key} needs {_ARITY_TEXT[_ARITY[key]]}"
                )
            i = idx[0]
            if key == "comm":
                if not 1 <= idx[1] < i <= n:
                    raise PresentationSyntaxError(
                        source, lineno, f"comm indices need 1 <= j < i <= n, got i={i} j={idx[1]}"
                    )
            elif not 1 <= i <= n:
                raise PresentationSyntaxError(source, lineno, f"{key} index {i} out of range")
            if idx in lines[key]:  # a trivial word still takes its line
                raise PresentationSyntaxError(
                    source, lineno, f"duplicate {key} line for {' '.join(map(str, idx))}"
                )
            if key == "def":
                kind, *args = tail.split() or [""]
                body = _indices(args, _ARITY[kind]) if kind in ("pow", "comm") else None
                if body is None:
                    raise PresentationSyntaxError(
                        source,
                        lineno,
                        f"def body must be 'pow <j>' or 'comm <j> <k>', got {tail!r}",
                    )
                lines[key][idx] = (kind, *body)
            else:
                lines[key][idx] = _parse_word(tail, p, n, i, source, lineno)
        else:
            raise PresentationSyntaxError(source, lineno, f"unknown directive {key!r}")

    for key in ("p", "n"):
        if key not in header:
            raise PresentationSyntaxError(source, 0, f"missing {key} line")
    p, n = header["p"], header["n"]
    def_lines = {i: body for (i,), body in sorted(lines["def"].items())}
    if def_lines:
        expect = set(range(n - len(def_lines) + 1, n + 1))
        if set(def_lines) != expect:
            raise PresentationSyntaxError(
                source,
                0,
                f"def lines must cover a tail range of generators; got {sorted(def_lines)}",
            )

    P = pc.PcPresentation(
        name=header.get("name", "unnamed"),
        p=p,
        n=n,
        power_rel=tuple(lines["pow"].get((i,), ()) for i in range(1, n + 1)),
        comm_rel={ij: w for ij, w in sorted(lines["comm"].items()) if w},
        defn=def_lines,
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
