"""Command-line front end.

    pgw {info|check|construct|count|demo} [<file>] [--report <path>] [--format {text|json}]
    pgw {construct|count|demo} ... [--budget <sec>] [--jobs <k>]
    pgw {construct|demo} ... [--with-oracle]

Every subcommand is one pipeline that runs only the stages it needs: the
hypotheses for check, construct and demo; the witness when they hold (not
for check); the oracle for count and --with-oracle.  One report follows.
demo is that pipeline on the built-in group, followed by its fact list,
which reads the pipeline's results.

A flag is written --flag value or --flag=value, before or after the file,
or as any unique prefix of its name (--form json); the last of a repeated
flag wins, and a flag's value is the next argument even when it starts
with '-'.  -h or --help prints the help and exits 0.

Exit codes: 0 success, 1 hypothesis not applicable, 2 input errors (an
errors.InputError, an OSError, or an argv the parser rejects, such as an
unknown flag, a --budget that is negative or not finite or a --jobs below
1: main raises SystemExit(2) after a usage line and a `pgw <cmd>: error:`
line on stderr), 3 internal contradiction (any other PgwError, or a failed
assertion: a certificate, cross-check or invariant failed, which means a
bug, not bad input), 130 interrupted (Ctrl-C).

Each run loads only what it uses: the hypotheses only for check, construct
and demo; the witness layer (automorphisms) only to build a witness, that
is, only when the hypotheses hold; the oracle and its tables only for count
and --with-oracle (the oracle loads both layers itself); the demo facts
(demofacts) only for demo; the text renderer (render) only for --format
text; json only for --format json or --report; and multiprocessing only
for --jobs above 1.  So info loads neither layer and check never the
witness layer.  Parsing argv loads no module, argparse included.  No
command needs a package outside the standard library.
"""

import math
import sys
import time

from . import corpus
from . import groupfile
from . import report as rp
from .errors import InputError, Mismatch, PgwError


def _at_least(convert, low, what):
    """A flag's converter: convert(text), which must lie in [low, inf)."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise ValueError(f"invalid {convert.__name__} value: {text!r}") from None
        if not low <= value < math.inf:  # nan fails both
            raise ValueError(f"need {what}, got {text!r}")
        return value

    return parse


def _choice(*choices):
    """A flag's converter: text, which must be one of choices."""

    def parse(text):
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    return parse


_WIDTH = 78  # columns of the help text

_DESCRIPTION = ("non-inner automorphisms of finite p-groups "
                "from power-commutator presentations")

_FILE_HELP = "group file; omitted means the built-in example group"

# flag: (converter, None for a switch; metavar, "" for a switch; help; default)
_FLAGS = {
    "--report": (str, "PATH", "write the JSON report to PATH", None),
    "--format": (_choice("text", "json"), "{text,json}", "stdout format", "text"),
    "--with-oracle": (None, "", "also enumerate the full automorphism group", False),
    "--budget": (_at_least(float, 0, "a finite number of seconds >= 0"), "SEC",
                 "wall-clock budget for the oracle", None),
    "--jobs": (_at_least(int, 1, "a whole number >= 1"), "K",
               "worker processes for the oracle", 1),
}

# command: (help, whether it takes a file, its flags)
_COMMANDS = {
    "info": ("structural summary: order, class, center, Frattini, maximals", True,
             ("--report", "--format")),
    "check": ("decide the theorem hypotheses", True, ("--report", "--format")),
    "construct": ("build and certify the non-inner automorphism", True,
                  ("--report", "--format", "--with-oracle", "--budget", "--jobs")),
    "count": ("enumerate Aut(G) and cross-validate the tallies", True,
              ("--report", "--format", "--budget", "--jobs")),
    "demo": ("run the full pipeline on the built-in group, asserting each fact", False,
             ("--report", "--format", "--with-oracle", "--budget", "--jobs")),
}


def _label(flag):
    """flag with its metavar, as usage and help show it."""
    return f"{flag} {_FLAGS[flag][1]}".rstrip()


def _usage(command):
    """The usage of pgw (command None) or of one command, wrapped at _WIDTH
    columns with the file on a line of its own."""
    if command is None:
        return f"usage: pgw [-h] {{{','.join(_COMMANDS)}}} ..."
    _, takes_file, flags = _COMMANDS[command]
    head = f"usage: pgw {command}"
    parts = ["[-h]"] + [f"[{_label(flag)}]" for flag in flags]
    tail = ["[file]"] if takes_file else []
    if len(" ".join([head, *parts, *tail])) <= _WIDTH:
        return " ".join([head, *parts, *tail])
    lines, line = [], head
    for part in parts:
        if len(line) + 1 + len(part) > _WIDTH:
            lines.append(line)
            line = " " * len(head)
        line += " " + part
    return "\n".join([*lines, line, *(" " * len(head) + " " + part for part in tail)])


def _help(command):
    """The -h text of pgw (command None) or of one command."""
    if command is None:
        description, flags = _DESCRIPTION, ()
        sections = [("commands", [(name, spec[0]) for name, spec in _COMMANDS.items()])]
    else:
        description, takes_file, flags = _COMMANDS[command]
        sections = [("positional arguments", [("file", _FILE_HELP)])] if takes_file else []
    options = [(_label(flag), _FLAGS[flag][2]) for flag in flags]
    sections.append(("options", [("-h, --help", "show this help message and exit"), *options]))
    width = max(len(label) for _, rows in sections for label, _ in rows)
    out = [_usage(command), "", description]
    for title, rows in sections:
        out += ["", f"{title}:", *(f"  {label:<{width}}  {text}" for label, text in rows)]
    return "\n".join(out) + "\n"


def _fail(command, message):
    """Reject argv: the usage of pgw (command None) or of command, the
    message, exit 2."""
    prog = "pgw" if command is None else f"pgw {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _parse(argv):
    """argv as a dict from "command", "file" and every flag to its value; -h
    prints the help and exits 0, and a bad argv exits 2 by _fail."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if command not in _COMMANDS:
        listed = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {listed})")
    _, takes_file, flags = _COMMANDS[command]
    args = {"command": command, "file": None, **{flag: spec[3] for flag, spec in _FLAGS.items()}}
    unknown, wants_file, literal = [], takes_file, False
    rest = iter(rest)
    for arg in rest:
        if arg == "--" and not literal:  # every later argument is positional
            literal = True
        elif literal or len(arg) < 2 or arg[0] != "-":
            if wants_file:
                args["file"], wants_file = arg, False
            else:
                unknown.append(arg)
        else:
            name, eq, value = ("--help" if arg == "-h" else arg).partition("=")
            matches = [f for f in (*flags, "--help") if f.startswith(name)]
            if not name.startswith("--") or len(matches) != 1:
                unknown.append(arg)
                continue
            flag = matches[0]
            if flag == "--help":
                sys.stdout.write(_help(command))
                raise SystemExit(0)
            convert = _FLAGS[flag][0]
            if convert is None:
                if eq:
                    _fail(command, f"argument {flag}: ignored explicit argument {value!r}")
                value = True
            else:
                value = value if eq else next(rest, None)
                if value is None:
                    _fail(command, f"argument {flag}: expected one argument")
                try:
                    value = convert(value)
                except ValueError as e:
                    _fail(command, f"argument {flag}: {e}")
            args[flag] = value
    if unknown:
        _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _run(args, t0):
    """The stages args["command"] needs, one report on stdout (and in
    --report), and the exit code."""
    command, name = args["command"], args["file"]
    P = corpus.demo() if name is None else groupfile.parse_path(name).presentation
    h = w = count = None
    sections, lines = {}, []
    if command in ("check", "construct", "demo"):
        from . import hypotheses as hy

        h = hy.check_theorem_hypotheses(P)
        sections["hypotheses"] = h.to_dict()
        if command != "check" and h.theorem_applicable:
            from . import automorphisms as au

            w = au.construct_theorem_witness(P)
            sections["witness"] = rp.witness_section(P, w)
            sections["verification"] = rp.verification_section(P)
        elif command == "construct":
            lines.append("hypotheses not applicable; no witness constructed")
    if command == "count" or (w is not None and args["--with-oracle"]):
        from . import oracle as orc

        count = orc.enumerate_automorphisms(P, budget=args["--budget"], jobs=args["--jobs"])
        sections["oracle"] = rp.oracle_section(count, orc.cross_validate(P, precomputed=count))
    if command == "demo":
        from . import demofacts

        for fact, holds in demofacts.facts(P, h, w, count):
            if not holds:
                raise Mismatch(f"demo expectation failed: {fact}")
            lines.append(f"ok: {fact}")
        lines.append("demo: all expectations hold")

    timing = {"total_s": time.monotonic() - t0}
    if count is not None:
        timing["oracle_s"] = count.elapsed
    rep = rp.build(P, **sections, timing=timing)
    text = rp.to_json(rep) if args["--format"] == "json" or args["--report"] else None
    if args["--format"] == "json":
        sys.stdout.write(text)
    else:
        from . import render

        sys.stdout.write(render.render_text(rep) + "".join(line + "\n" for line in lines))
    if args["--report"]:
        with open(args["--report"], "w", encoding="utf-8") as fh:
            fh.write(text)
    return 1 if h is not None and not h.theorem_applicable else 0


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _run(args, time.monotonic())
    except (InputError, OSError) as e:
        print(f"pgw: error: {e}", file=sys.stderr)
        return 2
    except (PgwError, AssertionError) as e:
        print(f"pgw: internal contradiction: {e.__class__.__name__}: {e}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # any oracle workers were stopped on the way out
        print("pgw: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
