"""Command-line behavior: subcommands, exit codes, report output."""

import importlib.resources
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import pgw
from pgw import automorphisms as au
from pgw import cli, errors
from pgw import hypotheses as hy
from pgw import oracle as orc
from pgw import presentation as pc
from pgw import structure as st
from pgw.report import TOP_KEYS

from conftest import FAMILY
from test_errors import ARGS, SUBCLASSES


def data_path(name):
    return str(importlib.resources.files("pgw").joinpath(f"data/{name}.pg"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_check_demo_exit_zero(capsys):
    code, out = run(capsys, "check")
    assert code == 0
    assert "theorem_applicable: true" in out


def test_check_json_top_level_key_order(capsys):
    code, out = run(capsys, "check", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == list(TOP_KEYS)
    assert rep["group"]["name"] == "g2187"
    assert rep["hypotheses"]["theorem_applicable"] is True
    assert rep["witness"] is None
    assert rep["oracle"] is None


def test_check_failing_group_exit_one(capsys):
    code, out = run(capsys, "check", data_path("h27"), "--format", "json")
    assert code == 1
    rep = json.loads(out)
    assert rep["hypotheses"]["all_maximals_nonabelian"] is False
    assert rep["hypotheses"]["theorem_applicable"] is False


def test_check_even_p_exit_one(capsys):
    code, out = run(capsys, "check", data_path("q8"), "--format", "json")
    assert code == 1
    assert json.loads(out)["hypotheses"]["p_odd"] is False


def test_construct_applicable_group(capsys):
    code, out = run(capsys, "construct", data_path("m243"), "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["witness"]["u"] is not None
    assert rep["verification"]["certified"] is True
    assert rep["verification"]["order"] == 3
    assert rep["verification"]["is_inner"] is False
    assert rep["verification"]["fixes_frattini_elementwise"] is True


def test_construct_failing_group_exit_one(capsys):
    code, out = run(capsys, "construct", data_path("h27"), "--format", "json")
    assert code == 1
    assert json.loads(out)["witness"] is None


def test_construct_demo_matches_known_map(capsys):
    code, out = run(capsys, "construct", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["witness"]["u"] == "g6^1"
    assert rep["witness"]["g"] == "g2^1"
    assert rep["witness"]["images"][1] == "g2^1 g6^1"


@pytest.mark.parametrize("broken", ["inner", "moves_frattini"])
def test_construct_contradicting_witness_exits_three(capsys, monkeypatch, broken):
    # a witness that breaks the theorem is a bug: no report, exit 3.  The
    # demo group read from its file is a fresh presentation, with no witness
    # memoized by an earlier test, so the patched check runs.
    if broken == "inner":
        monkeypatch.setattr(au, "is_inner", lambda A: (True, pgw.identity(A.parent)))
        error = "InnerWitnessFound"
    else:
        fixes = au.fixes_elementwise
        monkeypatch.setattr(
            au, "fixes_elementwise", lambda A, H: H != pgw.frattini(A.parent) and fixes(A, H)
        )
        error = "CertificationFailed"
    assert cli.main(["construct", data_path("g2187"), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"pgw: internal contradiction: {error}: ")


def test_count_cross_validation_mismatch_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(orc, "_conjugates_by", lambda P, gens, images, t: False)
    assert cli.main(["count", data_path("h27")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pgw: internal contradiction: Mismatch: inner witness ")


def test_count_small_group(capsys):
    code, out = run(capsys, "count", data_path("x27"), "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle"]["total"] == 54
    assert rep["oracle"]["inner"] == 9
    assert rep["oracle"]["cross_validated"] is True


def test_count_even_p_still_counts(capsys):
    code, out = run(capsys, "count", data_path("q8"), "--format", "json")
    assert code == 0
    assert json.loads(out)["oracle"]["total"] == 24


def test_info_text(capsys):
    code, out = run(capsys, "info", data_path("w81"))
    assert code == 0
    assert "order 81 = 3^4" in out
    assert "class 3" in out


def test_info_accepts_user_file(capsys, tmp_path):
    src = importlib.resources.files("pgw").joinpath("data/h27.pg").read_text()
    f = tmp_path / "mygroup.pg"
    f.write_text(src.replace("name h27", "name mygroup"))
    code, out = run(capsys, "info", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["group"]["name"] == "mygroup"


# C343 : C49 acting by a -> a^8, as (x, y)(u, v) = (x + u 8^y mod 343, y + v mod 49),
# on the pc sequence a, b, a^7, b^7, a^49: order 7^5, whose count takes far longer than 2 s
C343C49 = """name c343c49
p 7
n 5
pow 1 = g3^1
pow 2 = g4^1
pow 3 = g5^1
comm 2 1 = g3^1 g5^6
comm 3 2 = g5^6
comm 4 1 = g5^1
def 3 = pow 1
def 4 = pow 2
def 5 = pow 3
"""


def test_group_of_order_7_to_the_5(capsys, tmp_path):
    f = tmp_path / "c343c49.pg"
    f.write_text(C343C49)
    P = pgw.parse_path(str(f)).presentation
    assert P.validated and P.order == 7**5
    for cmd in ("info", "check", "construct"):
        code, out = run(capsys, cmd, str(f), "--format", "json")
        rep = json.loads(out)
        assert (rep["group"]["order"], rep["group"]["rank"]) == (16807, 2)
        if cmd == "info":
            assert code == 0
        else:
            assert code == (0 if rep["hypotheses"]["theorem_applicable"] else 1)
    if code == 0:
        assert rep["verification"]["certified"] is True
        assert rep["verification"]["order"] == 7

    # half of a cold count on this host, so the budget runs out however fast it is
    start = time.monotonic()
    pgw.enumerate_automorphisms(P)
    budget = (time.monotonic() - start) / 2
    code, out = run(capsys, "count", str(f), "--format", "json", "--budget", f"{budget:.3f}")
    assert code == 2
    assert "budget" in out


def test_count_over_element_cap_exit_two(capsys, tmp_path):
    # C_{3^12}: f_i^3 = f_{i+1}, order 531441, over the tables' element cap
    lines = ["name c531441", "p 3", "n 12"]
    lines += [f"pow {i} = g{i + 1}^1" for i in range(1, 12)]
    lines += [f"def {i + 1} = pow {i}" for i in range(1, 12)]
    f = tmp_path / "c531441.pg"
    f.write_text("\n".join(lines) + "\n")
    assert pgw.parse_path(str(f)).presentation.order == 3**12 > pc.ELEMENT_CAP
    code, out = run(capsys, "count", str(f), "--format", "json")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("pgw: error: ")
    assert f"enumeration cap {pc.ELEMENT_CAP}" in out


# es3's text at p = 97: class 2 < p, so nothing scans G, but d = 4 gives
# (97^4 - 1)/96 = 922,180 maximal subgroups for the report to list and the
# hypotheses to visit; they are refused before any is built
ES97 = "name es97\np 97\nn 5\ncomm 2 1 = g5^1\ncomm 4 3 = g5^1\ndef 5 = comm 2 1\n"


@pytest.mark.parametrize("command", ["info", "check", "construct"])
def test_too_many_maximals_exit_two_at_once(capsys, tmp_path, command):
    f = tmp_path / "es97.pg"
    f.write_text(ES97)

    def slow(signum, frame):
        pytest.fail(f"pgw {command} is still enumerating maximal subgroups")

    undo = _alarm(20, slow)
    try:
        code, out = run(capsys, command, str(f), "--format", "json")
    finally:
        undo()
    assert code == 2
    cap = pc.ELEMENT_CAP
    assert out == f"pgw: error: G has 922180 maximal subgroups, over the enumeration cap {cap}\n"


def test_syntax_error_exit_two(capsys, tmp_path):
    f = tmp_path / "bad.pg"
    f.write_text("name bad\np 4\nn 1\n")
    code, out = run(capsys, "check", str(f))
    assert code == 2
    assert "bad.pg:2:" in out and "not prime" in out


def test_inconsistent_file_exit_two(capsys, tmp_path):
    f = tmp_path / "incons.pg"
    f.write_text(
        "name incons\np 3\nn 3\n"
        "pow 1 = g2^1\npow 2 = g3^1\n"
        "comm 2 1 = g3^1\n"
        "def 2 = pow 1\ndef 3 = pow 2\n"
    )
    code, out = run(capsys, "check", str(f))
    assert code == 2


@pytest.mark.parametrize("command", ["info", "check", "construct", "count"])
def test_undefined_frattini_generator_exit_two(capsys, tmp_path, command):
    # c9 without its def line: f_1^3 = f_2 puts f_2 in Phi(G), yet it counts as minimal
    f = tmp_path / "c9nodef.pg"
    f.write_text("name c9nodef\np 3\nn 2\npow 1 = g2^1\n")
    code, out = run(capsys, command, str(f), "--format", "json")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("pgw: error: ")
    assert "give it a def line" in out


H27 = "name h27\np 3\nn 3\ncomm 2 1 = g3^1\n"


# a def naming a generator at or after its own, and a file that is not UTF-8
@pytest.mark.parametrize(
    "body, reason",
    [
        ((H27 + "def 3 = pow 5\n").encode(), "pow(5): index must be < 3"),
        ((H27 + "def 3 = comm 3 1\n").encode(), "indices must be < 3"),
        (b"name h\xe9\np 3\nn 1\n", "not UTF-8"),
    ],
    ids=["pow-index", "comm-index", "not-utf8"],
)
@pytest.mark.parametrize("command", ["info", "check", "construct", "count"])
def test_bad_input_file_exit_two(capsys, tmp_path, command, body, reason):
    f = tmp_path / "bad.pg"
    f.write_bytes(body)
    code, out = run(capsys, command, str(f), "--format", "json")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("pgw: error: ")
    assert reason in out


# a repeated relation line whose first word is trivial, indices that
# str.isdigit accepts but int() does not, and a p that int() reads as 3: one
# stderr line and exit 2
@pytest.mark.parametrize(
    "text, line, reason",
    [
        ("p 3\nn 3\ncomm 2 1 = 1\ncomm 2 1 = g3^1\ndef 3 = comm 2 1\n", 4,
         "duplicate comm line for 2 1"),
        ("p 3\nn 2\npow ² = g2^1\n", 3, "pow needs one generator index"),
        (H27 + "def 3 = comm ² 1\n", 5,
         "def body must be 'pow <j>' or 'comm <j> <k>', got ' comm ² 1'"),
        ("p ٣\nn 2\n", 1, "p must be an integer, got '٣'"),
    ],
    ids=["trivial-duplicate", "pow-superscript", "def-superscript", "p-arabic-indic"],
)
@pytest.mark.parametrize("command", ["info", "check"])
def test_parser_rejects_exit_two(capsys, tmp_path, command, text, line, reason):
    f = tmp_path / "bad.pg"
    f.write_text(text, encoding="utf-8")
    code, out = run(capsys, command, str(f))
    assert code == 2
    assert out == f"pgw: error: {f}:{line}: {reason}\n"


# The caps apply at the p and n lines: a huge p never reaches the primality
# trial division, which would run for minutes, and a huge n never sizes the
# relation tuples.  The bad line after n is only reached if the cap waits.
@pytest.mark.parametrize(
    "header, got",
    [
        ("p 1000000000000000003\nn 2\n", "got p=1000000000000000003"),
        ("p 3\nn 2000000\nbad\n", "got n=2000000"),
    ],
    ids=["huge-p", "huge-n"],
)
def test_size_cap_at_the_header_exit_two(tmp_path, header, got):
    f = tmp_path / "big.pg"
    f.write_text("name big\n" + header)
    proc = subprocess.run(
        [sys.executable, "-m", "pgw.cli", "info", str(f)],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"pgw: error: p <= {pc.MAX_P} and n <= {pc.MAX_N} required, {got}\n"


def test_missing_file_exit_two(capsys, tmp_path):
    code, out = run(capsys, "check", str(tmp_path / "nope.pg"))
    assert code == 2


def test_oracle_budget_exit_two(capsys):
    code, out = run(capsys, "count", data_path("m243"), "--budget", "0")
    assert code == 2
    assert "budget" in out


def test_count_budget_two_seconds_exits_two(capsys, tmp_path):
    # C_{11^3} x| C_{11^2}, whose search runs far past the budget; the 7^5
    # group's whole count can end inside 2 s on a fast host
    f = tmp_path / "m161051.pg"
    f.write_text(FAMILY.format(order=11**5, p=11, q=10))
    code, out = run(capsys, "count", str(f), "--budget", "2")
    assert code == 2
    assert "budget" in out


def test_count_dead_worker_exits_two(capsys, monkeypatch):
    # a worker that dies mid-enumeration must end --jobs 2 with exit 2, not
    # leave the parent waiting; the alarm fails the test instead of hanging
    run_chunk = orc._run_chunk

    def dying(ctx, firsts, deadline):
        if firsts[0] == 1:  # the chunk holding the first level-d node
            os._exit(7)
        return run_chunk(ctx, firsts, deadline)

    def hung(signum, frame):
        pytest.fail("pgw count is still waiting for a dead worker")

    monkeypatch.setattr(orc, "_run_chunk", dying)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        code, out = run(capsys, "count", data_path("m243"), "--jobs", "2")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert "pgw: error: oracle worker" in out and "exit status 7" in out
    assert multiprocessing.active_children() == []


def _alarm(seconds, handler):
    """Run handler on SIGALRM after the given seconds; returns the undo."""
    previous = signal.signal(signal.SIGALRM, handler)
    signal.alarm(seconds)

    def undo():
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    return undo


def test_count_hung_worker_ends_at_the_budget(capsys, monkeypatch):
    # a worker that hangs without dying and without checking the budget:
    # the parent stops waiting when the budget is spent, exits 2 and leaves
    # no worker behind; the alarm fails the test instead of hanging
    def hanging(ctx, firsts, deadline):
        import time

        time.sleep(120)

    def hung(signum, frame):
        pytest.fail("pgw count is still waiting for a hung worker")

    monkeypatch.setattr(orc, "_run_chunk", hanging)
    undo = _alarm(30, hung)
    try:
        code, out = run(capsys, "count", data_path("m243"), "--jobs", "2", "--budget", "1")
    finally:
        undo()
    assert code == 2
    assert out.startswith("pgw: error: budget exhausted") and out.count("\n") == 1
    assert multiprocessing.active_children() == []


def test_large_budget_with_two_jobs_runs(capsys):
    # a budget past poll's C int of milliseconds is waited for in slices
    code, out = run(capsys, "count", data_path("m243"), "--jobs", "2", "--budget", "1e7",
                    "--format", "json")
    assert code == 0
    code, plain = run(capsys, "count", data_path("m243"), "--format", "json")
    assert code == 0
    budgeted, plain = json.loads(out), json.loads(plain)
    budgeted.pop("timing"), plain.pop("timing")
    assert budgeted == plain


@pytest.mark.parametrize(
    "flags",
    [["--budget", "nan"], ["--budget", "inf"], ["--budget", "-1"], ["--jobs", "0"],
     ["--jobs", "-3"]],
    ids=lambda f: " ".join(f),
)
def test_bad_budget_or_jobs_exits_two_at_parse_time(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", data_path("m243")] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: pgw count")
    assert f"argument {flags[0]}: need " in captured.err


TOP_USAGE = "usage: pgw [-h] {info,check,construct,count,demo} ..."
INFO_USAGE = "usage: pgw info [-h] [--report PATH] [--format {text,json}] [file]"
COUNT_USAGE = "usage: pgw count [-h] [--report PATH] [--format {text,json}] [--budget SEC]"
H27_TEXT = "group h27: p = 3, 3 pc generators, order 27 = 3^3"


# argv -> exit code, the first line of stdout (of stderr when stdout is
# empty) and, for an error, the last line of stderr
PARITY = [
    ("no-command", [], 2, TOP_USAGE,
     "pgw: error: the following arguments are required: command"),
    ("unknown-command", ["frob"], 2, TOP_USAGE,
     "pgw: error: argument command: invalid choice: 'frob' "
     "(choose from 'info', 'check', 'construct', 'count', 'demo')"),
    ("top-h", ["-h"], 0, TOP_USAGE, None),
    ("top-help", ["--help"], 0, TOP_USAGE, None),
    ("info-h", ["info", "-h"], 0, INFO_USAGE, None),
    ("check-h", ["check", "-h"], 0,
     "usage: pgw check [-h] [--report PATH] [--format {text,json}] [file]", None),
    ("construct-h", ["construct", "-h"], 0,
     "usage: pgw construct [-h] [--report PATH] [--format {text,json}]", None),
    ("count-help", ["count", "--help"], 0, COUNT_USAGE, None),
    ("demo-h", ["demo", "-h"], 0,
     "usage: pgw demo [-h] [--report PATH] [--format {text,json}] [--with-oracle]", None),
    ("format-xml", ["info", data_path("h27"), "--format", "xml"], 2, INFO_USAGE,
     "pgw info: error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    ("jobs-x", ["count", data_path("h27"), "--jobs", "x"], 2, COUNT_USAGE,
     "pgw count: error: argument --jobs: invalid int value: 'x'"),
    ("budget-x", ["count", data_path("h27"), "--budget", "x"], 2, COUNT_USAGE,
     "pgw count: error: argument --budget: invalid float value: 'x'"),
    ("jobs=2", ["construct", data_path("c9"), "--jobs=2", "--format", "json"], 1, "{", None),
    ("jobs=0", ["count", data_path("h27"), "--jobs=0"], 2, COUNT_USAGE,
     "pgw count: error: argument --jobs: need a whole number >= 1, got '0'"),
    ("flag-before-file", ["info", "--format", "json", data_path("h27")], 0, "{", None),
    ("repeated-flag-last-wins",
     ["info", data_path("h27"), "--format", "json", "--format", "text"], 0, H27_TEXT, None),
    ("prefix", ["info", data_path("h27"), "--form", "json"], 0, "{", None),
    ("demo-file", ["demo", data_path("h27")], 2, TOP_USAGE,
     f"pgw: error: unrecognized arguments: {data_path('h27')}"),
    ("info-jobs", ["info", data_path("h27"), "--jobs", "2"], 2, TOP_USAGE,
     "pgw: error: unrecognized arguments: --jobs 2"),
]


@pytest.mark.parametrize(
    "argv, code, first, last", [row[1:] for row in PARITY], ids=[row[0] for row in PARITY]
)
def test_argv_parity(capsys, argv, code, first, last):
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert (captured.out or captured.err).splitlines()[0] == first
    if last is not None:
        assert captured.out == "" and captured.err.splitlines()[-1] == last


# each command's stage that the policy test makes raise
STAGES = [
    ("info", st, "upper_central_series"),
    ("check", hy, "check_theorem_hypotheses"),
    ("construct", au, "construct_theorem_witness"),
    ("count", orc, "enumerate_automorphisms"),
]


@pytest.mark.parametrize("cls", SUBCLASSES + [AssertionError], ids=lambda c: c.__name__)
@pytest.mark.parametrize("command, module, stage", STAGES, ids=[s[0] for s in STAGES])
def test_error_class_picks_the_exit_code(capsys, monkeypatch, command, module, stage, cls):
    # exit 2 for an InputError, 3 for any other error, always one stderr line
    # and nothing on stdout: no error class falls through to a traceback
    def raising(*args, **kwargs):
        raise cls(*ARGS.get(cls, ("something failed",)))

    monkeypatch.setattr(module, stage, raising)
    code = cli.main([command, data_path("m243")])
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    if issubclass(cls, errors.InputError):
        assert code == 2 and captured.err.startswith("pgw: error: ")
    else:
        assert code == 3
        assert captured.err.startswith(f"pgw: internal contradiction: {cls.__name__}: ")


def test_no_eligible_u_exits_three(capsys, monkeypatch):
    # m243 satisfies the hypotheses, so a missing u is a bug
    monkeypatch.setattr(st, "least_order_p_outside_center", lambda P: None)
    assert cli.main(["construct", data_path("m243")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pgw: internal contradiction: NoEligibleU: ")


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(P):
        raise KeyboardInterrupt

    monkeypatch.setattr(pgw.hypotheses, "check_theorem_hypotheses", interrupted)
    assert cli.main(["check", data_path("h27")]) == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pgw: interrupted\n"


def test_interrupt_reaps_oracle_workers(capfd, monkeypatch):
    # Ctrl-C reaches the whole process group: here the workers get SIGINT
    # first and the parent, waiting on them, a moment later.  Exit 130, one
    # line, and every worker stopped; a worker that did not ignore SIGINT
    # would print its own traceback, which capfd would catch
    def hanging(ctx, firsts, deadline):
        import time

        time.sleep(120)

    def interrupt(signum, frame):
        import time

        for proc in multiprocessing.active_children():
            os.kill(proc.pid, signal.SIGINT)
        time.sleep(0.5)
        raise KeyboardInterrupt

    monkeypatch.setattr(orc, "_run_chunk", hanging)
    undo = _alarm(2, interrupt)
    try:
        code = cli.main(["count", data_path("m243"), "--jobs", "2"])
    finally:
        undo()
    captured = capfd.readouterr()
    assert code == 130
    assert captured.err == "pgw: interrupted\n" and captured.out == ""
    assert multiprocessing.active_children() == []


def test_no_command_loads_numpy():
    # info, check, construct and demo run on induced pc sequences and plain
    # collection, never loading the tables or the oracle; count, with one job
    # or two, and demo --with-oracle run the oracle on plain lists, so no
    # command loads numpy
    script = """
import contextlib, io, sys
from pgw import cli
runs = []
for path in PATHS:
    for cmd in ("info", "check", "construct"):
        for fmt in ("text", "json"):
            runs.append([cmd, path, "--format", fmt])
runs.append(["demo"])
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
heavy = ("numpy", "pgw.tables", "pgw.oracle", "dataclasses", "inspect")
loaded = sorted(m for m in heavy if m in sys.modules)
oracle_runs = [
    ["count", PATHS[1], "--format", "json"],
    ["count", PATHS[1], "--format", "json", "--jobs", "2"],
    ["demo", "--with-oracle", "--format", "json"],
]
with contextlib.redirect_stdout(io.StringIO()) as out:
    counts = [cli.main(argv) for argv in oracle_runs]
totals = [out.getvalue().count(f'"total": {t}') for t in (24, 4374)]
print(codes, loaded, counts, "numpy" in sys.modules, *totals)
"""
    paths = f"PATHS = {[data_path('g2187'), data_path('q8')]!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", paths + script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    codes = [0, 0, 0, 0, 0, 0] + [0, 0, 1, 1, 1, 1] + [0]
    assert proc.stdout.split("\n")[0] == f"{codes} [] [0, 0, 0] False 2 1"


def test_construct_on_a_file_loads_no_heavy_module():
    # without site, nothing but pgw decides what a run on a group file loads;
    # count adds the oracle, which loads none of them either.  A JSON run
    # loads neither the demo facts nor the text renderer, which a text run
    # then loads; parsing argv loads nothing
    script = """
import contextlib, io, sys
from pgw import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([cmd, PATH, "--format", "json"]) for cmd in ("construct", "count")]
    by_json = [m for m in ("pgw.demofacts", "pgw.render") if m in sys.modules]
    codes += [cli.main(["construct", PATH]), cli.main(["count", PATH])]
heavy = ("dataclasses", "inspect", "importlib.resources", "numpy", "argparse", "gettext",
         "locale")
print(codes, by_json, "pgw.render" in sys.modules, [m for m in heavy if m in sys.modules])
"""
    src = os.path.dirname(os.path.dirname(pgw.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"PATH = {data_path('g2187')!r}\n" + script],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0] [] True []\n"


LOAD_CASES = [
    (["info", "w81"], 0, []),
    (["info", "h27", "--format", "text"], 0, []),
    (["check", "w81"], 1, ["pgw.hypotheses"]),
    (["construct", "h27", "--format", "json"], 1, ["json", "pgw.hypotheses"]),
    (["construct", "g2187"], 0, ["pgw.automorphisms", "pgw.hypotheses"]),
    (["count", "q8"], 0, ["pgw.automorphisms", "pgw.hypotheses"]),
]


@pytest.mark.parametrize("argv, code, loaded", LOAD_CASES,
                         ids=["-".join(argv) for argv, _, _ in LOAD_CASES])
def test_each_run_loads_only_the_layers_it_uses(argv, code, loaded):
    # one fresh interpreter without site per run: the hypotheses load only
    # for check, construct and demo, the witness layer only when a witness is
    # built or the oracle runs, and json only for a JSON report
    argv = [argv[0], data_path(argv[1]), *argv[2:]]
    script = f"""
import sys
from pgw import cli
code = cli.main({argv!r})
watched = ("json", "pgw.automorphisms", "pgw.hypotheses")
print(code, [m for m in watched if m in sys.modules])
"""
    src = os.path.dirname(os.path.dirname(pgw.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} {loaded}"


def test_report_file_written(capsys, tmp_path):
    target = tmp_path / "rep.json"
    code, out = run(capsys, "check", data_path("w81"), "--report", str(target))
    assert code == 1  # w81 fails the centralizer condition
    rep = json.loads(target.read_text())
    assert rep["group"]["name"] == "w81"
    assert rep["hypotheses"]["zm_condition"] is False
    assert "zm_counterexample" in rep["hypotheses"]


def test_json_report_is_serialized_once(capsys, monkeypatch, tmp_path):
    # --format json with --report writes one serialization to stdout and the file
    calls = []
    to_json = cli.rp.to_json
    monkeypatch.setattr(cli.rp, "to_json", lambda rep: calls.append(rep) or to_json(rep))
    target = tmp_path / "rep.json"
    code, out = run(capsys, "check", data_path("h27"), "--format", "json", "--report", str(target))
    assert code == 1
    assert len(calls) == 1 and out == target.read_text()


def test_report_bytes_stable_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "count", data_path("h27"), "--report", str(a))[0] == 0
    assert run(capsys, "count", data_path("h27"), "--report", str(b))[0] == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("timing"), db.pop("timing")
    assert json.dumps(da) == json.dumps(db)


def test_demo_runs_all_expectations(capsys):
    code, out = run(capsys, "demo")
    assert code == 0
    ok_lines = [l for l in out.splitlines() if l.startswith("ok: ")]
    assert len(ok_lines) >= 20
    assert "demo: all expectations hold" in out


def test_demo_rejects_file_argument():
    with pytest.raises(SystemExit):
        cli.main(["demo", data_path("h27")])


# each flag is registered only on the subcommands that read it
@pytest.mark.parametrize(
    "argv",
    [
        ["info", data_path("c9"), "--jobs", "2"],
        ["check", data_path("c9"), "--budget", "5"],
        ["count", data_path("c9"), "--with-oracle"],
    ],
    ids=["info-jobs", "check-budget", "count-with-oracle"],
)
def test_flag_on_a_subcommand_that_ignores_it_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pgw.cli", "info", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["group"]["order"] == 2187


def test_installed_script_available():
    proc = subprocess.run(
        ["pgw", "info", data_path("c9")], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "order 9" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["construct", data_path("m243"), "--with-oracle"], ["demo", "--with-oracle"]],
    ids=["construct-m243", "demo"],
)
def test_with_oracle_builds_the_witness_once(capsys, monkeypatch, argv):
    # the pipeline and cross_validate share the witness memoized on the
    # presentation; demo runs on a fresh parse, so no earlier test built it
    monkeypatch.setattr(
        cli.corpus, "demo", lambda: pgw.parse_path(data_path("g2187")).presentation
    )
    calls = []
    extend = au.extend_to_automorphism
    monkeypatch.setattr(
        au, "extend_to_automorphism", lambda *args: calls.append(args) or extend(*args)
    )
    assert cli.main(argv) == 0
    assert "cross_validated: true" in capsys.readouterr().out
    assert len(calls) == 1
