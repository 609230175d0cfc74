"""Command-line behavior: subcommands, exit codes, report output."""

import importlib.resources
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

import pgw
from pgw import automorphisms as au
from pgw import cli, tables
from pgw import oracle as orc
from pgw import presentation as pc
from pgw.report import TOP_KEYS

from conftest import FAMILY


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
    # a witness that breaks the theorem is a bug: no report, exit 3
    if broken == "inner":
        monkeypatch.setattr(au, "is_inner", lambda A: (True, pgw.identity(A.parent)))
        error = "InnerWitnessFound"
    else:
        fixes = au.fixes_elementwise
        monkeypatch.setattr(
            au, "fixes_elementwise", lambda A, H: H != pgw.frattini(A.parent) and fixes(A, H)
        )
        error = "CertificationFailed"
    assert cli.main(["construct", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"pgw: internal contradiction: {error}: ")


def test_count_cross_validation_mismatch_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(orc, "_conjugates_by", lambda P, A, t: False)
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

    code, out = run(capsys, "count", str(f), "--format", "json", "--budget", "0.5")
    assert code == 2
    assert "budget" in out


def test_count_over_element_cap_exit_two(capsys, tmp_path):
    # C_{3^12}: f_i^3 = f_{i+1}, order 531441, over the tables' element cap
    lines = ["name c531441", "p 3", "n 12"]
    lines += [f"pow {i} = g{i + 1}^1" for i in range(1, 12)]
    lines += [f"def {i + 1} = pow {i}" for i in range(1, 12)]
    f = tmp_path / "c531441.pg"
    f.write_text("\n".join(lines) + "\n")
    assert pgw.parse_path(str(f)).presentation.order == 3**12 > tables.ELEMENT_CAP
    code, out = run(capsys, "count", str(f), "--format", "json")
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("pgw: error: ")
    assert f"enumeration cap {tables.ELEMENT_CAP}" in out


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

    def dying(args):
        if args[0][0] == 1:  # the chunk holding the first level-d node
            os._exit(7)
        return run_chunk(args)

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


def test_report_file_written(capsys, tmp_path):
    target = tmp_path / "rep.json"
    code, out = run(capsys, "check", data_path("w81"), "--report", str(target))
    assert code == 1  # w81 fails the centralizer condition
    rep = json.loads(target.read_text())
    assert rep["group"]["name"] == "w81"
    assert rep["hypotheses"]["zm_condition"] is False
    assert "zm_counterexample" in rep["hypotheses"]


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
