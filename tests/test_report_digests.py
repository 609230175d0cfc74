"""Every shipped report, pinned byte for byte.

tests/report_digests.json holds the exit code and the SHA-256 of the report
of each run below: info, check, construct and count, in text and in JSON, on
each shipped group, and demo in both formats.  The timing section is the
one part of a report that may change between runs, so it is dropped first:
the `timing` key of a JSON report, the `timing ...` lines of a text one.  A
change that alters any other report byte, or an exit code, fails here.

After a deliberate change to the reports, regenerate the file with

    PYTHONPATH=src python tests/test_report_digests.py

and review the diff.
"""

import contextlib
import hashlib
import importlib.resources
import io
import json
import sys
from pathlib import Path

import pytest

from pgw import cli

DIGESTS = Path(__file__).with_name("report_digests.json")
DATA = importlib.resources.files("pgw").joinpath("data")
SHIPPED = sorted(f.name[: -len(".pg")] for f in DATA.iterdir() if f.name.endswith(".pg"))

RUNS = [
    (command, name, fmt)
    for name in SHIPPED
    for command in ("info", "check", "construct", "count")
    for fmt in ("text", "json")
] + [("demo", None, "text"), ("demo", None, "json")]


def _key(command, name, fmt):
    return " ".join(x for x in (command, name, fmt) if x)


def _without_timing(out, fmt):
    if fmt == "json":
        rep = json.loads(out)
        del rep["timing"]
        return json.dumps(rep, indent=2) + "\n"
    return "".join(line for line in out.splitlines(True) if not line.startswith("timing "))


def report_digest(command, name, fmt):
    """[exit code, SHA-256 of the timing-free stdout] of one run of cli.main."""
    argv = [command, "--format", fmt]
    if name is not None:
        argv.insert(1, str(DATA.joinpath(f"{name}.pg")))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = _without_timing(out.getvalue(), fmt)
    return [code, hashlib.sha256(text.encode()).hexdigest()]


@pytest.mark.parametrize("run", RUNS, ids=[_key(*run) for run in RUNS])
def test_report_digest(run):
    assert report_digest(*run) == json.loads(DIGESTS.read_text())[_key(*run)]


def test_digest_file_lists_exactly_the_runs():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_key(*run) for run in RUNS)


if __name__ == "__main__":
    digests = {_key(*run): report_digest(*run) for run in RUNS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")
