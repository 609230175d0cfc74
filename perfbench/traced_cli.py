"""One pgw CLI operation with per-layer spans around it.

    PYTHONPATH=src python3 perfbench/traced_cli.py construct src/pgw/data/m243.pg --format json

Installs the wrappers of spans.py, calls pgw.cli.main(argv) with its stdout
captured, and prints one JSON line: the exit code, the captured output, the
time spent importing and in main(), and the raw span and counter totals.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main(argv):
    tracer = spans.Tracer()
    spans.install(tracer)
    import pgw.cli

    t_main = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pgw.cli.main(argv)
    main_s = time.perf_counter() - t_main
    print(json.dumps({
        "code": code,
        "stdout": buf.getvalue(),
        "import_s": t_main - _T0,
        "main_s": main_s,
        **tracer.dump(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
