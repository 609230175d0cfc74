"""Run one child process, timed from outside, and read its resource usage."""

import os
import selectors
import subprocess
import time
from dataclasses import dataclass

from speed import Gauge

SAMPLE_EVERY_S = 0.009  # wait between speed probes while a child runs


@dataclass
class ChildResult:
    code: int  # exit code, or None when the child was killed at its timeout
    wall_s: float  # from just before the fork to just after the child was reaped
    cpu_s: float  # the child's user + system CPU time
    ref_s: float  # cpu_s in reference seconds (speed.py), or None if not probed
    maxrss_mb: float  # the child's own peak resident set size
    stdout: str
    stderr: str


def run_child(argv, env, cwd, timeout, probe=False):
    """Run argv to completion (or kill it at `timeout` seconds).

    Both pipes are drained while the child runs, and the child is reaped with
    os.wait4 so that its rusage belongs to this child alone.  With `probe`,
    this process runs a speed probe every SAMPLE_EVERY_S while it waits; both
    must be pinned to the same CPU (speed.pin), so the probe sees the speed
    the child runs at.
    """
    gauge = Gauge() if probe else None
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            if gauge:
                gauge.sample()
                remaining = min(remaining, SAMPLE_EVERY_S)
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    cpu_s = usage.ru_utime + usage.ru_stime
    out, err = (b"".join(chunks[fd]).decode("utf-8", "replace") for fd in (out_fd, err_fd))
    return ChildResult(
        code=None if timed_out else proc.returncode,
        wall_s=wall,
        cpu_s=cpu_s,
        ref_s=gauge.reference_s(cpu_s) if gauge else None,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out,
        stderr=err,
    )
