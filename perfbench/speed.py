"""The CPU's current speed, from a fixed pure-Python probe run on the same CPU.

The CPUs of a shared host change speed by up to 2x for seconds to minutes
at a time, because other tenants contend for the cores under them.  A time
measured in one stretch cannot be compared with one measured in another.
The benchmark therefore pins itself and every child to one CPU (pin), and
runs a short probe on that CPU while the measured code runs there too,
interleaved with it.  The probe's rate, in products per CPU second, is the
CPU's speed over the same interval.

A measurement is then reported in reference seconds: CPU seconds scaled by
the probe rate seen over them, divided by REFERENCE_RATE.  A reference
second is a CPU second on a CPU that runs the probe at REFERENCE_RATE, a
little faster than the 2-CPU host the benchmark was written on ran it.  The
probe imports no pgw code, so a change to pgw moves the measured CPU
seconds and not the rate.
"""

import os
import time

PROBE_ITERS = 12  # products per probe, 1 ms at REFERENCE_RATE
REFERENCE_RATE = 12000.0  # probe products per CPU second that define a reference second


def pin():
    """Keep this process, and every child it starts from now on, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# A fixed group of order 3^7 (the relations of g2187.pg), for the probe alone.
_P, _N = 3, 7
_POWER = (((4, 1),), ((3, 1),), ((5, 1),), ((6, 1),), ((7, 1),), (), ())
_COMM = {(2, 1): ((3, 1),), (3, 1): ((5, 1),), (4, 2): ((5, 2),),
         (4, 3): ((7, 2),), (5, 1): ((7, 1),), (6, 2): ((7, 2),)}
_WORD = ((1, 2), (2, 1), (4, 1), (6, 2))


def _collect(e, w):
    """e * w in normal form, by collection from the left (positive exponents only).

    A frozen copy of the loop pgw used when this benchmark was written, so the
    probe has the mix of work of pgw's hot path.  It must not follow later
    changes to pgw: the probe measures the CPU, not the program.
    """
    stack = list(reversed(w))
    while stack:
        j, m = stack.pop()
        jj = j - 1
        tail = [(k + 1, e[k]) for k in range(jj + 1, _N) if e[k]]
        if not tail:
            s = e[jj] + m
            if s < _P:
                e[jj] = s
            else:
                e[jj] = s - _P
                stack.extend(reversed(_POWER[jj]))
            continue
        for k, _ in tail:
            e[k - 1] = 0
        overflow = ()
        if e[jj] + 1 < _P:
            e[jj] += 1
        else:
            e[jj] = 0
            overflow = _POWER[jj]
        if m > 1:
            stack.append((j, m - 1))
        for gk, ek in reversed(tail):
            c = _COMM.get((gk, j))
            if not c:
                stack.append((gk, ek))
            else:
                unit = ((gk, 1),) + c
                for _ in range(ek):
                    stack.extend(reversed(unit))
        stack.extend(reversed(overflow))
    return tuple(e)


def _probe(n):
    x = (1, 0, 2, 0, 1, 0, 0)
    for _ in range(n):
        x = _collect(list(x), _WORD)
    return x


class Gauge:
    """Probe iterations and the CPU time they took, summed over samples."""

    def __init__(self):
        self.iters = 0
        self.cpu_s = 0.0

    def sample(self, times=1):
        for _ in range(times):
            t0 = time.thread_time()
            _probe(PROBE_ITERS)
            self.cpu_s += time.thread_time() - t0
            self.iters += PROBE_ITERS

    def reference_s(self, cpu_s):
        """cpu_s CPU seconds spent while this gauge sampled, in reference seconds."""
        return cpu_s * (self.iters / self.cpu_s) / REFERENCE_RATE
