"""Host speed, from a fixed reference loop, to take machine drift out of the
time metrics.

On a shared virtual machine the same work can take 1.7 times as long from
one second to the next, as the processor is shared with other guests, and a
whole run can land in the slow state.  A reference pass is a fixed loop of
exact Fraction additions: the same kind of interpreter work as the
library's, done by this file and not by the code under test.  The benchmark
takes one pass before the first op and one after every op.  Each op's wall
and CPU time is then multiplied by its scale: the reference time over the
mean of the two passes around it.  The raw times stay in the run record.

Work done in a child process (a CLI call, a worker's set-up) pays process
start and imports as well, and follows an in-process pass only loosely.  It
is scaled by a child pass instead: this file run as a script in a fresh
interpreter, timed from outside.  A scaled time reads as milliseconds on a
host where a pass takes REF_MS, or a child pass CHILD_REF_MS.  run.py pins
the benchmark and its children to one CPU, so that passes and ops run on
the same processor.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns

REF_MS = 1.0
CHILD_REF_MS = 100.0


def reference_pass_ns() -> int:
    """Wall time of one pass, with the garbage collector held off, so that
    the program's heap does not change the pass's own cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(i, i + 7)
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def child_pass_ns() -> int:
    """Wall time of a fresh interpreter that runs one pass and exits."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True, timeout=60)
    return perf_counter_ns() - start


def scales(passes_ns: list, ref_ms: float) -> list:
    """One scale per op, where op i ran between passes i and i + 1: ref_ms
    over the mean of those two passes."""
    return [2 * ref_ms * 1e6 / (a + b) for a, b in zip(passes_ns, passes_ns[1:])]


if __name__ == "__main__":
    reference_pass_ns()
