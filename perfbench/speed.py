"""CPU-speed probe: scales measured op times to a fixed reference speed.

On a shared virtual machine the speed one process sees swings by up to 2x
for seconds to minutes at a time, whatever the program does.  A short, fixed
probe run right after each op measures the speed of that moment; an op's
latency times the speed factor of the probes on either side of it is its
latency at the reference speed.

A probe unit mixes the kinds of work spinlift does, in about equal time: a
pure-Python loop, a small matrix exponential, a stack of small matrix
products and a pass over an array larger than the L2 cache.  Different
slowdowns of the machine hit these differently, and the mix follows the
program's ops more closely than any one of them.  The probe calls no
spinlift code, so a change to the program does not change it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import expm

# Time of one probe unit on the reference machine (a shared 2-core x86-64
# Xeon virtual machine, Python 3.11, numpy 2.4, scipy 1.17) in its fast
# phase.  Scaled times read as seconds on that machine at that speed.
REF_UNIT_S = 90e-6
# Probe time per second of op time, and the shortest probe.
PROBE_SHARE = 0.1
MIN_PROBE_S = 0.005

_rng = np.random.default_rng(0)
_GENERATOR = 1e-3 * (_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6)))
_STACK = _rng.standard_normal((64, 4, 4)) + 1j * _rng.standard_normal((64, 4, 4))
_ARRAY = _rng.standard_normal(1 << 16)


def _unit() -> int:
    x = 0
    for j in range(600):
        x += j * j
    expm(_GENERATOR)
    np.matmul(_STACK, _STACK)
    _ARRAY.sum()
    return x


def probe(op_seconds: float) -> float:
    """Run the probe for about PROBE_SHARE * op_seconds (at least
    MIN_PROBE_S) at the reference speed; return the speed factor, reference
    time over measured time (below 1 when the machine is slower)."""
    n = max(1, round(max(PROBE_SHARE * op_seconds, MIN_PROBE_S) / REF_UNIT_S))
    t0 = time.perf_counter()
    for _ in range(n):
        _unit()
    return n * REF_UNIT_S / (time.perf_counter() - t0)
