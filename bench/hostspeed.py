"""A fixed reference kernel that tracks how fast the host runs right now.

On a host that shares its cores, the same op can take from 1.8 s to 3.1 s
within ten minutes, and a whole 30-second run can be 1.5 times slower than
the next.  The benchmark times a fixed kernel of exact rational arithmetic
between ops and rescales each op's wall time by the kernel's speed in the
samples just before and after it: :func:`nominal` gives the seconds the op
would take on a host where one kernel rep takes ``NOMINAL_REP_S``.  On the
host the benchmark was defined on, this halved the spread of 30-second
means of the same op.  The kernel uses no degenpoly code, so a change to
the program cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# about the median seconds per kernel rep on the 2-core 2.1 GHz Xeon host the
# benchmark was defined on, under Python 3.11.7
NOMINAL_REP_S = 0.005
# kernel time taken around each op, as a share of the op's time
SHARE = 0.1
MIN_REPS = 10

_TERMS = {
    (i, j): Fraction(3**i + 7 * j, 2 ** (i + 1) * 5**j + 1) for i in range(12) for j in range(3)
}


def kernel(reps: int) -> float:
    """Wall time of ``reps`` products of a fixed sparse rational polynomial with itself."""
    start = time.perf_counter()
    for _ in range(reps):
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), v1 in _TERMS.items():
            for (a2, b2), v2 in _TERMS.items():
                key = (a1 + a2, b1 + b2)
                s = out.get(key)
                out[key] = v1 * v2 if s is None else s + v1 * v2
    return time.perf_counter() - start


def rep_seconds(op_seconds: float) -> float:
    """Seconds per kernel rep, sampled for about ``SHARE`` of ``op_seconds``."""
    reps = max(MIN_REPS, round(SHARE * op_seconds / NOMINAL_REP_S))
    return kernel(reps) / reps


def nominal(op_seconds: float, rep_before: float, rep_after: float) -> float:
    """An op's wall time in nominal-host seconds, from the samples around it."""
    return op_seconds * NOMINAL_REP_S * 2 / (rep_before + rep_after)
