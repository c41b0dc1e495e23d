"""A fixed pure-Python kernel that measures the host's speed.

The benchmark runs on shared hosts whose speed drifts by up to 1.6x
within minutes, far more than any bound worth gating on.  The kernel
therefore runs right before and right after every op and every set-up,
and the measured time is scaled by ``NOMINAL_S`` over the mean of the two
kernel times: an op that took 1.2 s while the kernel took 1.5 x
``NOMINAL_S`` counts as 0.8 s.  The kernel uses only the standard library,
never the package under test, so a change to the package moves a scaled
time by the same ratio as the raw one.

The kernel mixes the kinds of work the package does: an integer loop,
tuples, dicts and sets keyed by simplices, sorting, and exact ``Fraction``
elimination.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: The kernel's median time on the host the bounds were set on (a 2-core
#: x86-64 VM, Python 3.11).  Scaled times read as seconds on that host.
NOMINAL_S = 0.012


def _integers():
    total = 0
    for i in range(50000):
        total += (i * i) % 7
    return total


def _simplices():
    """Edges of a 30 x 30 grid torus, each with its triangles."""
    m = 30
    cofaces = {}
    for i in range(m):
        for j in range(m):
            a, b = i * m + j, ((i + 1) % m) * m + j
            c, d = ((i + 1) % m) * m + (j + 1) % m, i * m + (j + 1) % m
            for tri in ((a, b, c), (a, d, c)):
                tri = tuple(sorted(tri))
                for k in range(3):
                    cofaces.setdefault(tri[:k] + tri[k + 1:], []).append(tri)
    inner = {edge for edge, tris in cofaces.items() if len(tris) == 2}
    return len(sorted(inner))


def _fractions():
    """Row-reduce a fixed 8 x 12 integer matrix over Q."""
    rows = [[Fraction((3 * i * i + 5 * j + i * j) % 7 - 3) for j in range(12)]
            for i in range(8)]
    rank = 0
    for col in range(12):
        piv = next((r for r in range(rank, 8) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(8):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def sample():
    """Seconds the kernel takes now.

    The cyclic garbage collector is paused meanwhile: the kernel makes no
    cycles, and a collection would time the size of the benchmark's heap,
    not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _integers()
        _simplices()
        for _ in range(4):
            _fractions()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(seconds, before, after):
    """``seconds`` measured between kernel samples ``before`` and ``after``,
    as they would read on the host where the kernel takes ``NOMINAL_S``."""
    return seconds * 2 * NOMINAL_S / (before + after)
