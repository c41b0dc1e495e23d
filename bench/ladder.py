"""Growth curves: per-layer time against input size, traced, not gated.

Tori from 5k to 40k triangles show how filtration, strata/orientation and
the rank oracle scale with the cell count; subspaces with n = 8..13 show
the exponential circuit scan; prism against Moebius ladder on 6 and 8
vertices shows the factorial comparator search.  The 5-page book against
its subdivision is run under several relabelings: its verdict is always
true, but the comparator's time depends on where the labels put the
matching bijection in its search order.

Each point is one untraced op (checked) and one traced op (compared byte
for byte with it).  The result goes to ``_out/ladder_seed<seed>.json``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import sys

import checks
import inputs as I
import tracing
import workloads as W

TORI = ((50, 50), (70, 72), (100, 100), (140, 143))
SUBSPACE_N = range(8, 14)
LADDER_RUNGS = (3, 4)
BOOK_RELABELINGS = 6


def points(rng):
    """(family, size, unit, case) for every point of every curve."""
    for m, n in TORI:
        yield ("analyze_torus", 2 * m * n, "triangles",
               W.surface_case("torus", m, n, rng))
    for n in SUBSPACE_N:
        yield "subspace", n, "ground", W.subspace_case(n, n // 2, rng)
    for rungs in LADDER_RUNGS:
        yield ("compare_ladders", 2 * rungs, "vertices",
               W.pair_case("ladders%d" % (2 * rungs),
                           I.subdivide_graph(I.prism(rungs)),
                           I.subdivide_graph(I.moebius_ladder(rungs)), rng, False))
    for i in range(BOOK_RELABELINGS):
        yield ("compare_book5_relabeled", i, "relabeling",
               W.pair_case("book5_subdiv", I.book(5),
                           I.subdivide_surface(I.book(5)), rng, True))


def run(seed, workdir, out_dir):
    out_path = os.path.join(workdir, "out.json")
    rows = []
    failed = 0
    tracer = tracing.Tracer()
    try:
        for op, (family, size, unit, case) in enumerate(points(random.Random(seed))):
            W.write_case(case, workdir, 0)
            code, text, stderr, untraced = W.run_op(case, out_path)
            problems = checks.check(case, code, text, stderr)
            tracer.op = op
            if tracing.traced_op(tracer, case, out_path) != (code, text):
                problems.append("traced report differs from untraced")
            op_s, layers, counters = tracing.per_op(tracer)[op]
            failed += bool(problems)
            rows.append({"family": family, "size": size, "unit": unit,
                         "case": case.name, "untraced_op_s": untraced,
                         "op_s": op_s, "layers_s": layers,
                         "counters": counters, "problems": problems})
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
            print("%-24s %7d %-10s op %8.3f s  %s%s" % (
                family, size, unit, untraced,
                "  ".join("%s %.3f" % kv for kv in top),
                "  FAIL: " + "; ".join(problems) if problems else ""), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(out_dir, "ladder_seed%d.json" % seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "python": sys.version.split()[0],
                   "machine": platform.machine(), "points": rows}, fh, indent=1)
    print("wrote %s" % path)
    return 1 if failed else 0
