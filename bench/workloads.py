"""The four workloads: seeded rounds of cases and the op that runs each.

A workload is a fixed round of cases.  Every round draws fresh relabelings
(or fresh subspace entries) from the seeded generator, so no op sees an
input twice, while the shapes, and with them the cost of a round, stay
the same for every seed.

An op is one full user request.  ``run_op`` makes it through the public
entry point, ``stratachain.cli.main``, except for subspaces, which no CLI
input can carry.  ``traced_op`` calls the same public functions in the
same order as ``cli.cmd_analyze``/``cmd_compare``/``cmd_matroid`` with a
span around each, then probes the stages that have no public seam.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import inputs as I
from stratachain import (canonical_reorientation_class, cli,
                         enumerate_circuits, reports)

#: (ground n, rank k) of the subspaces in one matroid_subspace round; the
#: middle-cost shape comes three times, so the median op has a group of
#: its own.
SUBSPACE_SHAPES = ((11, 3), (11, 7), (12, 4), (12, 4), (12, 4), (12, 5), (12, 9))


@dataclass
class Case:
    """One op's input and the facts its output must show."""

    name: str
    command: str                 # "analyze", "compare" or "subspace"
    docs: tuple = ()             # complex documents, written to ``paths``
    basis: tuple = ()            # subspace generators (command "subspace")
    expect: dict = field(default_factory=dict)
    paths: tuple = ()


def _complex_case(name, simplices, rng, **expect):
    return Case(name, "analyze", (I.complex_doc(name, I.relabel(simplices, rng)),),
                expect=expect)


def surface_case(kind, m, n, rng):
    tris = I.grid_torus(m, n) if kind == "torus" else I.grid_klein(m, n)
    return _complex_case("%s_%dx%d" % (kind, m, n), tris, rng, dimension=2,
                         top_homology=int(kind == "torus"),
                         orientable=kind == "torus", euler=0, vertices=m * n,
                         top_cells=2 * m * n, taut=True)


def solid_case(kind, k, rng, suffix=""):
    periodic = kind == "torus3"
    return _complex_case("%s_%d%s" % (kind, k, suffix), I.freudenthal(k, periodic),
                         rng, dimension=3, top_homology=int(periodic),
                         orientable=True, euler=0 if periodic else 1,
                         vertices=k ** 3 if periodic else (k + 1) ** 3,
                         top_cells=6 * k ** 3, taut=None)


def pair_case(name, a, b, rng, verdict):
    docs = (I.complex_doc(name + "_a", I.relabel(a, rng)),
            I.complex_doc(name + "_b", I.relabel(b, rng)))
    expect = {"code": 0, "verdict": verdict} if verdict is not None else {"code": 2}
    return Case(name, "compare", docs, expect=expect)


def subspace_case(n, k, rng, suffix=""):
    return Case("subspace_%d_%d%s" % (n, k, suffix), "subspace",
                basis=tuple(I.random_subspace(n, k, rng)))


def make_round(workload, rng):
    """The cases of one round, with fresh relabelings from ``rng``.

    Every round has an odd number of cases, and the middle of the round's
    cost order is held by a case or a group of like cases, so the median
    op of whole rounds falls inside that group, not in the gap between two
    groups of different cost.
    """
    if workload == "analyze_surface":
        # about 10k triangles each; the Klein bottles take the
        # non-orientability certificate path
        return [surface_case("torus", 70, 72, rng), surface_case("klein", 70, 72, rng),
                surface_case("torus", 63, 80, rng), surface_case("klein", 60, 84, rng),
                surface_case("torus", 60, 84, rng)]
    if workload == "analyze_solid":
        # three middle-cost balls, so the median op has a group of its own
        return [solid_case("ball", 7, rng), solid_case("torus3", 7, rng),
                *(solid_case("ball", 8, rng, "_%d" % i) for i in range(3)),
                solid_case("torus3", 9, rng), solid_case("ball", 9, rng)]
    if workload == "matroid_subspace":
        return [subspace_case(n, k, rng, "_%d" % i)
                for i, (n, k) in enumerate(SUBSPACE_SHAPES)]
    if workload == "compare_taut":
        t33, k34, octa = I.grid_torus(3, 3), I.grid_klein(3, 4), I.octahedron()
        t27x28 = I.grid_torus(27, 28)
        return [
            pair_case("ladders8", I.subdivide_graph(I.prism(4)),
                      I.subdivide_graph(I.moebius_ladder(4)), rng, False),
            pair_case("book5_twin", I.book(5), I.book5_twin(), rng, False),
            pair_case("book4_subdiv", I.book(4), I.subdivide_surface(I.book(4)),
                      rng, True),
            pair_case("torus_subdiv", t33, I.subdivide_surface(t33), rng, True),
            pair_case("klein_subdiv", k34, I.subdivide_surface(k34), rng, True),
            pair_case("torus_klein", t33, k34, rng, False),
            pair_case("sphere_torus", octa, I.torus7(), rng, False),
            pair_case("folded_book", I.folded_book(), octa, rng, None),
        ] + [
            # fifteen ops of one middle cost (a 1,512-triangle torus against
            # a small surface), between the six small pairs and the two
            # search pairs above, so the median op of whole rounds lies
            # well inside this group rather than among the ~10 ms pairs
            pair_case("torus1k5_torus7_%d" % i, t27x28, I.torus7(), rng, True)
            for i in range(8)
        ] + [
            pair_case("torus1k5_klein_%d" % i, t27x28, k34, rng, False)
            for i in range(7)
        ]
    raise ValueError("unknown workload %r" % (workload,))


def warmup_case(workload, rng):
    """A small case that runs the same code paths as the workload."""
    if workload == "analyze_surface":
        return surface_case("klein", 8, 8, rng)
    if workload == "analyze_solid":
        return solid_case("torus3", 3, rng)
    if workload == "matroid_subspace":
        return subspace_case(7, 3, rng)
    return pair_case("torus_subdiv", I.grid_torus(3, 3),
                     I.subdivide_surface(I.grid_torus(3, 3)), rng, True)


def write_case(case, workdir, slot):
    """Write the case's documents; files are reused slot by slot."""
    paths = []
    for i, doc in enumerate(case.docs):
        path = os.path.join(workdir, "%s_%d.json" % (slot, i))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths.append(path)
    case.paths = tuple(paths)


# -- untraced op -----------------------------------------------------------

def _subspace_report(basis):
    n = len(basis[0])
    circuits = enumerate_circuits(basis, n)
    cls = canonical_reorientation_class(circuits, n)
    return reports.to_json(reports.matroid_report(tuple(range(n)), circuits, cls))


def run_op(case, out_path):
    """One op: (exit code, report text or None, stderr, seconds).

    Only the call itself is timed; reading the report back is the
    client's check.
    """
    if case.command == "subspace":
        t0 = time.perf_counter()
        text = _subspace_report(case.basis)
        return 0, text, "", time.perf_counter() - t0
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    argv = [case.command, *case.paths, "--out", out_path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    text = None
    if code == 0:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
    return code, text, err.getvalue(), seconds
