"""Per-layer spans and counters, recorded from the benchmark's own code.

``traced_op`` repeats an op with a span around every public call it makes,
in the order ``stratachain.cli`` makes them.  Stages with no public seam
are timed by probe spans beside the op: ``Stratification`` splits into
``build_filtration`` and ``extract_strata``, and ``reports.homology_report``
into ``K.boundary_matrix(d)`` and its ``rank()``.  Probes do the same work
again, so they are kept out of the op's time.  Spans and counters stay in
memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import statistics
import time

from stratachain import (DEFAULT_MAX_GROUND, NotTautError, SimplicialComplex,
                         Stratification, assemble, build_filtration,
                         build_invariant, canonical_reorientation_class,
                         enumerate_circuits, extract_strata, homeomorphic,
                         reports)
from stratachain.taut import Word

#: Layers with a time metric: ``<layer>_s`` is the median seconds per op
#: over the ops that ran the layer, ``<layer>_share`` its total time over
#: the total op time.  ``cli.self`` is the op span minus its child spans.
TIME_LAYERS = (
    "simplicial.load", "simplicial.boundary_matrix",
    "stratify.stratification", "stratify.filtration", "stratify.strata",
    "linalg.rank", "chains.assemble", "reports.homology",
    "matroid.circuits", "matroid.canonical",
    "taut.invariant", "taut.compare",
    "reports.build", "reports.serialize", "cli.self",
)

#: Counters, reported as their mean per op.
COUNTERS = (
    "simplicial.cells", "stratify.link_tests", "stratify.manifold_cells",
    "stratify.strata", "stratify.nonorientable", "linalg.rank_nnz",
    "linalg.rank", "chains.axes", "chains.boundary_nnz", "matroid.ground",
    "matroid.cycle_rank", "matroid.circuit_pairs", "taut.surfaces",
    "taut.arcs", "taut.word_letters", "taut.not_taut", "taut.verdicts_true",
    "reports.bytes",
)

#: The traced run itself: median op time with and without tracing.
TRACE_UNITS = {"trace.op_s": "s", "trace.untraced_op_s": "s",
               "trace.overhead_s": "s", "trace.overhead_frac": "ratio"}


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in TIME_LAYERS:
        units[layer + "_s"] = "s"
        units[layer + "_share"] = "ratio"
    units.update((name, "count") for name in COUNTERS)
    units.update(TRACE_UNITS)
    return units


class Tracer:
    """Spans (name, op, parent, start, end, probe) and per-op counters."""

    def __init__(self):
        self.spans = []
        self.counters = []
        self.op = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name, probe=False):
        parent = None if probe or not self._open else self._open[-1]
        rec = {"name": name, "op": self.op, "parent": parent, "probe": probe,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, value):
        self.counters.append({"op": self.op, "name": name, "value": value})

    def dump(self):
        return {"spans": self.spans, "counters": self.counters}


# -- traced ops -----------------------------------------------------------

def traced_op(tr, case, out_path):
    """Run the case with spans; returns (exit code, report text or None).

    Only the error paths the workloads reach are mirrored: a non-taut
    compare input exits with code 2.  Any other error raises, and the op
    counts as failed.
    """
    if case.command == "analyze":
        return _analyze(tr, case.paths[0], out_path)
    if case.command == "compare":
        return _compare(tr, case.paths, out_path)
    return _subspace(tr, case.basis)


def _load(tr, path):
    with tr.span("simplicial.load"):
        with open(path, encoding="utf-8") as fh:
            return SimplicialComplex.from_json(fh.read())


def _emit(tr, report, out_path):
    with tr.span("reports.serialize"):
        text = reports.to_json(report)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _matroid(tr, chain):
    """``top_cycle_matroid`` below its ground cap, split at its two calls."""
    ground = chain.axes[chain.dimension]
    n = len(ground)
    with tr.span("matroid.circuits"):
        circuits = enumerate_circuits(chain.cycle_basis, n)
    with tr.span("matroid.canonical"):
        cls = canonical_reorientation_class(circuits, n, DEFAULT_MAX_GROUND)
    return ground, circuits, cls


def _analyze(tr, path, out_path):
    with tr.span("cli.analyze"):
        K = _load(tr, path)
        with tr.span("stratify.stratification"):
            strat = Stratification(K)
        with tr.span("chains.assemble"):
            chain = assemble(strat)
        with tr.span("reports.homology"):
            homology = reports.homology_report(chain, K)
        ground, circuits, cls = _matroid(tr, chain)
        inv = taut_doc = None
        if strat.dimension <= 2:
            try:
                with tr.span("taut.invariant"):
                    inv = build_invariant(strat, chain)
            except NotTautError as e:
                tr.count("taut.not_taut", 1)
                with tr.span("reports.build"):
                    taut_doc = {"taut": False,
                                "offenders": reports.offenders_json(e.offenders)}
            else:
                with tr.span("reports.build"):
                    taut_doc = {"taut": True,
                                "invariant": reports.invariant_report(inv)}
        with tr.span("reports.build"):
            report = {
                "input": reports.complex_report(K),
                "filtration": reports.filtration_report(strat.filtration),
                "strata": reports.strata_report(strat),
                "chain": reports.chain_report(chain),
                "homology": homology,
                "matroid": reports.matroid_report(ground, circuits, cls),
                "taut": taut_doc,
            }
        text = _emit(tr, report, out_path)
    _count_complex(tr, K, strat)
    tr.count("chains.axes", sum(chain.dims))
    tr.count("chains.boundary_nnz", sum(b.nnz() for b in chain.boundaries))
    tr.count("matroid.ground", len(ground))
    tr.count("matroid.cycle_rank", len(chain.cycle_basis))
    tr.count("matroid.circuit_pairs", len(circuits) // 2)
    if inv is not None:
        _count_invariant(tr, inv)
    tr.count("reports.bytes", len(text))
    _probe_strata(tr, K)
    with tr.span("simplicial.boundary_matrix", probe=True):
        boundary = K.boundary_matrix(K.dimension)
    with tr.span("linalg.rank", probe=True):
        rank = boundary.rank()
    tr.count("linalg.rank", rank)
    tr.count("linalg.rank_nnz", boundary.nnz())
    return 0, text


def _compare(tr, paths, out_path):
    with tr.span("cli.compare"):
        pair = [_load(tr, p) for p in paths]
        invariants, strats = [], []
        for K in pair:
            with tr.span("stratify.stratification"):
                strat = Stratification(K)
            try:
                with tr.span("taut.invariant"):
                    invariants.append(build_invariant(strat))
            except NotTautError:
                tr.count("taut.not_taut", 1)
                return 2, None
            strats.append(strat)
        with tr.span("taut.compare"):
            verdict, cert = homeomorphic(invariants[0], invariants[1])
        with tr.span("reports.build"):
            report = {
                "inputs": [reports.complex_report(K) for K in pair],
                "homeomorphic": verdict,
                "certificate": cert,
            }
        text = _emit(tr, report, out_path)
    for K, strat in zip(pair, strats):
        _count_complex(tr, K, strat)
        _probe_strata(tr, K)
    for inv in invariants:
        _count_invariant(tr, inv)
    tr.count("taut.verdicts_true", int(verdict))
    tr.count("reports.bytes", len(text))
    return 0, text


def _subspace(tr, basis):
    n = len(basis[0])
    with tr.span("subspace"):
        with tr.span("matroid.circuits"):
            circuits = enumerate_circuits(basis, n)
        with tr.span("matroid.canonical"):
            cls = canonical_reorientation_class(circuits, n)
        with tr.span("reports.build"):
            report = reports.matroid_report(tuple(range(n)), circuits, cls)
        with tr.span("reports.serialize"):
            text = reports.to_json(report)
    tr.count("matroid.ground", n)
    tr.count("matroid.cycle_rank", len(basis))
    tr.count("matroid.circuit_pairs", len(circuits) // 2)
    tr.count("reports.bytes", len(text))
    return 0, text


def _count_complex(tr, K, strat):
    levels = strat.filtration.levels
    tr.count("simplicial.cells", len(K))
    # manifold_cells tests every cell of X_{k+1} to peel it down to X_k
    tr.count("stratify.link_tests",
             sum(len(levels[k + 1]) for k in range(len(levels) - 1)))
    tr.count("stratify.manifold_cells", len(levels[-1]) - len(levels[0]))
    strata = [s for level in strat.strata.values() for s in level]
    tr.count("stratify.strata", len(strata))
    tr.count("stratify.nonorientable", sum(not s.orientable for s in strata))


def _count_invariant(tr, inv):
    tr.count("taut.surfaces", len(inv.surfaces))
    tr.count("taut.arcs", len(inv.graph.arcs))
    tr.count("taut.word_letters",
             sum(len(a.letters) for s in inv.surfaces for a in s.attachments
                 if isinstance(a, Word)))


def _probe_strata(tr, K):
    with tr.span("stratify.filtration", probe=True):
        filtration = build_filtration(K)
    with tr.span("stratify.strata", probe=True):
        for k in range(filtration.dimension + 1):
            extract_strata(filtration, k)


# -- aggregation ----------------------------------------------------------

def per_op(tr):
    """{op: (op seconds, {layer: seconds}, {counter: value})}."""
    ops = {}
    for i, s in enumerate(tr.spans):
        if s["parent"] is None and not s["probe"]:
            ops[s["op"]] = [s["end"] - s["start"], {}, {}, i]
    children = {}
    for s in tr.spans:
        entry = ops.get(s["op"])
        if entry is None or (s["parent"] is None and not s["probe"]):
            continue
        dur = s["end"] - s["start"]
        entry[1][s["name"]] = entry[1].get(s["name"], 0.0) + dur
        if s["parent"] == entry[3]:
            children[s["op"]] = children.get(s["op"], 0.0) + dur
    for op, entry in ops.items():
        entry[1]["cli.self"] = entry[0] - children.get(op, 0.0)
    for c in tr.counters:
        if c["op"] in ops:
            counts = ops[c["op"]][2]
            counts[c["name"]] = counts.get(c["name"], 0) + c["value"]
    return {op: tuple(entry[:3]) for op, entry in ops.items()}


def layer_metrics(tr, untraced_seconds):
    """Every per-layer metric, plus the tracing overhead."""
    ops = list(per_op(tr).values())
    total = sum(op_s for op_s, _, _ in ops)
    out = {}
    for layer in TIME_LAYERS:
        times = [layers[layer] for _, layers, _ in ops if layer in layers]
        out[layer + "_s"] = statistics.median(times) if times else 0.0
        out[layer + "_share"] = sum(times) / total if total else 0.0
    for name in COUNTERS:
        out[name] = sum(c.get(name, 0) for _, _, c in ops) / max(len(ops), 1)
    traced = statistics.median(op_s for op_s, _, _ in ops) if ops else 0.0
    untraced = statistics.median(untraced_seconds)
    out["trace.op_s"] = traced
    out["trace.untraced_op_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    return out
