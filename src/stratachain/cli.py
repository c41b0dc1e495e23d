"""Command-line front end: analyze, compare, matroid.

Exit codes: 0 success (including a false compare verdict), 1 input or
parse errors, 2 unsupported inputs (dimension out of range, matroid
ground over the cap, non-taut inputs to compare).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import reports
from .chains import assemble
from .corpus import BUILTIN_NAMES, builtin_complex
from .errors import (ComplexError, GroundCapError, NotTautError,
                     UnsupportedDimensionError)
from .matroid import DEFAULT_MAX_GROUND, top_cycle_matroid
from .simplicial import SimplicialComplex
from .stratify import Stratification
from .taut import build_invariant, homeomorphic


class _Exit(Exception):
    """Abort the command with a message and exit code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def _load(source: str) -> SimplicialComplex:
    """Load `path`, or `builtin:NAME` from the corpus."""
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        try:
            return builtin_complex(name)
        except ComplexError as e:
            raise _Exit(1, "error: %s" % e)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _Exit(1, "error: cannot read %s: %s" % (source, e.strerror))
    try:
        return SimplicialComplex.from_json(text)
    except ComplexError as e:
        raise _Exit(1, "error: %s: %s" % (source, e))


def _inputs(args, expected: int):
    sources = ["builtin:%s" % n for n in (args.builtin or [])] + args.inputs
    if len(sources) != expected:
        raise _Exit(1, "error: expected %d input(s) via positional arguments "
                       "or --builtin, got %d" % (expected, len(sources)))
    return [_load(s) for s in sources]


def _emit(report: dict, args) -> None:
    text = (reports.to_text(report) if args.format == "text"
            else reports.to_json(report))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _Exit(1, "error: cannot write %s: %s" % (args.out, e.strerror))
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    clock = time.perf_counter
    timing = {}

    try:
        (K,) = _inputs(args, 1)
        t0 = clock()
        strat = Stratification(K)
    except UnsupportedDimensionError as e:
        raise _Exit(2, "error: %s" % e)
    timing["stratify"] = clock() - t0

    t0 = clock()
    chain = assemble(strat)
    homology = reports.homology_report(chain, K)
    timing["chains"] = clock() - t0

    t0 = clock()
    try:
        ground, circuits, cls = top_cycle_matroid(chain, args.max_ground)
    except GroundCapError as e:
        raise _Exit(2, "error: %s" % e)
    timing["matroid"] = clock() - t0

    taut_doc = None
    if strat.dimension <= 2:
        t0 = clock()
        try:
            inv = build_invariant(strat, chain)
            taut_doc = {"taut": True,
                        "invariant": reports.invariant_report(inv)}
        except NotTautError as e:
            taut_doc = {"taut": False,
                        "offenders": reports.offenders_json(e.offenders)}
        timing["taut"] = clock() - t0

    report = {
        "input": reports.complex_report(K),
        "filtration": reports.filtration_report(strat.filtration),
        "strata": reports.strata_report(strat),
        "chain": reports.chain_report(chain),
        "homology": homology,
        "matroid": reports.matroid_report(ground, circuits, cls),
        "taut": taut_doc,
    }
    if args.timing:
        report["timing"] = {k: round(v, 6) for k, v in timing.items()}
    _emit(report, args)
    return 0


def cmd_compare(args) -> int:
    try:
        pair = _inputs(args, 2)
    except UnsupportedDimensionError as e:
        raise _Exit(2, "error: %s" % e)
    invariants = []
    for pos, K in enumerate(pair):
        label = K.name or "input %d" % pos
        try:
            strat = Stratification(K)
            if strat.dimension > 2:
                raise UnsupportedDimensionError(
                    "dimension %d exceeds 2" % strat.dimension)
            invariants.append(build_invariant(strat))
        except UnsupportedDimensionError as e:
            raise _Exit(2, "error: %s: %s" % (label, e))
        except NotTautError as e:
            detail = "; ".join(
                "stratum %d circle %d: %s" % (s, c, list(map(list, cyc)))
                for s, c, cyc in e.offenders)
            raise _Exit(2, "error: %s is not taut: %s" % (label, detail))
    verdict, cert = homeomorphic(invariants[0], invariants[1])
    report = {
        "inputs": [reports.complex_report(K) for K in pair],
        "homeomorphic": verdict,
        "certificate": cert,
    }
    _emit(report, args)
    return 0


def cmd_matroid(args) -> int:
    try:
        (K,) = _inputs(args, 1)
        strat = Stratification(K)
    except UnsupportedDimensionError as e:
        raise _Exit(2, "error: %s" % e)
    chain = assemble(strat)
    try:
        ground, circuits, cls = top_cycle_matroid(chain, args.max_ground)
    except GroundCapError as e:
        raise _Exit(2, "error: %s" % e)
    report = {
        "input": reports.complex_report(K),
        "matroid": reports.matroid_report(ground, circuits, cls),
    }
    _emit(report, args)
    return 0


def _add_common(p, n_inputs):
    noun = "INPUT" if n_inputs == 1 else "INPUT_A INPUT_B"
    p.add_argument("inputs", nargs="*", metavar=noun,
                   help="path to a complex JSON file, or builtin:NAME")
    p.add_argument("--builtin", action="append", metavar="NAME",
                   help="use a corpus complex (%s)" % ", ".join(BUILTIN_NAMES))
    p.add_argument("--out", metavar="FILE", help="write the report to FILE")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="report format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratachain",
        description="Stratify simplicial complexes, compute the stratum "
                    "chain complex, top-cycle oriented matroids, and taut "
                    "surface invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline report for one input")
    _add_common(p, 1)
    p.add_argument("--max-ground", type=int, default=DEFAULT_MAX_GROUND,
                   help="matroid ground-size cap (default %d)" % DEFAULT_MAX_GROUND)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timings (breaks byte-identity)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="decide homeomorphism of two taut inputs")
    _add_common(p, 2)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("matroid", help="top-cycle circuits and canonical form")
    _add_common(p, 1)
    p.add_argument("--max-ground", type=int, default=DEFAULT_MAX_GROUND,
                   help="ground-size cap (default %d)" % DEFAULT_MAX_GROUND)
    p.set_defaults(func=cmd_matroid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as e:
        print(e.message, file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
