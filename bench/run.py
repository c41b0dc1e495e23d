"""Benchmark of the stratachain pipeline.

Run from the repository root:

    python3 bench/run.py --workload analyze_surface --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each
    python3 bench/run.py --ladder                  # traced growth curves, not gated
    python3 bench/run.py --record-golden           # rewrite golden.json

One run is a single closed-loop client in one process: the next op starts
only after the previous one returned and was checked.  Ops come in fixed
rounds (see workloads.py), and the timed phase ends at the round boundary
nearest to ``--seconds`` of op time.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` each
op also runs traced, and the metrics are the per-layer ones.  See
README.md.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden.json")
WORKLOADS = ("analyze_surface", "analyze_solid", "matroid_subspace",
             "compare_taut")
DEFAULT_SEED = 0
#: Set-up (a fresh import of the package in a child interpreter, then
#: input generation, writing the files and a warm-up op) is repeated this
#: many times per run and its median reported.
SETUP_REPS = 7
#: A child run of ``--workload all`` that takes longer than this is killed.
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s",
                    "peak_rss_mib": "MiB", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="stratachain benchmark")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=24.0,
                   help="op time to measure; the run ends at the nearest round boundary")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ladder", action="store_true",
                   help="traced growth curves over input size (not a workload)")
    p.add_argument("--record-golden", action="store_true",
                   help="record the default seed's report digests in golden.json")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stratachain", "__init__.py")):
        print("error: %s has no stratachain package; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_golden:
        return record_golden()
    if args.ladder:
        import ladder
        return ladder.run(args.seed, _workdir(), _out_dir())
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


def _workdir():
    base = os.path.join(BENCH, "_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def _out_dir():
    path = os.path.join(BENCH, "_out")
    os.makedirs(path, exist_ok=True)
    return path


def first_round(workload, seed):
    """(rng, warm-up case, first round): the same for every set-up."""
    import workloads as W
    rng = random.Random(seed)
    warm = W.warmup_case(workload, rng)
    return rng, warm, W.make_round(workload, rng)


def _write(cases, workdir, warm=None):
    import workloads as W
    if warm is not None:
        W.write_case(warm, workdir, "warm")
    for slot, case in enumerate(cases):
        W.write_case(case, workdir, slot)


def _import_seconds():
    """Time a fresh import of the package in a child interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import stratachain; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout)


def _attempt(fn):
    """Run one op; an exception is a failed op, not a crashed run."""
    try:
        return fn(), None
    except Exception:  # any library error counts against the op
        return None, traceback.format_exc()


def run_workload(args):
    import checks
    import reference
    import tracing
    import workloads as W
    workdir = _workdir()
    out_path = os.path.join(workdir, "out.json")
    try:
        setup, setup_raw = [], []
        for _ in range(SETUP_REPS):
            before = reference.sample()
            import_s = _import_seconds()
            t0 = time.perf_counter()
            rng, warm, cases = first_round(args.workload, args.seed)
            _write(cases, workdir, warm)
            W.run_op(warm, out_path)
            setup_raw.append(import_s + time.perf_counter() - t0)
            setup.append(reference.rescale(setup_raw[-1], before, reference.sample()))
        golden = {}
        if args.seed == DEFAULT_SEED:
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)["reports"][args.workload]

        tracer = tracing.Tracer() if args.trace else None
        # raw op seconds, and the same scaled by the reference kernel
        latencies, scaled, failed, attempted, busy, rnd = [], [], 0, 0, 0.0, 0
        while True:
            round_start = busy
            if rnd:
                cases = W.make_round(args.workload, rng)
                _write(cases, workdir)
            for case in cases:
                attempted += 1
                before = reference.sample()
                t0 = time.perf_counter()
                res, err = _attempt(lambda: W.run_op(case, out_path))
                # an op that raised still took its time
                seconds = res[3] if res else time.perf_counter() - t0
                latencies.append(seconds)
                scaled.append(reference.rescale(seconds, before, reference.sample()))
                busy += seconds
                problems = [err] if err else []
                if res:
                    code, text, stderr, _ = res
                    problems += checks.check(case, code, text, stderr)
                    if rnd == 0 and golden:
                        if golden.get(case.name) != checks.digest(code, text):
                            problems.append("report digest differs from golden.json")
                    if tracer is not None:
                        tracer.op = attempted
                        t0 = time.perf_counter()
                        traced, err = _attempt(
                            lambda: tracing.traced_op(tracer, case, out_path))
                        busy += time.perf_counter() - t0
                        if err:
                            problems.append(err)
                        elif traced != (code, text):
                            problems.append("traced report differs from untraced")
                if problems:
                    failed += 1
                    print("FAIL %s round %d: %s" % (case.name, rnd, "; ".join(problems)),
                          file=sys.stderr)
            rnd += 1
            # stop at the round boundary nearest to --seconds of op time
            if busy + (busy - round_start) / 2 >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
        extra = ("ops=%d rounds=%d op_p50_s samples=%d fail_frac=%.4f\n"
                 "# unscaled: ops_per_s=%.6g op_p50_s=%.6g setup_s=%.6g" % (
                     attempted, rnd, len(latencies), failed / attempted,
                     len(latencies) / sum(latencies), statistics.median(latencies),
                     statistics.median(setup_raw)))
    else:
        metrics = tracing.layer_metrics(tracer, latencies)
        units = tracing.metric_units()
        trace_path = os.path.join(
            _out_dir(), "trace_%s_seed%d.json" % (args.workload, args.seed))
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(dict(workload=args.workload, seed=args.seed,
                           **tracer.dump()), fh)
        extra = "ops=%d rounds=%d fail_frac=%.4f trace=%s" % (
            attempted, rnd, failed / attempted, os.path.relpath(trace_path, ROOT))
    print("# %s seed=%d trace=%d %s" % (args.workload, args.seed, args.trace, extra))
    for name, value in metrics.items():
        print("#   %-34s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("%s: exit code %d" % (workload, proc.returncode), file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print("\n%-18s %-34s %14s  %s" % ("workload", "metric", "value", "unit"))
    for workload, res in results.items():
        rows = [("fail_frac", res["failed"] / res["attempted"], "ratio")]
        rows += [(k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
        for name, value, unit in rows:
            print("%-18s %-34s %14.6g  %s" % (workload, name, value, unit))
    return 0 if all(r["correct"] for r in results.values()) else 1


def record_golden():
    """Digest the default seed's first round of every workload."""
    import checks
    import workloads as W
    workdir = _workdir()
    out_path = os.path.join(workdir, "out.json")
    digests = {}
    try:
        for workload in WORKLOADS:
            _, warm, cases = first_round(workload, DEFAULT_SEED)
            _write(cases, workdir)
            digests[workload] = {}
            for case in cases:
                code, text, stderr, _ = W.run_op(case, out_path)
                problems = checks.check(case, code, text, stderr)
                if problems:
                    print("%s: %s" % (case.name, "; ".join(problems)), file=sys.stderr)
                    return 1
                digests[workload][case.name] = checks.digest(code, text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "reports": digests}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(GOLDEN, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
