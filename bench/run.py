"""fibpart benchmark: one run of one workload.

    python3 bench/run.py --workload point|big|paper-stats|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds `src/fibpart`.  It compiles
the package's bytecode (so every run starts from the same cache state),
times set-up in fresh interpreters, runs the workload in another fresh
interpreter with PYTHONHASHSEED=0, checks every output, and prints as its
last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The full record of the run, and a traced run's spans, go to
bench/out/.  See bench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from timing import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("point", "big", "paper-stats", "cli")
SETUP_RUNS = 5
DEADLINE_S = 170

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "fibcore.zeckendorf.self_ms": "ms", "fibcore.zeckendorf.calls": "count",
    "fibcore.content.self_ms": "ms",
    "fibcore.table_grow_ms": "ms", "fibcore.table_mb": "MB",
    "counting.assoc_multivector.self_ms": "ms", "counting.assoc_vector.self_ms": "ms",
    "counting.canonical_form.self_ms": "ms", "counting.canonical_form.calls": "count",
    "counting.continuant.self_ms": "ms", "counting.continuant.calls": "count",
    "counting.count_F.self_ms": "ms", "counting.chi.self_ms": "ms",
    "counting.poly_D.self_ms": "ms", "counting.poly_D.calls": "count",
    "counting.poly_mul.self_ms": "ms", "counting.poly_mul.calls": "count",
    "counting.fib_poly.self_ms": "ms",
    "contfrac.word_of.self_ms": "ms", "orbits.is_essential.self_ms": "ms",
    "contfrac.cf_expand.self_ms": "ms", "contfrac.cf_expand.calls": "count",
    "orbits.theta.self_ms": "ms", "orbits.theta.calls": "count",
    "orbits.epsilon.self_ms": "ms",
    "enumeration.minimal_essential.self_ms": "ms",
    "enumeration.commutative_words.self_ms": "ms",
    "enumeration.minimal_essential.theta_per_query": "calls/query",
    "enumeration.stability_count.self_ms": "ms",
    "enumeration.stability_count.count_F_calls": "count",
    "chi_analysis.count_zero_chi.self_ms": "ms", "chi_analysis.chi_calls": "count",
    "chi_analysis.computed_hull_points.self_ms": "ms",
    "chi_analysis.upper_hull.self_ms": "ms", "chi_analysis.count_F_calls": "count",
    "cli.import_ms": "ms", "cli.parse_ms": "ms", "cli.main_ms": "ms",
    "python.gc_ms": "ms", "python.gc_runs": "count",
    "host.ref_ms": "ms", "host.interp_ms": "ms", "run.wait_ms": "ms",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONOPTIMIZE",
                "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(argv, env, deadline):
    """Run argv in its own process group; return its stdout.  On timeout
    the whole group is killed and reaped."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s ran past the deadline" % (" ".join(argv[1:3]),))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode:
        raise BenchError("%s exited %d" % (" ".join(argv[1:]), proc.returncode))
    return out


def worker(args, env, deadline):
    out = run_child([sys.executable, os.path.join(HERE, "worker.py")] + args, env, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def bench(args):
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "fibpart", "__init__.py")):
        raise BenchError("no package at src/fibpart under %s" % (ROOT,))
    env = child_env()
    run_child([sys.executable, "-m", "compileall", "-q",
               os.path.join(ROOT, "src", "fibpart"), HERE], env, deadline)
    os.makedirs(OUT, exist_ok=True)
    w = ["--workload", args.workload]
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)

    setup = []
    table = None
    if args.trace:
        if args.workload != "cli":
            table = worker(["--role", "table"] + w, env, deadline)["table_mb"]
    elif args.workload != "cli":
        setup = [worker(["--role", "setup"] + w, env, deadline)["setup_s"]
                 for _ in range(SETUP_RUNS)]
    run_args = ["--role", "run"] + w + ["--seed", str(args.seed),
                                         "--seconds", str(args.seconds),
                                         "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--trace-file", os.path.join(OUT, "trace-%s.json" % (tag,))]
    res = worker(run_args, env, deadline)

    metrics = dict(res["metrics"])
    if args.trace:
        if table is not None:
            metrics["fibcore.table_mb"] = table
        metrics["host.ref_ms"] = res["host_ref_ms"]
        metrics["run.wait_ms"] = res["wait_ms"]
        units = LAYER_UNITS
    else:
        metrics["setup_s"] = median(setup or res["setup_samples"])
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        units = E2E_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError("worker did not report %s" % (sorted(missing),))
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setup or res.get("setup_samples"),
                  host_ref_ms=res["host_ref_ms"], wait_ms=res["wait_ms"],
                  errors=res["errors"], absent=res.get("absent", []), raw=res["raw"])
    with open(os.path.join(OUT, "%s.json" % (tag,)), "w") as f:
        json.dump(record, f, indent=1)
    for err in res["errors"]:
        print("bench: failed: %s" % (err,), file=sys.stderr)
    if res.get("absent"):
        print("bench: absent layers (reported as 0): %s" % (", ".join(res["absent"]),),
              file=sys.stderr)
    print("bench: %s host_ref_ms=%.3f wait_ms=%.1f raw=%s" % (
        tag, res["host_ref_ms"], res["wait_ms"], json.dumps(res["raw"])), file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = bench(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("bench: %s" % (exc,), file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
