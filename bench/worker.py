"""One benchmark process: runs a workload in a fresh interpreter.

    python bench/worker.py --role run --workload W --seed S --seconds T --trace 0|1 [--trace-file F]
    python bench/worker.py --role setup --workload W
    python bench/worker.py --role table --workload W

`run.py` starts these with PYTHONPATH=src and a fixed hash seed and
reads the JSON object each prints as its last line.  `setup` times
`import fibpart` plus the workload's untimed first call; `table` measures
with tracemalloc what that first call keeps (the Fibonacci table).
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import timing

# a traced run does this much untraced work, then the same work traced
TRACE_SHARE = 0.3
# seconds one round takes at the commit that defined the benchmark (for
# cli: in process, which is how a traced run runs its commands)
NOMINAL_ROUND_S = {"point": 0.3, "big": 0.8, "paper-stats": 1.9, "cli": 0.05}
SETUP_PROBES = 3


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def role_setup(wl):
    before = [timing.ref_probe(wl.probe) for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    import fibpart
    wl.warm(fibpart)
    seconds = time.perf_counter() - t0
    after = [timing.ref_probe(wl.probe) for _ in range(SETUP_PROBES)]
    emit({"setup_raw_s": seconds,
          "setup_s": timing.scale(seconds, wl.probe, before + after)})


def role_table(wl):
    import tracemalloc
    import fibpart
    tracemalloc.start()
    wl.warm(fibpart)
    kept = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    emit({"table_mb": kept / 1e6})


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


def median_child_ms(code, n=3):
    """Median wall time of `python -c code` in a fresh interpreter, or of
    the float the code prints when it prints one."""
    vals = []
    for _ in range(n):
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, check=True).stdout.strip()
        vals.append(float(out) if out else time.perf_counter() - t)
    return timing.median(vals) * 1000


# ---------------------------------------------------------------------------
# the timed loop


class Pass:
    """Timed execution of rounds of operations.  `wait` is the wall time
    of the rounds that no CPU time (this process's or its children's)
    accounts for."""

    def __init__(self, wl, fp, runner=None, keep=False):
        self.wl, self.fp = wl, fp
        self.runner = runner or wl.run
        self.keep = keep
        self.timeline = timing.Timeline(wl.probe)
        self.kinds = []
        self.rounds = 0
        self.timed = 0.0
        self.wait = 0.0
        self.results = []

    def round(self, specs):
        outs = []
        wall, cpu = time.perf_counter(), self.cpu()
        for spec in specs:
            t = time.perf_counter()
            try:
                out, ok = self.runner(self.fp, spec), True
            except Exception as exc:      # a refused or crashed operation
                out, ok = "%s: %s" % (type(exc).__name__, exc), False
            dt = time.perf_counter() - t
            self.timed += dt
            self.timeline.add(dt)
            self.kinds.append(self.wl.kind(spec))
            outs.append((ok, out))
        self.wait += max(0.0, (time.perf_counter() - wall) - (self.cpu() - cpu))
        self.rounds += 1
        if self.keep:
            self.results.append((specs, outs))
        return outs

    @staticmethod
    def cpu():
        t = os.times()
        return time.process_time() + t.children_user + t.children_system


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.errors = []

    def check(self, wl, fp, specs, outs):
        for spec, (ok, out) in zip(specs, outs):
            self.attempted += 1
            try:
                why = None if not ok else wl.check(fp, spec, out)
            except Exception as exc:      # e.g. output that does not parse
                why = "checking %r raised %s: %s" % (spec, type(exc).__name__, exc)
            if ok and why is None:
                continue
            self.failed += 1
            if ok:
                self.wrong += 1
            if len(self.errors) < 5:
                self.errors.append(out if not ok else why)


def e2e_metrics(wl, p):
    scaled = p.timeline.scaled()
    return {
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": timing.median(scaled) * 1000,
        "latency_tail_ms": timing.percentile(scaled, wl.tail_pct) * 1000,
    }


def time_shares(p):
    """Share of the scaled timed part and operation count per kind."""
    scaled = p.timeline.scaled()
    total = sum(scaled)
    out = {}
    for k, t in zip(p.kinds, scaled):
        share, count = out.get(k, (0.0, 0))
        out[k] = (share + t / total, count + 1)
    return {k: {"time_share": round(v[0], 4), "ops": v[1]} for k, v in sorted(out.items())}


def run_timed(wl, fp, seconds, runner=None):
    p = Pass(wl, fp, runner)
    tally = Tally()
    while p.rounds < wl.min_rounds or p.timed < seconds:
        specs = wl.plan_round()
        tally.check(wl, fp, specs, p.round(specs))
    p.timeline.close()
    return p, tally


# ---------------------------------------------------------------------------
# cli: one process per command


def cli_argv(spec):
    return [sys.executable, "-m", "fibpart.cli"] + list(spec)


def cli_subprocess(fp, spec):
    proc = subprocess.run(cli_argv(spec), capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def cli_in_process(cli):
    import contextlib
    import io

    def runner(fp, spec):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(list(spec))
            except SystemExit as exc:     # argparse refuses bad arguments so
                code = exc.code
        return code, buf.getvalue()
    return runner


def cli_setup_samples(wl, n=5):
    """Wall time of an untimed first command, n times, host-scaled."""
    out = []
    for _ in range(n):
        before = [timing.ref_probe(wl.probe) for _ in range(SETUP_PROBES)]
        t = time.perf_counter()
        subprocess.run(cli_argv(("chi", "1")), capture_output=True, timeout=60, check=True)
        seconds = time.perf_counter() - t
        after = [timing.ref_probe(wl.probe) for _ in range(SETUP_PROBES)]
        out.append(timing.scale(seconds, wl.probe, before + after))
    return out


# ---------------------------------------------------------------------------
# traced run: the same rounds untraced, then traced


def layer_metrics(tr, extra):
    ms = tr.self_ms
    minimal_calls = tr.calls.get("enumeration.minimal_essential", 0)
    chi_parents = {"chi_analysis.count_zero_chi", "chi_analysis.x_sum"}
    hull_parents = {"chi_analysis.computed_hull_points", "chi_analysis.hull_points"}
    m = {
        "fibcore.zeckendorf.self_ms": ms("fibcore.zeckendorf"),
        "fibcore.zeckendorf.calls": tr.calls.get("fibcore.zeckendorf", 0),
        "fibcore.content.self_ms": ms("fibcore.content"),
        "counting.assoc_multivector.self_ms": ms("counting.assoc_multivector"),
        "counting.assoc_vector.self_ms": ms("counting.assoc_vector"),
        "counting.canonical_form.self_ms": ms("counting.canonical_form"),
        "counting.canonical_form.calls": tr.calls.get("counting.canonical_form", 0),
        "counting.continuant.self_ms": ms("counting.continuant"),
        "counting.continuant.calls": tr.calls.get("counting.continuant", 0),
        "counting.count_F.self_ms": ms("counting.count_F"),
        "counting.chi.self_ms": ms("counting.chi"),
        "counting.poly_D.self_ms": ms("counting.poly_D"),
        "counting.poly_D.calls": tr.calls.get("counting.poly_D", 0),
        "counting.poly_mul.self_ms": ms("counting.poly_mul"),
        "counting.poly_mul.calls": tr.calls.get("counting.poly_mul", 0),
        "counting.fib_poly.self_ms": ms("counting.fib_poly"),
        "contfrac.word_of.self_ms": ms("contfrac.word_of"),
        "orbits.is_essential.self_ms": ms("orbits.is_essential"),
        "contfrac.cf_expand.self_ms": ms("contfrac.cf_expand"),
        "contfrac.cf_expand.calls": tr.calls.get("contfrac.cf_expand", 0),
        "orbits.theta.self_ms": ms("orbits.theta"),
        "orbits.theta.calls": tr.calls.get("orbits.theta", 0),
        "orbits.epsilon.self_ms": ms("orbits.epsilon"),
        "enumeration.minimal_essential.self_ms": ms("enumeration.minimal_essential"),
        "enumeration.commutative_words.self_ms": ms("enumeration.commutative_words"),
        "enumeration.minimal_essential.theta_per_query":
            tr.pair_calls({"enumeration.minimal_essential"}, "orbits.theta") / minimal_calls
            if minimal_calls else 0,
        "enumeration.stability_count.self_ms": ms("enumeration.stability_count"),
        "enumeration.stability_count.count_F_calls":
            tr.pair_calls({"enumeration.stability_count"}, "counting.count_F"),
        "chi_analysis.count_zero_chi.self_ms": ms("chi_analysis.count_zero_chi"),
        "chi_analysis.chi_calls": tr.pair_calls(chi_parents, "counting.chi"),
        "chi_analysis.computed_hull_points.self_ms": ms("chi_analysis.computed_hull_points"),
        "chi_analysis.upper_hull.self_ms": ms("chi_analysis.upper_hull"),
        "chi_analysis.count_F_calls": tr.pair_calls(hull_parents, "counting.count_F"),
        "python.gc_ms": tr.gc_s * 1000,
        "python.gc_runs": tr.gc_runs,
    }
    m.update(extra)
    return m


def role_run(wl, args):
    start_probes = [timing.ref_probe(wl.probe) for _ in range(SETUP_PROBES)]
    import fibpart as fp
    cli = None
    if wl.name == "cli":
        from fibpart import cli
    else:
        t = time.perf_counter()
        wl.warm(fp)
        first = time.perf_counter() - t
        t = time.perf_counter()
        wl.warm(fp)
        grow_ms = (first - (time.perf_counter() - t)) * 1000

    out = {"workload": wl.name}
    if not args.trace:
        if cli is not None:
            out["setup_samples"] = cli_setup_samples(wl)
            p, tally = run_timed(wl, fp, args.seconds, cli_subprocess)
            out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        else:
            p, tally = run_timed(wl, fp, args.seconds)
            out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
        out["metrics"] = e2e_metrics(wl, p)
        out["raw"] = {"ops": len(p.timeline.ops), "rounds": p.rounds,
                      "timed_s": p.timed,
                      "raw_ops_per_s": len(p.timeline.ops) / p.timed,
                      "raw_latency_p50_ms": timing.median(p.timeline.raw()) * 1000,
                      "probe_median_ms": timing.median(p.timeline.probes) * 1000,
                      "tail_pct": wl.tail_pct, "kinds": time_shares(p),
                      "ops_detail": [[k, round(r * 1e3, 4), round(c * 1e3, 4)] for k, r, c in
                                     zip(p.kinds, p.timeline.raw(), p.timeline.scaled())]}
    else:
        from tracer import Tracer
        rounds = max(1, round(args.seconds * TRACE_SHARE / NOMINAL_ROUND_S[wl.name]))
        plan = [wl.plan_round() for _ in range(rounds)]
        runner = cli_in_process(cli) if cli is not None else None
        base = Pass(wl, fp, runner, keep=True)
        for specs in plan:
            base.round(specs)
        base.timeline.close()
        tr = Tracer()
        tr.install()
        traced = Pass(wl, fp, runner, keep=True)
        parse_s = 0.0
        tr.enabled = True
        for specs in plan:
            if cli is not None:
                for spec in specs:
                    t = time.perf_counter()
                    cli.build_parser().parse_args(list(spec))
                    parse_s += time.perf_counter() - t
            traced.round(specs)
        tr.enabled = False
        traced.timeline.close()
        tr.uninstall()
        tally = Tally()
        for specs, outs in traced.results:
            tally.check(wl, fp, specs, outs)
        if [o for _, o in base.results] != [o for _, o in traced.results]:
            tally.wrong += 1
            tally.errors.append("traced outputs differ from untraced ones")
        p = traced
        extra = {
            "fibcore.table_grow_ms": grow_ms if cli is None else 0,
            "fibcore.table_mb": 0,
            "cli.import_ms": 0, "cli.parse_ms": 0, "cli.main_ms": 0,
            "host.interp_ms": median_child_ms("pass"),
            "trace.overhead": sum(traced.timeline.scaled()) / sum(base.timeline.scaled()),
        }
        if cli is not None:
            extra["cli.import_ms"] = median_child_ms(
                "import time; t = time.perf_counter(); import fibpart.cli; "
                "print(time.perf_counter() - t)")
            extra["cli.parse_ms"] = parse_s * 1000
            extra["cli.main_ms"] = (traced.timed - parse_s) * 1000
        out["metrics"] = layer_metrics(tr, extra)
        out["absent"] = tr.absent
        if args.trace_file:
            with open(args.trace_file, "w") as f:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tr.spans, "absent": tr.absent}, f)
        out["raw"] = {"rounds": rounds, "ops": len(traced.timeline.ops),
                      "untraced_timed_s": base.timed, "traced_timed_s": traced.timed}
    end_probes = [timing.ref_probe(wl.probe) for _ in range(SETUP_PROBES)]
    out["host_ref_ms"] = timing.median(start_probes + end_probes) * 1000
    out["wait_ms"] = p.wait * 1000
    out["attempted"], out["failed"] = tally.attempted, tally.failed
    out["wrong"], out["errors"] = tally.wrong, tally.errors
    emit(out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("run", "setup", "table"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", help="where a traced run writes its spans")
    args = ap.parse_args()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    {"run": lambda: role_run(wl, args), "setup": lambda: role_setup(wl),
     "table": lambda: role_table(wl)}[args.role]()


if __name__ == "__main__":
    main()
