"""freepoisson benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``).  The client sends the next operation only after the previous
one has returned and passed its check.  Operations run in whole rounds
until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds twice, untraced and then traced, each for half the time, and
prints the per-layer metrics (spans go to ``perfbench/out/``); where a
workload sends CLI requests, it also runs some of them as processes,
after the timed halves, to time process start.  Metric
names and units come from ``BENCHMARK.json`` at the checkout root.  The
last stdout line is the result object; the line before it is a fuller
report with sample counts, the tail percentile and the environment.

``--setup-only`` times one set-up in this process and prints it; an
untraced run calls itself that way four times, so that ``setup_s`` is the
median of five set-ups, four of them in fresh processes.
"""

import os
import time

T0 = time.perf_counter()

# BLAS/OpenMP pools are sized when numpy loads; children inherit this too.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5     # the run's own set-up plus four fresh processes
CLI_PROC_ROUNDS = 2   # rounds whose CLI requests the traced run spawns


def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit")
    return p.parse_args(argv)


def load_spec():
    """``BENCHMARK.json``; its per-layer names must be LAYER_MAP's."""
    from metrics import LAYER_MAP
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(names) != sorted(LAYER_MAP):
        sys.exit("perfbench: BENCHMARK.json per_layer and LAYER_MAP differ: "
                 "%s" % sorted(set(names) ^ set(LAYER_MAP)))
    return spec


def import_library():
    if not (SRC / "freepoisson" / "__init__.py").is_file():
        sys.exit("perfbench: no freepoisson sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import freepoisson
    if Path(freepoisson.__file__).resolve().parent != SRC / "freepoisson":
        sys.exit("perfbench: imported freepoisson from %s, not %s"
                 % (freepoisson.__file__, SRC))


def set_up(name, seed):
    """Import, input generation and cache warm-up."""
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    wl.warm()
    return wl


def probe_setup(args):
    """Set-up time of a fresh process, which repeats this run's set-up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120)
    return json.loads(out.stdout.decode().splitlines()[-1])["setup_s"]


# -- the closed loop ----------------------------------------------------------

class Phase:
    """Outcomes of one timed phase."""

    def __init__(self):
        self.latencies = []
        self.by_kind = {}
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {}
        self.tol_use = {}
        self.slack = []
        self.error_exits = []
        self.cli_latencies = []
        self.round_busy = []
        self.round_rate = []    # verified operations per busy second
        self.round_p50 = []     # median latency

    def record(self, kind, status, detail=""):
        self.attempted += 1
        if status == "ok":
            self.ok += 1
            return
        self.failed += 1
        if status == "wrong":
            self.wrong += 1
        self.failures.setdefault(kind, []).append(detail[:300])

    @property
    def rounds(self):
        return len(self.round_busy)

    def ops_per_s(self):
        """Verified operations per busy second in a slow round: the 10th
        percentile of the rounds' rates.

        A shared host alternates between contended and uncontended spells
        of some seconds.  A run's mean rate moves with the share of each
        spell in it; its slow decile follows the contended speed, which
        every run sees."""
        if len(self.round_rate) < 2:
            return self.round_rate[0]
        return statistics.quantiles(self.round_rate, n=10)[0]


def run_phase(wl, seconds, tracer=None):
    """Whole rounds, closed loop, until ``seconds`` have passed."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        first_lat, first_ok = len(phase.latencies), phase.ok
        for op in wl.round(phase.rounds):
            if tracer is not None:
                tracer.op = phase.attempted
                tracer.enabled = True
                tracer.begin(op.kind, "bench")
            t = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:   # a crash is a failed operation
                phase.latencies.append(time.perf_counter() - t)
                phase.record(op.kind, "failed", repr(exc))
                continue
            finally:
                if tracer is not None:
                    tracer.end()
                    tracer.enabled = False
            lat = time.perf_counter() - t
            phase.latencies.append(lat)
            phase.by_kind.setdefault(op.kind, []).append(lat)
            if op.argv is not None:
                phase.cli_latencies.append(lat)
            verdict = op.check(result)
            phase.record(op.kind, verdict["status"], verdict.get("detail", ""))
            if "tol_use" in verdict:
                key, use = verdict["tol_use"]
                phase.tol_use[key] = max(phase.tol_use.get(key, 0.0), use)
            if "slack" in verdict:
                phase.slack.append(verdict["slack"][1])
            if "error_exit" in verdict:
                phase.error_exits.append(verdict["error_exit"])
        busy = sum(phase.latencies[first_lat:])
        phase.round_busy.append(busy)
        phase.round_rate.append((phase.ok - first_ok) / busy)
        phase.round_p50.append(statistics.median(phase.latencies[first_lat:]))
        if time.perf_counter() - start >= seconds:
            return phase


# -- metrics ------------------------------------------------------------------

def tail(latencies):
    """Latency with ten samples beyond it, and its percentile."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def end_to_end(spec, phase, setup):
    """The end-to-end metrics.  ``op_p50_ms`` is the mean of the rounds'
    medians: a median pooled over the run would jump to whichever host
    speed held for more than half of it, and a round's median (one of the
    three operations of the median class) is too spiky for a decile.  The
    tail is pooled over the run, as its ten samples beyond need many
    rounds."""
    n = len(phase.latencies)
    tail_s, pct = tail(phase.latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": (phase.ops_per_s(), n),
        "op_p50_ms": (statistics.fmean(phase.round_p50) * 1e3, n),
        "op_tail_ms": (tail_s * 1e3, n),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
        "verified_op_ratio": (phase.ok / phase.attempted, phase.attempted),
    }
    full = {}
    for m in spec["end_to_end"]:
        value, samples = values[m["name"]]
        full[m["name"]] = {"value": value, "unit": m["unit"],
                           "samples": samples}
    full["op_tail_ms"]["percentile"] = round(pct, 2)
    full["setup_s"]["values"] = setup
    full["failed_op_ratio"] = {"value": phase.failed / phase.attempted,
                               "unit": "ratio", "samples": phase.attempted}
    return full


def median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer(spec, tracer, base, traced, cli_times):
    from spans import LAYER, NAME
    selfs = tracer.self_times()
    by_layer, by_name, calls = {}, {}, {}
    for s, st in zip(tracer.spans, selfs):
        by_layer[s[LAYER]] = by_layer.get(s[LAYER], 0.0) + st
        key = s[LAYER] + ":" + s[NAME]
        by_name[key] = by_name.get(key, 0.0) + st
        calls[s[LAYER]] = calls.get(s[LAYER], 0) + 1
    c, m = tracer.counts, tracer.maxima
    grid = c.get("grid_points", 0)
    exits = base.error_exits + traced.error_exits
    values = {
        "fock.apply_self_s": by_name.get("fock:FockOperator.apply", 0.0),
        "fock.inner_self_s": by_name.get("fock:FockSpace.inner", 0.0)
        + by_name.get("fock:FockVector.inner", 0.0),
        "fock.matrix_self_s": by_name.get("fock:FockOperator.matrix", 0.0),
        "fock.norm_self_s": by_name.get("fock:FockOperator.norm", 0.0),
        "fock.vec_nnz_out": c.get("vec_nnz_out", 0),
        "fock.dense_bytes": m.get("dense_bytes", 0),
        "ncpart.partitions_out": c.get("partitions_out", 0),
        "ncps.values_out": c.get("values_out", 0),
        "quantize.tilde_dim_max": m.get("tilde_dim", 0),
        "transforms.grid_points": grid,
        "transforms.grid_ok_ratio":
            (grid - c.get("grid_failures", 0)) / grid if grid else 0.0,
        "transforms.tol_use_max": max(base.tol_use.get("transforms", 0.0),
                                      traced.tol_use.get("transforms", 0.0)),
        "quantize.tol_use_max": max(base.tol_use.get("quantize", 0.0),
                                    traced.tol_use.get("quantize", 0.0)),
        "fock.bound_slack_min": min(base.slack + traced.slack, default=0.0),
        "cli.proc_s": median_or_zero(cli_times["proc"]),
        "cli.in_process_s": median_or_zero(cli_times["in_process"]),
        "cli.spawn_floor_s": median_or_zero(cli_times["floor"]),
        "cli.error_exit_ok_ratio": sum(exits) / len(exits) if exits else 0.0,
        "trace.overhead_ratio": traced.ops_per_s() / base.ops_per_s()
        if base.ops_per_s() else 0.0,
    }
    for layer in set(by_layer) | set(calls):
        values.setdefault(layer + ".self_s", by_layer.get(layer, 0.0))
        values.setdefault(layer + ".calls", calls.get(layer, 0))
    out = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
           for m in spec["per_layer"]}
    total = sum(by_layer.values())
    shares = {k: round(v / total, 4) for k, v in
              sorted(by_layer.items(), key=lambda kv: -kv[1])} if total else {}
    return out, shares


def observe_counters(tracer):
    def count(key, size):
        return lambda t, result: t.count(key, size(result))

    tracer.observe("FockOperator.apply",
                   count("vec_nnz_out", lambda r: len(r.entries)))
    tracer.observe("FockOperator.matrix",
                   lambda t, r: t.maximum("dense_bytes", r.nbytes))
    tracer.observe("enumerate_nc", count("partitions_out", len))
    for name in ("kreweras", "relabel"):
        tracer.observe(name, count("partitions_out", lambda r: 1))
    tracer.observe("cumulants_from_moments", count("values_out", len))
    tracer.observe("moments_from_cumulants", count("values_out", lambda r: 1))
    tracer.observe("build_dilation",
                   lambda t, r: t.maximum("tilde_dim", r.tilde_dim))

    def grid(t, result):
        values, failures = result
        t.count("grid_points", len(values))
        t.count("grid_failures", len(failures))

    tracer.observe("FreeConvolution.density_on_grid", grid)


def wall_time(argv):
    """Wall time of one process, its output discarded."""
    t = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t


def process_times(wl):
    """The CLI requests of the first two rounds as processes, and as many
    bare interpreter starts."""
    argvs = [op.argv for r in range(CLI_PROC_ROUNDS) for op in wl.round(r)
             if op.argv is not None]
    proc = [wall_time([sys.executable, "-m", "freepoisson.cli"] + argv)
            for argv in argvs]
    floor = [wall_time([sys.executable, "-c", "pass"]) for _ in argvs]
    return proc, floor


def traced_run(spec, args, wl):
    """Untraced then traced half-runs over the same rounds."""
    import spans as tracing
    tracer = tracing.Tracer()
    tracer.install()
    observe_counters(tracer)
    half = args.seconds / 2.0
    base = run_phase(wl, half)
    traced = run_phase(wl, half, tracer)
    proc, floor = process_times(wl)
    cli_times = {"proc": proc, "in_process": base.cli_latencies,
                 "floor": floor}
    metrics, shares = per_layer(spec, tracer, base, traced, cli_times)
    path = HERE / "out" / ("trace-%s.jsonl" % args.workload)
    tracer.write(path)
    return base, traced, metrics, shares, path


def spin_ms():
    """A fixed pure-Python loop, timed: shows how fast the machine ran."""
    t = time.perf_counter()
    total = 0
    for i in range(300000):
        total += i * i
    return (time.perf_counter() - t) * 1e3


def environment(args):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def main(argv=None):
    args = parse_args(argv)
    import_library()
    spec = load_spec()
    wl = set_up(args.workload, args.seed)
    setup = [time.perf_counter() - T0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 0
    report = {"env": environment(args)}
    spin = [spin_ms()]
    if args.trace:
        base, traced, metrics, shares, path = traced_run(spec, args, wl)
        phases = (base, traced)
        from metrics import LAYER_MAP
        report.update(self_time_share=shares, spans=str(path.relative_to(
            ROOT)), rounds=[base.rounds, traced.rounds], layer_map=LAYER_MAP)
        report["metrics"] = metrics
    else:
        setup += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        phase = run_phase(wl, args.seconds)
        phases = (phase,)
        full = end_to_end(spec, phase, setup)
        report.update(rounds=phase.rounds, round_busy_s=[
            round(b, 3) for b in phase.round_busy], metrics=full,
            op_p50_ms_by_kind={
            k: round(statistics.median(v) * 1e3, 2)
            for k, v in phase.by_kind.items()})
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in full.items() if k != "failed_op_ratio"}
    spin.append(spin_ms())
    report["env"]["spin_ms_before_after"] = spin
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = {}
    for p in phases:
        for kind, details in p.failures.items():
            failures.setdefault(kind, []).extend(details)
    report["failures"] = {k: {"count": len(v), "first": v[0]}
                          for k, v in failures.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not any(p.wrong for p in phases),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
