"""gpbounds benchmark: time preset workloads end to end, check their CSVs,
and split the time by layer in a separate traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client in one process runs the workload's runner call back to back
(a closed loop) for ``--seconds``, after three fresh-process set-up
measurements and one untimed warm-up call.  ``--workload all`` runs each
workload in a child process of its own, one after another, so that each
peak memory figure is that workload's own.  ``run_s`` and ``cpu_s`` are
medians of each call's time divided by the host slowdown measured around
it (see speed.py); the plain medians are printed too.  With ``--trace 1``
the first half of the time is untraced and the second half runs with every
public function of the package wrapped (see tracer.py).  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes its full record and its spans under ``.bench_out/``.
"""

from __future__ import annotations

import env

env.pin_blas_threads()

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from speed import Host
from tracer import Tracer, patched
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SETUP_PROBES = 3
# At most this share of the traced wall time may be left to the runner's
# own self time (``experiments.self_s``: loop, config, CSV write) and the
# call around it; the rest must be in the traced layers below the runner.
TRACE_TOLERANCE = 0.05
# a timing percentile needs this many samples above it
TAIL_BEYOND = 10

_CURVE_BOUND_SPANS = ("curves.e1", "curves.e2", "curves.e_rho")


def tail(samples: list[float]) -> tuple[float, int, float]:
    """(percentile, samples beyond it, value) for the highest percentile
    with at least TAIL_BEYOND samples above it; the maximum when the run
    has too few samples for one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, 0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND, ordered[n - TAIL_BEYOND - 1]


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the first row's work."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                          capture_output=True, text=True, timeout=120, cwd=env.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def load_reference(name: str, seed: int) -> tuple[str | None, bool]:
    """(reference CSV, whether it was recorded with this seed).  A seed
    without a reference gets the first recorded one, whose seed-free
    columns still apply (see check.py)."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None, False
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)["csv"]
    if str(seed) in stored:
        return stored[str(seed)], True
    return next(iter(stored.values()), None), False


class WorkloadCalls:
    """Runner calls of one workload and seed, with their checks."""

    def __init__(self, name: str, seed: int, host: Host):
        self.workload = WORKLOADS[name]
        self.cfg = self.workload.config(seed)
        self.reference, self.same_seed = load_reference(name, seed)
        self.out = env.OUT / f"{name}-seed{seed}.csv"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_csv: str | None = None
        self.host = host
        self.slowdown = host.slowdown()

    def call(self) -> tuple[float, float, float] | None:
        """One runner call; (wall s, CPU s, host slowdown) when its output
        passes.  The slowdown is the mean of the ones measured just before
        and just after the call."""
        self.attempted += 1
        before = self.slowdown
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            result = self.workload.run(self.cfg, self.out)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        except Exception as exc:            # any failure counts against error_rate
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.slowdown = self.host.slowdown()
        text = self.out.read_text(encoding="utf-8")
        problems = check.check_output(text, self.reference, self.cfg.quad_tol,
                                      self.workload.standard_errors(result),
                                      self.same_seed)
        if self.first_csv is None:
            self.first_csv = text
        elif text != self.first_csv:
            problems.append("CSV differs from the first call of this run")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return wall, cpu, (before + self.slowdown) / 2

    def loop(self, seconds: float) -> list[tuple[float, float, float]]:
        samples = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            sample = self.call()
            if sample is not None:
                samples.append(sample)
        return samples


def layer_metrics(tracer: Tracer, calls: int,
                  untraced_median: float, traced_median: float) -> dict:
    """Per-layer metrics, as means per runner call."""
    totals = tracer.self_times()

    def get(name, key):
        return totals.get(name, {}).get(key, 0) / calls

    spans = tracer.spans
    iso_in_curves = sum(sp.counted.get("kernels.iso", (0, 0.0))[0]
                        for sp in spans if sp.name in _CURVE_BOUND_SPANS)
    rows = get("experiments.run", "work")
    curve_rows = rows if get("curves.mc", "calls") else 0.0
    greedy = (get("curves.e_rho", "calls") + get("curves.e1", "calls") - curve_rows
              if curve_rows else 0.0)
    return {
        "kernels.gram_s": get("kernels.gram", "self_s"),
        "kernels.gram_calls": get("kernels.gram", "calls"),
        "kernels.gram_1x1_calls": sum(1 for sp in spans if sp.name == "kernels.gram"
                                      and sp.work == 1) / calls,
        "kernels.gram_entries": get("kernels.gram", "work"),
        "kernels.iso_calls": get("kernels.iso", "calls"),
        "kernels.iso_s": get("kernels.iso", "self_s"),
        "kernels.lipschitz_s": get("kernels.lipschitz", "self_s"),
        "gp.factor_s": get("gp.factor", "self_s"),
        "gp.factor_calls": get("gp.factor", "calls"),
        "gp.factor_flops": get("gp.factor", "work"),
        "gp.factor_failures": get("gp.factor", "failures"),
        "gp.solve_s": get("gp.solve", "self_s"),
        "gp.query_points": get("gp.solve", "work"),
        "bounds.report_calls": get("bounds.report", "calls"),
        "bounds.report_s": get("bounds.report", "self_s"),
        "bounds.ball_count_s": get("bounds.ball_count", "self_s"),
        "curves.e1_s": get("curves.e1", "self_s"),
        "curves.e2_s": get("curves.e2", "self_s"),
        "curves.e_rho_s": get("curves.e_rho", "self_s"),
        "curves.integrand_evals": iso_in_curves / calls,
        "curves.mc_s": get("curves.mc", "self_s"),
        "curves.quad_failures": sum(get(n, "failures") for n in _CURVE_BOUND_SPANS),
        "curves.greedy_evals": greedy,
        "curves.greedy_useful_ratio": curve_rows / greedy if greedy else 0.0,
        "convergence.sample_s": get("convergence.sample", "self_s"),
        "convergence.sample_points": get("convergence.sample", "work"),
        "experiments.self_s": get("experiments.run", "self_s"),
        "experiments.rows": rows,
        "trace.run_s": traced_median,
        "trace.overhead_s": traced_median - untraced_median,
    }


def unattributed_share(tracer: Tracer, traced_wall: float) -> float:
    """Share of the traced wall time outside every layer below the runner:
    the runner's own self time plus the call around it."""
    below = sum(v["self_s"] for name, v in tracer.self_times().items()
                if name != "experiments.run")
    return 1.0 - below / traced_wall


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "ratio" if metric.endswith(("_ratio", "_rate")) else "count"


def scaled(samples) -> list[float]:
    """Times divided by the host slowdown measured around each."""
    return [t / h for t, h in samples]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env.environment()}
    steal0 = env.steal_ticks()
    setup = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    runs = WorkloadCalls(name, seed, Host())
    runs.call()                                      # warm-up, untimed
    samples = runs.loop(seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not samples:
        raise RuntimeError(f"{name}: no runner call succeeded: {runs.problems[:3]}")
    walls = [w for w, _, _ in samples]
    cpus = [c for _, c, _ in samples]
    slowdowns = [h for _, _, h in samples]
    run_s = scaled(zip(walls, slowdowns))
    pct, beyond, tail_value = tail(run_s)
    end_to_end = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(scaled(zip(cpus, slowdowns))),
        "peak_rss_mb": peak_rss_mb,
        "bound_ratio": check.bound_ratio(runs.first_csv),
    }
    per_layer = {}
    unattributed = None
    traced_ok = True
    if trace:
        tracer = Tracer()
        calls_before = runs.attempted
        with patched(tracer):
            traced = runs.loop(seconds / 2)
        if traced:
            traced_walls = [w for w, _, _ in traced]
            per_layer = layer_metrics(tracer, runs.attempted - calls_before,
                                      end_to_end["run_s"],
                                      statistics.median(scaled((w, h) for w, _, h in traced)))
            unattributed = unattributed_share(tracer, sum(traced_walls))
            counted = tracer.self_times()
            missing = [s for s in runs.workload.expected_spans if s not in counted]
            if missing:
                runs.problems.append(f"no calls recorded for {missing}")
            if unattributed > TRACE_TOLERANCE:
                runs.problems.append(f"{unattributed:.1%} of the traced time is "
                                     f"outside the layers (limit {TRACE_TOLERANCE:.0%})")
            traced_ok = not missing and unattributed <= TRACE_TOLERANCE
        else:
            traced_ok = False
        tracer.dump(env.OUT / f"{name}-seed{seed}.spans.jsonl")
    steal1 = env.steal_ticks()
    record.update({
        "attempted": runs.attempted, "failed": runs.failed,
        "problems": runs.problems[:20],
        "error_rate": runs.failed / runs.attempted,
        "samples": len(walls), "wall_s_samples": walls, "cpu_s_samples": cpus,
        "slowdown_samples": slowdowns,
        "run_s_wall": statistics.median(walls),
        "cpu_s_wall": statistics.median(cpus),
        "run_s_tail": tail_value, "run_s_tail_percentile": pct,
        "run_s_tail_beyond": beyond,
        "setup_s_samples": setup,
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "trace_unattributed_share": unattributed,
        "correct": runs.failed == 0 and traced_ok,
    })
    return record


def print_record(rec: dict) -> None:
    print(f"perfbench {rec['workload']} seed={rec['seed']} "
          f"seconds={rec['seconds']:g} trace={int(rec['trace'])}")
    print("environment: " + json.dumps(rec["environment"], sort_keys=True)
          + f" steal_ticks={rec['steal_ticks']}")
    e2e = rec["end_to_end"]
    print(f"  {'run_s':<28} {e2e['run_s']:.6f} s  median of {rec['samples']} "
          f"runner calls, each over the host slowdown around it "
          f"(median {statistics.median(rec['slowdown_samples']):.3f})")
    print(f"  {'run_s_tail':<28} {rec['run_s_tail']:.6f} s  "
          f"p{rec['run_s_tail_percentile']:.0f}, {rec['run_s_tail_beyond']} "
          f"of {rec['samples']} samples beyond it")
    print(f"  {'setup_s':<28} {e2e['setup_s']:.6f} s  median of "
          f"{len(rec['setup_s_samples'])} fresh processes")
    for metric in ("cpu_s", "peak_rss_mb", "bound_ratio"):
        print(f"  {metric:<28} {e2e[metric]:.6f} {_unit(metric)}")
    for metric in ("run_s", "cpu_s"):
        print(f"  {metric + '_wall':<28} {rec[metric + '_wall']:.6f} s  "
              f"median, not divided by the slowdown")
    print(f"  {'error_rate':<28} {rec['error_rate']:.6f} ratio  "
          f"({rec['failed']} failed of {rec['attempted']} attempted)")
    for metric, value in rec["per_layer"].items():
        print(f"  {metric:<28} {value:.6f} {_unit(metric)}")
    if rec["trace_unattributed_share"] is not None:
        print(f"  {'trace.unattributed_share':<28} "
              f"{rec['trace_unattributed_share']:.6f} ratio  "
              f"(outside the layers; at most {TRACE_TOLERANCE:g})")
    for problem in rec["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def record_path(name: str, seed: int, trace: int) -> Path:
    return env.OUT / f"{name}-seed{seed}-trace{trace}.json"


def run_child(name: str, args) -> dict:
    """Run one workload in a child process and return its record; its
    human-readable lines are passed on, its result line is dropped."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, cwd=env.ROOT)
    if proc.returncode != 0:
        sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
    for line in proc.stdout.splitlines()[:-1]:
        print(line, flush=True)
    with open(record_path(name, args.seed, args.trace), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**64 and seconds > 0")

    if args.workload == "all":
        records = [run_child(name, args) for name in WORKLOADS]
    else:
        env.import_gpbounds()
        env.OUT.mkdir(exist_ok=True)
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        with open(record_path(args.workload, args.seed, args.trace),
                  "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1)
        print_record(rec)
        records = [rec]

    def metrics(rec):
        values = rec["per_layer"] if args.trace else rec["end_to_end"]
        return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}

    if len(records) == 1:
        merged = metrics(records[0])
    else:
        merged = {f"{r['workload']}.{k}": v for r in records for k, v in metrics(r).items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
