"""One-shot survey: every preset once, at full size, through its public
runner.  Not a gated workload; it reproduces the baseline table of run
times and pins the CSV bytes of every preset.

    python3 perfbench/survey.py

Prints one line per preset (run_s, sha256, and whether the hash matches
``survey_baseline.json``) and writes the full record, with the
environment, to ``.bench_out/survey.json``.  Hashes are taken with one BLAS
thread, like the benchmark; other thread counts can change the last digits
of variance CSVs.  Takes about six minutes on two cores.
"""

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import env

env.pin_blas_threads()

BASELINE = Path(__file__).resolve().parent / "survey_baseline.json"


def main() -> int:
    env.import_gpbounds()
    from gpbounds import experiments
    runners = {
        experiments.VARIANCE_UNIFORM: experiments.run_variance_experiment,
        experiments.VARIANCE_VANISHING: experiments.run_variance_experiment,
        experiments.LEARNING_CURVE: experiments.run_learning_curve,
        experiments.CONVERGENCE_CHECK: experiments.run_convergence_check,
    }
    baseline = {}
    if BASELINE.is_file():
        with open(BASELINE, encoding="utf-8") as fh:
            baseline = {r["preset"]: r["sha256"] for r in json.load(fh)["presets"]}

    rows = []
    steal0 = env.steal_ticks()
    with tempfile.TemporaryDirectory(dir=env.ROOT) as tmp:
        out = Path(tmp) / "out.csv"
        for preset in experiments.PRESETS:
            cfg = experiments.preset_config(preset)
            t0 = time.perf_counter()
            runners[cfg.experiment](cfg, out)
            run_s = time.perf_counter() - t0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            same = baseline.get(preset)
            verdict = "no baseline" if same is None else (
                "same bytes" if same == digest else "CHANGED")
            print(f"{preset:<36} {run_s:9.3f} s  {digest[:16]}  {verdict}", flush=True)
            rows.append({"preset": preset, "run_s": run_s, "sha256": digest})
    steal1 = env.steal_ticks()
    record = {"environment": env.environment(),
              "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
              "presets": rows}
    env.OUT.mkdir(exist_ok=True)
    with open(env.OUT / "survey.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    changed = [r["preset"] for r in rows
               if r["preset"] in baseline and baseline[r["preset"]] != r["sha256"]]
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
