"""Record the reference CSVs that check.py compares each run against.

    python3 perfbench/record_reference.py

For every workload it runs the runner once per seed in ``SEEDS`` and
stores the CSV text in ``reference/<workload>.json``.  Seeds that already
have a reference are skipped, never rewritten: the references pin the
outputs of the commit that recorded them, and a later change that moves an
output must pass the tolerance check against them.
"""

import json
import sys
import tempfile
from pathlib import Path

import env

env.pin_blas_threads()

import check
from workloads import WORKLOADS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SEEDS = range(32)


def main() -> None:
    env.import_gpbounds()
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=env.ROOT) as tmp:
        out = Path(tmp) / "out.csv"
        for name, workload in WORKLOADS.items():
            path = REFERENCE_DIR / f"{name}.json"
            store = {"csv": {}}
            if path.is_file():
                with open(path, encoding="utf-8") as fh:
                    store = json.load(fh)
            for seed in SEEDS:
                if str(seed) in store["csv"]:
                    continue
                result = workload.run(workload.config(seed), out)
                text = out.read_text(encoding="utf-8")
                problems = check.dominance(text, workload.standard_errors(result))
                if problems:
                    sys.exit(f"{name} seed {seed}: {problems[0]}")
                store["csv"][str(seed)] = text
                print(f"{name} seed {seed}: recorded", flush=True)
            store["csv"] = dict(sorted(store["csv"].items(), key=lambda kv: int(kv[0])))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(store, fh, indent=0)
                fh.write("\n")


if __name__ == "__main__":
    main()
