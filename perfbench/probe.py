"""One set-up measurement, run in a fresh interpreter by run.py.

Calls the workload's real runner and stops it at the first row: both
runners call ``experiments.log_grid`` right after their set-up (config
validation, kernel and, for variance runs, ``lipschitz_constant``) and
before the row loop, so ``log_grid`` is replaced by a function that prints
``time.monotonic()`` and ends the process.  The parent reads the clock
before starting this process, so the difference spans interpreter start to
the first row's work.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys
import time

import env


def _stop(*args, **kwargs):
    print(repr(time.monotonic()), flush=True)
    os._exit(0)


def main(name: str, seed: int) -> None:
    env.pin_blas_threads()
    env.import_gpbounds()
    from gpbounds import experiments
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    experiments.log_grid = _stop
    env.OUT.mkdir(exist_ok=True)
    workload.run(workload.config(seed), env.OUT / f"{name}-probe.csv")
    sys.exit("perfbench: the runner finished without calling log_grid")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
