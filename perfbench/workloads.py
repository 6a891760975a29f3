"""The benchmark's workloads: one preset each, driven through a public runner.

A workload is a preset plus the overrides that shrink it to one runner call
of about a second, so that a run of ``--seconds`` collects fifteen or more
samples.  Each shrink keeps the property the workload was chosen for; the
comments say which.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict
    # span names that must record at least one call in a traced run
    expected_spans: tuple[str, ...]

    def config(self, seed: int):
        """The preset with this workload's overrides and the given seed."""
        from gpbounds.experiments import apply_overrides, preset_config
        cfg = replace(preset_config(self.preset), **self.overrides)
        return apply_overrides(cfg, seed=seed)

    @property
    def is_curve(self) -> bool:
        return self.preset.startswith("learning-curve")

    def run(self, cfg, out_path):
        """Call the workload's public runner.  It is looked up on each call,
        so a tracer's wrapper is used while one is installed."""
        from gpbounds import experiments
        runner = (experiments.run_learning_curve if self.is_curve
                  else experiments.run_variance_experiment)
        return runner(cfg, out_path)

    def standard_errors(self, result) -> list[float] | None:
        """Per-row Monte-Carlo standard errors from a learning-curve table."""
        return [r.e_num_se for r in result.rows] if self.is_curve else None


_COMMON_SPANS = ("experiments.run", "kernels.gram", "gp.factor", "gp.solve")
_CURVE_SPANS = _COMMON_SPANS + ("kernels.iso", "curves.mc", "curves.e1",
                                "curves.e2", "curves.e_rho")

WORKLOADS = {w.name: w for w in (
    # Full N grid (1..1220, 63 rows); 2 datasets per row instead of 20, so
    # each row does the same Gram/Cholesky/solve work as the preset and the
    # layer shares are unchanged.  The only non-isotropic Gram path and the
    # only grid Lipschitz estimate; no curves code runs.
    Workload("variance-nn", "variance-uniform-neural-network",
             {"datasets": 2},
             _COMMON_SPANS + ("kernels.lipschitz", "bounds.report",
                              "bounds.ball_count", "convergence.sample")),
    # N in {1, 10, 100, 300}: small N where e1/e2 nested quadrature
    # dominates, large N where the greedy section search takes several
    # steps (selected sizes 2..7 under the preset's cap of 300).
    Workload("curve-se", "learning-curve-se",
             {"n_max": 300, "points_per_decade": 1},
             _CURVE_SPANS),
    # One row at N = 20: the spacing reach min(1, 40/N) still covers all
    # of [0, 1], and the greedy search still evaluates e_rho at size 2.
    # 320 Monte-Carlo datasets instead of 20 (about an eighth of the call):
    # with one row, y_exact and so bound_ratio would otherwise vary by
    # about 7% from seed to seed.
    Workload("curve-periodic", "learning-curve-periodic",
             {"n_min": 20, "n_max": 20, "datasets": 320},
             _CURVE_SPANS),
)}
