"""Experiment configuration, presets, runners, and CSV emission.

Configs are flat ``key = value`` text files (``#`` starts a comment).  Every
run is a pure function of (config, seed): derived per-(N, dataset) seeds
make each CSV byte-reproducible.  Floats are printed with 17 significant
digits so files round-trip exactly.

CSV schemas
-----------
variance experiments:   idx, sig_m, sig_bm, sig_bm_gen
                        (exact variance, ball bound, general bound; sig_bm
                        is nan for kernels without the isotropic bound)
learning curves:        idx, y_exact, y_bound, yE1, yE2
ball growth:            n, mean_count, min_count, expected_count
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from . import convergence as conv
from .bounds import RadiusSchedule, bound_report, radius_at
from .curves import monte_carlo_curve
from .gp import FactorizationError, TrainingSet
from .kernels import (MATERN_HALF, NEURAL_NETWORK, PERIODIC, POLYNOMIAL,
                      RATIONAL_QUADRATIC, SQUARED_EXPONENTIAL, Kernel,
                      KernelError, lipschitz_constant)

VARIANCE_UNIFORM = "variance-uniform"
VARIANCE_VANISHING = "variance-vanishing"
LEARNING_CURVE = "learning-curve"
CONVERGENCE_CHECK = "convergence-check"
EXPERIMENTS = (VARIANCE_UNIFORM, VARIANCE_VANISHING, LEARNING_CURVE,
               CONVERGENCE_CHECK)

_EXPERIMENT_TAGS = {VARIANCE_UNIFORM: 1, VARIANCE_VANISHING: 2}
# a variance experiment's name fixes its sampling density; a convergence
# check reads the ``density`` key
_VARIANCE_DENSITY = {VARIANCE_UNIFORM: conv.UNIFORM, VARIANCE_VANISHING: conv.VANISHING}

VARIANCE_HEADER = ("idx", "sig_m", "sig_bm", "sig_bm_gen")
CURVE_HEADER = ("idx", "y_exact", "y_bound", "yE1", "yE2")
GROWTH_HEADER = ("n", "mean_count", "min_count", "expected_count")


class BoundViolationError(RuntimeError):
    """A bound of a variance run fell below the exact variance it bounds."""


class ConfigError(ValueError):
    """A config key is unknown, ill-typed, or out of its admissible range."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings.  ``__post_init__`` checks every field, and
    ``dataclasses.replace`` runs it again, so no invalid config exists."""

    experiment: str = ""
    kernel: str = ""
    lengthscale: float = 1.0
    signal_variance: float = 1.0
    alpha: float = 1.0
    period: float = 1.0
    offset: float = 1.0
    degree: int = 3
    bias_variance: float = 1.0
    weight_variance: float = 1.0
    noise_variance: float = 0.1
    domain_lo: float = 0.5
    domain_hi: float = 1.5
    test_point: float = 1.0
    schedule_c: float = 1.0
    schedule_alpha: float | None = None
    n_min: int = 1
    n_max: int = 1000
    points_per_decade: int = 25
    datasets: int = 20
    test_points: int = 200
    trials: int = 50
    witness_c: float = 0.5
    witness_epsilon: float = 0.5
    density: str = "uniform"
    seed: int = 1
    subtract_noise: bool = False
    quad_tol: float = 1e-9

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"config key 'experiment': must be one of {EXPERIMENTS}")
        for key, kind in _FIELD_TYPES.items():
            value = getattr(self, key)
            if kind in (float, float | None) and value is not None and not math.isfinite(value):
                raise ConfigError(f"config key {key!r}: must be finite")
        for key in ("noise_variance", "schedule_c", "quad_tol"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"config key {key!r}: must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("config key 'seed': must be an unsigned 64-bit integer")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ConfigError("config keys 'n_min'/'n_max': need 1 <= n_min <= n_max")
        if self.points_per_decade < 1:
            raise ConfigError("config key 'points_per_decade': must be >= 1")
        if self.schedule_alpha is not None and not 0.0 < self.schedule_alpha <= 1.0:
            raise ConfigError("config key 'schedule_alpha': must lie in (0, 1]")
        if not self.domain_lo < self.domain_hi:
            raise ConfigError("config keys 'domain_lo'/'domain_hi': need lo < hi")
        if self.density not in conv.DENSITY_KINDS:
            raise ConfigError(f"config key 'density': must be one of {conv.DENSITY_KINDS}")

        if self.experiment in (VARIANCE_UNIFORM, VARIANCE_VANISHING):
            config_kernel(self)
            if self.datasets < 1:
                raise ConfigError("config key 'datasets': must be >= 1")
            if not self.domain_lo <= self.test_point <= self.domain_hi:
                raise ConfigError("config key 'test_point': must lie in the domain")
            if self.experiment == VARIANCE_VANISHING:
                center = _config_density(self).center
                if self.test_point != center:
                    raise ConfigError(f"variance-vanishing needs test_point at the domain "
                                      f"midpoint {center!r} (the density vanishes there)")
        elif self.experiment == LEARNING_CURVE:
            kernel = config_kernel(self)
            if not kernel.isotropic:
                raise ConfigError("learning-curve experiments need an isotropic kernel")
            if self.datasets < 2:
                raise ConfigError("config key 'datasets': must be >= 2")
            if self.test_points < 1:
                raise ConfigError("config key 'test_points': must be >= 1")
        else:
            if self.kernel:
                raise ConfigError("config key 'kernel': convergence checks take no kernel")
            for f in fields(Kernel)[1:]:
                if getattr(self, f.name) != f.default:
                    raise ConfigError(f"config key {f.name!r}: convergence checks "
                                      f"take no kernel parameter")
            if self.schedule_alpha is None:
                raise ConfigError("config key 'schedule_alpha': required for "
                                  "convergence checks")
            if not 0.0 < self.witness_epsilon < 1.0:
                raise ConfigError("config key 'witness_epsilon': must lie in (0, 1)")
            if not self.witness_c > 0:
                raise ConfigError("config key 'witness_c': must be positive")
            if self.trials < 1:
                raise ConfigError("config key 'trials': must be >= 1")


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == float | None:
        kind = float
    try:
        if kind is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} "
                          f"as {kind.__name__}") from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat key = value lines into a config."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


# default schedule exponents per (experiment family, kernel kind)
_DEFAULT_ALPHA = {
    VARIANCE_UNIFORM: {SQUARED_EXPONENTIAL: 1.0 / 3.0, MATERN_HALF: 0.5,
                       RATIONAL_QUADRATIC: 1.0 / 3.0, PERIODIC: 1.0 / 3.0,
                       POLYNOMIAL: 0.5, NEURAL_NETWORK: 0.5},
    VARIANCE_VANISHING: {SQUARED_EXPONENTIAL: 0.25, MATERN_HALF: 1.0 / 3.0,
                         RATIONAL_QUADRATIC: 0.25, PERIODIC: 0.25,
                         POLYNOMIAL: 1.0 / 3.0, NEURAL_NETWORK: 1.0 / 3.0},
}


def resolved_schedule_alpha(cfg: ExperimentConfig) -> float:
    if cfg.schedule_alpha is not None:
        return cfg.schedule_alpha
    return _DEFAULT_ALPHA[cfg.experiment][cfg.kernel]


def config_kernel(cfg: ExperimentConfig) -> Kernel:
    """The config's kernel; ``Kernel`` rejects an unknown kind and any
    parameter the kind ignores that is set away from its default."""
    try:
        return Kernel(cfg.kernel, **{f.name: getattr(cfg, f.name)
                                     for f in fields(Kernel)[1:]})
    except KernelError as exc:
        raise ConfigError(str(exc)) from None


def log_grid(n_min: int, n_max: int, per_decade: int) -> list[int]:
    """Strictly increasing integer grid, about per_decade points per decade,
    always containing both endpoints."""
    if n_min < 1 or n_max < n_min or per_decade < 1:
        raise ConfigError("need 1 <= n_min <= n_max and per_decade >= 1")
    span = math.log10(n_max / n_min)
    steps = int(math.floor(span * per_decade)) + 1
    grid = {int(round(n_min * 10.0 ** (i / per_decade))) for i in range(steps + 1)}
    grid.add(n_max)
    return sorted(v for v in grid if n_min <= v <= n_max)


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _check_writable(path) -> None:
    """Raise ``write_csv``'s error before a run, not after it; an existing
    file is only opened for appending, a new one is removed again."""
    created = not os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    if created:
        os.remove(path)


def write_csv(path, header, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(format_value(v) for v in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _config_density(cfg: ExperimentConfig) -> conv.Density:
    kind = _VARIANCE_DENSITY.get(cfg.experiment, cfg.density)
    return conv.Density(kind, (cfg.domain_lo, cfg.domain_hi))


def run_variance_experiment(cfg: ExperimentConfig, out_path) -> list[tuple]:
    """Average exact variance and bounds at the test point over the N grid.

    Per (N, dataset) the derived seed draws the training inputs; the radius
    follows the clipped power schedule.  The ball bound column is nan for
    kernels without an isotropic non-increasing form, mirroring the
    general-kernel figures.
    """
    if cfg.experiment not in _EXPERIMENT_TAGS:
        raise ConfigError("run_variance_experiment needs a variance experiment")
    _check_writable(out_path)
    tag = _EXPERIMENT_TAGS[cfg.experiment]
    kernel = config_kernel(cfg)
    density = _config_density(cfg)
    schedule = RadiusSchedule(cfg.schedule_c, resolved_schedule_alpha(cfg))
    lip = lipschitz_constant(kernel, (cfg.domain_lo, cfg.domain_hi))
    has_iso = kernel.decreasing
    grid = log_grid(cfg.n_min, cfg.n_max, cfg.points_per_decade)
    radii = radius_at(schedule, grid, kernel, cfg.test_point, lip).tolist()
    rows = []
    for n, rho in zip(grid, radii):
        acc_exact = acc_gen = acc_iso = 0.0
        try:
            for i in range(cfg.datasets):
                train = TrainingSet(density.sample(n, [cfg.seed, tag, n, i]),
                                    cfg.noise_variance)
                rep = bound_report(train, kernel, cfg.test_point, rho, lip)
                _check_bounds(rep, kernel, n, i)
                acc_exact += rep.exact
                acc_gen += rep.lipschitz
                if has_iso:
                    acc_iso += rep.isotropic
        except FactorizationError as exc:
            raise exc.at_dataset(i) from exc
        d = float(cfg.datasets)
        rows.append((n, acc_exact / d,
                     acc_iso / d if has_iso else math.nan, acc_gen / d))
    write_csv(out_path, VARIANCE_HEADER, rows)
    return rows


def _check_bounds(rep, kernel: Kernel, n: int, dataset: int) -> None:
    """Raise BoundViolationError unless each bound the report holds is at
    least its exact variance less 1e-10, a margin for rounding."""
    for name in ("lipschitz", "isotropic", "one_point", "two_point"):
        bound = getattr(rep, name)
        if bound is not None and not bound >= rep.exact - 1e-10:
            raise BoundViolationError(
                f"{kernel.kind} kernel, N={n}, dataset {dataset}: the {name} bound "
                f"{float(bound)!r} is below the exact variance {float(rep.exact)!r}")


def run_learning_curve(cfg: ExperimentConfig, out_path):
    """Monte-Carlo learning curve plus the three bounds over the N grid."""
    if cfg.experiment != LEARNING_CURVE:
        raise ConfigError("run_learning_curve needs experiment = learning-curve")
    _check_writable(out_path)
    kernel = config_kernel(cfg)
    grid = log_grid(cfg.n_min, cfg.n_max, cfg.points_per_decade)
    table = monte_carlo_curve(kernel, cfg.noise_variance, grid,
                              cfg.test_points, cfg.datasets, cfg.seed,
                              quad_tol=cfg.quad_tol)
    shift = cfg.noise_variance if cfg.subtract_noise else 0.0
    rows = [(r.n, r.e_num - shift, r.e_rho - shift, r.e1 - shift, r.e2 - shift)
            for r in table.rows]
    write_csv(out_path, CURVE_HEADER, rows)
    return table


def run_convergence_check(cfg: ExperimentConfig, out_path) -> conv.ConvergenceVerdict:
    """Schedule/density verdict plus a sampled ball-growth table."""
    if cfg.experiment != CONVERGENCE_CHECK:
        raise ConfigError("run_convergence_check needs experiment = convergence-check")
    _check_writable(out_path)
    density = _config_density(cfg)
    schedule = RadiusSchedule(cfg.schedule_c, cfg.schedule_alpha)
    verdict = conv.check_theorem32(density, cfg.test_point, schedule,
                                   cfg.witness_c, cfg.witness_epsilon,
                                   (cfg.n_min, cfg.n_max))
    grid = log_grid(cfg.n_min, cfg.n_max, cfg.points_per_decade)
    growth = conv.empirical_ball_growth(density, cfg.test_point, schedule,
                                        grid, cfg.trials, cfg.seed)
    write_csv(out_path, GROWTH_HEADER,
              [(g.n, g.mean_count, g.min_count, g.expected_count) for g in growth])
    return verdict


_VARIANCE_BASE = dict(noise_variance=0.1, lengthscale=1.0, signal_variance=1.0,
                       domain_lo=0.5, domain_hi=1.5, test_point=1.0,
                       schedule_c=1.0, datasets=20, n_min=1, n_max=1220,
                       points_per_decade=25, seed=1)
_CURVE_BASE = dict(experiment=LEARNING_CURVE, noise_variance=0.05,
                    lengthscale=0.3, signal_variance=1.0, datasets=20,
                    test_points=200, n_min=1, n_max=2000,
                    points_per_decade=25, seed=1)

PRESETS: dict[str, dict] = {
    "variance-uniform-se": dict(experiment=VARIANCE_UNIFORM,
                                kernel=SQUARED_EXPONENTIAL, **_VARIANCE_BASE),
    "variance-uniform-matern": dict(experiment=VARIANCE_UNIFORM,
                                    kernel=MATERN_HALF, **_VARIANCE_BASE),
    "variance-uniform-polynomial": dict(experiment=VARIANCE_UNIFORM,
                                        kernel=POLYNOMIAL, **_VARIANCE_BASE),
    "variance-uniform-neural-network": dict(experiment=VARIANCE_UNIFORM,
                                            kernel=NEURAL_NETWORK,
                                            **_VARIANCE_BASE),
    "variance-vanishing-se": dict(experiment=VARIANCE_VANISHING,
                                  kernel=SQUARED_EXPONENTIAL, **_VARIANCE_BASE),
    "variance-vanishing-matern": dict(experiment=VARIANCE_VANISHING,
                                      kernel=MATERN_HALF, **_VARIANCE_BASE),
    "variance-vanishing-polynomial": dict(experiment=VARIANCE_VANISHING,
                                          kernel=POLYNOMIAL, **_VARIANCE_BASE),
    "variance-vanishing-neural-network": dict(experiment=VARIANCE_VANISHING,
                                              kernel=NEURAL_NETWORK,
                                              **_VARIANCE_BASE),
    "learning-curve-se": dict(kernel=SQUARED_EXPONENTIAL, **_CURVE_BASE),
    "learning-curve-matern": dict(kernel=MATERN_HALF, **_CURVE_BASE),
    "learning-curve-rational-quadratic": dict(kernel=RATIONAL_QUADRATIC,
                                              alpha=1.0, **_CURVE_BASE),
    "learning-curve-periodic": dict(kernel=PERIODIC, period=1.0, **_CURVE_BASE),
    "convergence-uniform": dict(experiment=CONVERGENCE_CHECK, density="uniform",
                                domain_lo=0.5, domain_hi=1.5, test_point=1.0,
                                schedule_c=1.0, schedule_alpha=1.0 / 3.0,
                                witness_c=0.5, witness_epsilon=0.5,
                                n_min=1, n_max=10000, points_per_decade=25,
                                trials=50, seed=1),
    "convergence-vanishing": dict(experiment=CONVERGENCE_CHECK,
                                  density="vanishing", domain_lo=0.5,
                                  domain_hi=1.5, test_point=1.0,
                                  schedule_c=1.0, schedule_alpha=1.0 / 3.0,
                                  witness_c=1.0, witness_epsilon=0.25,
                                  n_min=1, n_max=10000, points_per_decade=25,
                                  trials=50, seed=1),
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; see 'presets list'")
    return ExperimentConfig(**PRESETS[name])


def apply_overrides(cfg: ExperimentConfig, seed: int | None = None,
                    n_max: int | None = None) -> ExperimentConfig:
    given = {"seed": seed, "n_max": n_max}
    return replace(cfg, **{k: v for k, v in given.items() if v is not None})


_PLOT_STYLES = {
    VARIANCE_HEADER: [("sig_m", "exact variance"), ("sig_bm", "ball bound"),
                      ("sig_bm_gen", "general bound")],
    CURVE_HEADER: [("y_exact", "monte carlo"), ("y_bound", "section bound"),
                   ("yE1", "one-sample bound"), ("yE2", "two-sample bound")],
    GROWTH_HEADER: [("mean_count", "mean in ball"), ("min_count", "min in ball"),
                    ("expected_count", "expected in ball")],
}


def plot_script(csv_path) -> str:
    """Emit a gnuplot script for a CSV written by one of the runners."""
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = tuple(fh.readline().strip().split(","))
    except OSError as exc:
        raise ConfigError(f"cannot read {csv_path}: {exc}") from None
    if header not in _PLOT_STYLES:
        raise ConfigError(f"unrecognized CSV header {','.join(header)!r}")
    x_col = header[0]
    # gnuplot escapes a quote inside a single-quoted string by doubling it
    quoted = str(csv_path).replace("'", "''")
    lines = [
        "set datafile separator ','",
        "set datafile missing 'nan'",
        "set logscale xy",
        f"set xlabel '{x_col}'",
        "set key left bottom",
    ]
    plots = ", \\\n     ".join(
        f"'{quoted}' using '{x_col}':'{col}' with lines title '{title}'"
        for col, title in _PLOT_STYLES[header])
    lines.append("plot " + plots)
    return "\n".join(lines) + "\n"
