"""Command line front end.

Exit codes: 0 success, 2 configuration problems (also a file that cannot
be read or written), 3 numerical failures (a training covariance that is
not finite or cannot be factored, a missed quadrature tolerance, or a
bound below the exact variance it bounds).
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click
import numpy as np

from .curves import QuadratureError
from .experiments import (BoundViolationError, ConfigError, ExperimentConfig,
                          PRESETS, apply_overrides, load_config, plot_script,
                          preset_config, run_convergence_check,
                          run_learning_curve, run_variance_experiment)
from .gp import FactorizationError

CONFIG_EXIT = 2
NUMERIC_EXIT = 3


def _resolve(config_path, preset, seed, n_max, subtract_noise=None) -> ExperimentConfig:
    if (config_path is None) == (preset is None):
        raise ConfigError("pass exactly one of --config and --preset")
    cfg = load_config(config_path) if config_path is not None else preset_config(preset)
    if subtract_noise:
        cfg = replace(cfg, subtract_noise=True)
    return apply_overrides(cfg, seed=seed, n_max=n_max)


def _common(fn):
    fn = click.option("--config", "config_path",
                      type=click.Path(dir_okay=False),
                      help="Flat key = value config file.")(fn)
    fn = click.option("--preset", type=str, default=None,
                      help="Named built-in configuration.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override the config seed.")(fn)
    fn = click.option("--out", "out_path", type=click.Path(dir_okay=False),
                      required=True, help="Output CSV path.")(fn)
    fn = click.option("--max-n", "n_max", type=int, default=None,
                      help="Cap the training-set grid at this size.")(fn)
    return fn


class _ExitCodeGroup(click.Group):
    """Maps the package's errors to exit codes and messages, once for every
    command below the group."""

    def invoke(self, ctx):
        # a kernel value that overflows is reported by the finite checks as
        # one error line, not as numpy warnings ahead of it
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(CONFIG_EXIT)
        except (FactorizationError, QuadratureError, BoundViolationError) as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(NUMERIC_EXIT)


@click.group(cls=_ExitCodeGroup)
def main() -> None:
    """Posterior-variance bounds and learning-curve experiments."""


@main.command()
@_common
def variance(config_path, preset, seed, out_path, n_max) -> None:
    """Average exact variance and bounds at a test point over a size grid."""
    cfg = _resolve(config_path, preset, seed, n_max)
    rows = run_variance_experiment(cfg, out_path)
    click.echo(f"wrote {len(rows)} rows to {out_path}")


@main.command("learning-curve")
@_common
@click.option("--subtract-noise", is_flag=True, default=False,
              help="Report curves with the noise floor removed.")
def learning_curve(config_path, preset, seed, out_path, n_max,
                   subtract_noise) -> None:
    """Monte-Carlo learning curve with one-, two-, and multi-sample bounds."""
    cfg = _resolve(config_path, preset, seed, n_max, subtract_noise=subtract_noise)
    table = run_learning_curve(cfg, out_path)
    click.echo(f"wrote {len(table.rows)} rows to {out_path}")


@main.command()
@_common
def convergence(config_path, preset, seed, out_path, n_max) -> None:
    """Check a sampling density and radius schedule, and tabulate ball growth."""
    cfg = _resolve(config_path, preset, seed, n_max)
    verdict = run_convergence_check(cfg, out_path)
    if verdict.satisfied:
        click.echo("satisfied: yes")
        click.echo(f"witness c = {verdict.c}")
        click.echo(f"witness epsilon = {verdict.epsilon}")
    else:
        click.echo("satisfied: no")
        if verdict.first_failing_n is not None:
            click.echo(f"first failing n = {verdict.first_failing_n}")
        click.echo(f"reason: {verdict.reason}")
    click.echo(f"wrote growth table to {out_path}")


@main.group()
def presets() -> None:
    """Inspect built-in configurations."""


@presets.command("list")
def presets_list() -> None:
    """Print one preset name per line."""
    for name in sorted(PRESETS):
        click.echo(name)


@main.command("plot-script")
@click.option("--out", "csv_path", type=click.Path(dir_okay=False),
              required=True, help="CSV written by a previous run.")
def plot_script_cmd(csv_path) -> None:
    """Print a gnuplot script for a CSV produced by this tool."""
    click.echo(plot_script(csv_path), nl=False)


if __name__ == "__main__":
    main()
