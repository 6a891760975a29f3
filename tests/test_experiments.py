import itertools
import math
import re
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from click.testing import CliRunner

from gpbounds import experiments
from gpbounds.bounds import bound_report
from gpbounds.cli import main
from gpbounds.experiments import (EXPERIMENTS, ConfigError, ExperimentConfig,
                                  PRESETS, format_value, load_config, log_grid,
                                  parse_config_text, plot_script,
                                  preset_config, run_convergence_check,
                                  run_learning_curve, run_variance_experiment)
from gpbounds.kernels import Kernel

README = Path(__file__).resolve().parents[1] / "README.md"

GOOD_VARIANCE = """
# variance run at desk scale
experiment = variance-uniform
kernel = squared-exponential
noise_variance = 0.1
n_min = 1
n_max = 20
datasets = 3
seed = 7
"""


# ------------------------------------------------------------------ parsing

def test_parse_happy_path():
    cfg = parse_config_text(GOOD_VARIANCE)
    assert cfg.experiment == "variance-uniform"
    assert cfg.kernel == "squared-exponential"
    assert cfg.n_max == 20 and cfg.datasets == 3 and cfg.seed == 7


def test_parse_comments_and_blanks_ignored():
    cfg = parse_config_text("experiment = convergence-check  # trailing\n"
                            "\n"
                            "schedule_alpha = 0.5\n")
    assert cfg.experiment == "convergence-check"
    assert cfg.schedule_alpha == 0.5


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("experiment = variance-uniform\nkernell = se\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\nexperiment = learning-curve\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_parse_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="'n_max': cannot parse 'many' as int$"):
        parse_config_text(GOOD_VARIANCE.replace("n_max = 20", "n_max = many"))
    with pytest.raises(ConfigError, match="'degree': cannot parse '2.5' as int$"):
        parse_config_text(GOOD_VARIANCE + "degree = 2.5\n")
    with pytest.raises(ConfigError, match="'lengthscale': cannot parse 'wide' as float$"):
        parse_config_text(GOOD_VARIANCE + "lengthscale = wide\n")
    with pytest.raises(ConfigError, match="'schedule_alpha': cannot parse 'x' as float$"):
        parse_config_text(GOOD_VARIANCE + "schedule_alpha = x\n")
    with pytest.raises(ConfigError, match="'subtract_noise': cannot parse 'maybe' as bool$"):
        parse_config_text("experiment = learning-curve\n"
                          "kernel = squared-exponential\n"
                          "subtract_noise = maybe\n")


def test_parse_bool_spellings():
    for raw, want in (("true", True), ("off", False), ("1", True)):
        cfg = parse_config_text("experiment = learning-curve\n"
                                "kernel = squared-exponential\n"
                                f"subtract_noise = {raw}\n")
        assert cfg.subtract_noise is want


def test_parse_optional_float():
    cfg = parse_config_text(GOOD_VARIANCE + "schedule_alpha = 0.25\n")
    assert type(cfg.schedule_alpha) is float and cfg.schedule_alpha == 0.25


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_readme_key_table_names_every_config_field():
    readme = README.read_text(encoding="utf-8")
    lines = readme.split("Keys and defaults:", 1)[1].strip().splitlines()
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines))
    keys = []
    for row in rows[2:]:                 # skip the header and the rule
        cell = re.sub(r"\([^)]*\)", "", row.split("|")[2])  # drop "(default)" notes
        keys += re.findall(r"`([^`]+)`", cell)
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    scope = {}
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), scope)
    report = scope["report"]
    assert report.ball == 67             # the count the prose states
    assert report.isotropic >= report.exact
    assert report.lipschitz >= report.exact


def test_readme_config_example_runs(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Config files", 1)[1]
    text = re.search(r"```\n(.*?)```", section, re.S).group(1)
    parse_config_text(text)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(text)
    out = tmp_path / "readme.csv"
    res = CliRunner().invoke(main, ["variance", "--config", str(cfg),
                                    "--max-n", "5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len(out.read_text().splitlines()) == 1 + 5


# a number, or a range of them, followed by a time or memory unit; a number
# that ends an exponent, as in "1e-9 s" with s the noise variance, is not one
MEASURED_FIGURE = re.compile(r"(?<![\w.+-])\d+(?:\.\d+)?(?:[–-]\d+(?:\.\d+)?)?\s*"
                             r"(?:µs|us|ms|s|sec|seconds|minutes|MiB|MB|GiB|GB|KiB|kB)\b")


def test_readme_holds_no_measured_figure():
    """Timings and memory figures go stale with every speed change; they
    are kept in CHANGES.md, the BENCH_*.json files and the docstrings of
    the code they measure, not in the README."""
    assert MEASURED_FIGURE.findall(README.read_text(encoding="utf-8")) == []
    assert MEASURED_FIGURE.findall("`learning-curve-matern` 17–21 s, 0.39 MiB, "
                                   "14 µs a column") == ["17–21 s", "0.39 MiB", "14 µs"]
    assert MEASURED_FIGURE.findall("at most 1e-9 s, where s is the noise") == []


# --------------------------------------------------------------- validation

def base(**kw):
    return replace(parse_config_text(GOOD_VARIANCE), **kw)


def test_validation_rejects_bad_fields():
    with pytest.raises(ConfigError, match="experiment"):
        base(experiment="variance")
    with pytest.raises(ConfigError, match="kernel"):
        base(kernel="sinc")
    with pytest.raises(ConfigError, match="seed"):
        base(seed=-1)
    with pytest.raises(ConfigError, match="n_min"):
        base(n_min=30)
    with pytest.raises(ConfigError, match="schedule_alpha"):
        base(schedule_alpha=1.5)
    with pytest.raises(ConfigError, match="domain"):
        base(domain_lo=2.0)
    with pytest.raises(ConfigError, match="test_point"):
        base(test_point=9.0)
    # only the proved general bound is offered, so bound_form is no key
    with pytest.raises(ConfigError, match="line 10: unknown config key 'bound_form'"):
        parse_config_text(GOOD_VARIANCE + "bound_form = printed\n")


def test_config_is_checked_at_construction():
    with pytest.raises(ConfigError, match="n_min"):
        replace(preset_config("variance-uniform-se"), n_min=5000)
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig(experiment="bogus")


@pytest.mark.parametrize("kernel, key, value", [
    ("squared-exponential", "period", "3"),
    ("polynomial", "lengthscale", "0.3"),
], ids=["se-period", "polynomial-lengthscale"])
def test_parameter_the_kind_ignores_is_rejected(tmp_path, kernel, key, value):
    text = f"experiment = variance-uniform\nkernel = {kernel}\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=f"{kernel} takes no parameter '{key}'"):
        parse_config_text(text)
    cfg = tmp_path / "ignored.cfg"
    cfg.write_text(text)
    res = CliRunner().invoke(main, ["variance", "--config", str(cfg),
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2, res.output
    assert f"takes no parameter '{key}'" in res.output


def test_config_kernel_fields_mirror_the_kernel_record():
    # config_kernel hands these fields to Kernel by name
    config = {f.name: f for f in fields(ExperimentConfig)}
    config_types = get_type_hints(ExperimentConfig)
    kernel_types = get_type_hints(Kernel)
    for f in fields(Kernel)[1:]:
        assert config_types[f.name] is kernel_types[f.name]
        assert config[f.name].default == f.default


def test_validation_rejects_non_finite_floats():
    float_keys = [key for key, kind in get_type_hints(ExperimentConfig).items()
                  if kind in (float, float | None)]
    assert len(float_keys) == 16
    for key in float_keys:
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match=f"'{key}'"):
                base(**{key: value})


def test_validation_vanishing_needs_centered_test_point():
    with pytest.raises(ConfigError, match="midpoint"):
        base(experiment="variance-vanishing", test_point=1.2)
    base(experiment="variance-vanishing", test_point=1.0)
    # on (0.1, 0.7) the center is 0.39999999999999997, not 0.4; only the
    # exact center is accepted, and the message quotes it
    for near in (0.4, 0.40000000001):
        with pytest.raises(ConfigError, match="midpoint 0.39999999999999997"):
            base(experiment="variance-vanishing", domain_lo=0.1, domain_hi=0.7,
                 test_point=near)
    base(experiment="variance-vanishing", domain_lo=0.1, domain_hi=0.7,
         test_point=0.39999999999999997)


def test_density_key_is_checked_for_every_experiment():
    for experiment in EXPERIMENTS:
        kernel = "" if experiment == "convergence-check" else "squared-exponential"
        text = f"experiment = {experiment}\nkernel = {kernel}\nschedule_alpha = 0.5\n"
        parse_config_text(text)
        with pytest.raises(ConfigError, match="'density'"):
            parse_config_text(text + "density = bogus\n")


def test_validation_learning_curve_needs_isotropy():
    with pytest.raises(ConfigError, match="isotropic"):
        base(experiment="learning-curve", kernel="polynomial")


@pytest.mark.parametrize("key, value", [("kernel", "sinc"), ("period", "-3")] + [
    (f.name, "2") for f in fields(Kernel)[1:]])
def test_convergence_check_takes_no_kernel(tmp_path, key, value):
    """A convergence check draws no posterior, so a kernel or any kernel
    parameter away from its default is a mistake, not something to drop."""
    text = f"experiment = convergence-check\nschedule_alpha = 0.5\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=f"'{key}': convergence checks take no kernel"):
        parse_config_text(text)
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text(text)
    res = CliRunner().invoke(main, ["convergence", "--config", str(cfg),
                                    "--out", str(tmp_path / "g.csv")])
    assert res.exit_code == 2, res.output
    assert "convergence checks take no kernel" in res.output
    assert not (tmp_path / "g.csv").exists()


_VALID_BASES = {"variance-uniform": dict(kernel="squared-exponential"),
                "learning-curve": dict(kernel="squared-exponential"),
                "convergence-check": dict(schedule_alpha=0.5)}


@pytest.mark.parametrize("experiment, key, value", [
    ("variance-uniform", "noise_variance", 0.0),
    ("variance-uniform", "schedule_c", -1.0),
    ("learning-curve", "quad_tol", 0.0),
    ("variance-uniform", "points_per_decade", 0),
    ("variance-uniform", "datasets", 0),
    ("learning-curve", "datasets", 1),
    ("learning-curve", "test_points", 0),
    ("convergence-check", "witness_epsilon", 0.0),
    ("convergence-check", "witness_epsilon", 1.0),
    ("convergence-check", "witness_c", 0.0),
    ("convergence-check", "trials", 0),
])
def test_each_range_check_names_its_key(experiment, key, value):
    ExperimentConfig(experiment=experiment, **_VALID_BASES[experiment])
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        ExperimentConfig(experiment=experiment, **_VALID_BASES[experiment],
                         **{key: value})


def test_validation_convergence_needs_explicit_exponent():
    with pytest.raises(ConfigError, match="schedule_alpha"):
        base(experiment="convergence-check", kernel="")


# ------------------------------------------------------------------- grids

def test_log_grid_contains_endpoints_and_increases():
    grid = log_grid(1, 1220, 25)
    assert grid[0] == 1 and grid[-1] == 1220
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert 60 <= len(grid) <= 90


def test_log_grid_degenerate_and_invalid():
    assert log_grid(7, 7, 25) == [7]
    with pytest.raises(ConfigError):
        log_grid(0, 10, 25)
    with pytest.raises(ConfigError):
        log_grid(10, 5, 25)


def test_format_value_round_trips():
    rng = np.random.default_rng(51)
    for x in rng.uniform(-1e3, 1e3, 200):
        assert float(format_value(float(x))) == float(x)
    assert format_value(12) == "12"
    assert format_value(math.nan) == "nan"


# ------------------------------------------------------------------ presets

def test_all_presets_validate():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.seed == 1


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("variance-cubic")


def test_preset_fidelity():
    cfg = preset_config("variance-uniform-se")
    assert cfg.noise_variance == 0.1
    assert cfg.lengthscale == 1.0
    assert cfg.test_point == 1.0
    assert cfg.datasets == 20
    assert (cfg.domain_lo, cfg.domain_hi) == (0.5, 1.5)
    curve = preset_config("learning-curve-matern")
    assert curve.noise_variance == 0.05
    assert curve.lengthscale == 0.3


# ------------------------------------------------------------------ runners

def small_variance_cfg(**kw):
    cfg = replace(preset_config("variance-uniform-se"), n_max=25, datasets=3)
    return replace(cfg, **kw)


def test_variance_runner_bounds_dominate_exact(tmp_path):
    out = tmp_path / "var.csv"
    rows = run_variance_experiment(small_variance_cfg(), out)
    text = out.read_text()
    assert text.splitlines()[0] == "idx,sig_m,sig_bm,sig_bm_gen"
    assert text.endswith("\n")
    for n, sig_m, sig_bm, sig_bm_gen in rows:
        assert sig_bm_gen >= sig_m - 1e-10
        assert sig_bm >= sig_m - 1e-10
    assert rows[0][0] == 1 and rows[0][1] <= 1.0


def test_variance_runner_general_kernel_has_nan_ball_column(tmp_path):
    cfg = replace(small_variance_cfg(kernel="neural-network"), n_max=10)
    out = tmp_path / "nn.csv"
    rows = run_variance_experiment(cfg, out)
    assert all(math.isnan(r[2]) for r in rows)
    assert "nan" in out.read_text()
    assert all(r[3] >= r[1] - 1e-10 for r in rows)


def test_variance_runner_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_variance_experiment(small_variance_cfg(), a)
    run_variance_experiment(small_variance_cfg(), b)
    assert a.read_bytes() == b.read_bytes()
    run_variance_experiment(small_variance_cfg(seed=2), b)
    assert a.read_bytes() != b.read_bytes()


def test_variance_experiment_name_fixes_the_density(tmp_path):
    # only a convergence check reads the density key
    text = ("experiment = variance-uniform\nkernel = squared-exponential\n"
            "n_max = 30\ndatasets = 3\n")
    plain, keyed = tmp_path / "plain.csv", tmp_path / "keyed.csv"
    run_variance_experiment(parse_config_text(text), plain)
    run_variance_experiment(parse_config_text(text + "density = vanishing\n"), keyed)
    assert keyed.read_bytes() == plain.read_bytes()


def test_learning_curve_runner(tmp_path):
    cfg = replace(preset_config("learning-curve-se"), n_max=30, datasets=3,
                  test_points=10)
    out = tmp_path / "curve.csv"
    table = run_learning_curve(cfg, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "idx,y_exact,y_bound,yE1,yE2"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == first[3]  # smallest N: section bound equals one-sample
    assert len(lines) == len(table.rows) + 1


def test_learning_curve_subtract_noise_shifts_rows(tmp_path):
    cfg = replace(preset_config("learning-curve-se"), n_max=5, datasets=3,
                  test_points=8)
    raw, shifted = tmp_path / "raw.csv", tmp_path / "shift.csv"
    run_learning_curve(cfg, raw)
    run_learning_curve(replace(cfg, subtract_noise=True), shifted)
    for a, b in zip(raw.read_text().splitlines()[1:],
                    shifted.read_text().splitlines()[1:]):
        av, bv = a.split(","), b.split(",")
        assert av[0] == bv[0]
        for x, y in zip(av[1:], bv[1:]):
            assert math.isclose(float(x) - float(y), 0.05, abs_tol=1e-12)


def test_convergence_runner(tmp_path):
    cfg = replace(preset_config("convergence-uniform"), n_max=500, trials=10)
    out = tmp_path / "growth.csv"
    verdict = run_convergence_check(cfg, out)
    assert verdict.satisfied
    lines = out.read_text().splitlines()
    assert lines[0] == "n,mean_count,min_count,expected_count"
    assert lines[1].startswith("1,")


def test_explicit_schedule_alpha_sets_the_radii(tmp_path, monkeypatch):
    """Without schedule_alpha the variance-uniform squared-exponential
    schedule is N^(-1/3); an explicit exponent replaces it.  c = 1 stays
    below k(x, x)/L, so no radius is clipped."""
    radii = {}

    def spy(train, kernel, x, radius, lipschitz):
        radii[train.n] = radius
        return bound_report(train, kernel, x, radius, lipschitz)

    monkeypatch.setattr(experiments, "bound_report", spy)
    for alpha, want in [(None, 1.0 / 3.0), (0.9, 0.9)]:
        radii.clear()
        run_variance_experiment(small_variance_cfg(schedule_alpha=alpha),
                                tmp_path / "x.csv")
        assert sorted(radii) == log_grid(1, 25, 25)
        for n, rho in radii.items():
            assert math.isclose(rho, n ** -want, rel_tol=1e-15), (alpha, n)


def test_runner_experiment_mismatch(tmp_path):
    with pytest.raises(ConfigError, match="needs a variance experiment"):
        run_variance_experiment(preset_config("convergence-uniform"), tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        run_learning_curve(small_variance_cfg(), tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        run_convergence_check(small_variance_cfg(), tmp_path / "x.csv")


# -------------------------------------------------------------- plot script

def test_plot_script_for_each_schema(tmp_path):
    for header, name in (("idx,sig_m,sig_bm,sig_bm_gen", "v.csv"),
                         ("idx,y_exact,y_bound,yE1,yE2", "c.csv"),
                         ("n,mean_count,min_count,expected_count", "g.csv")):
        path = tmp_path / name
        path.write_text(header + "\n1,1,1,1\n")
        script = plot_script(path)
        assert "set logscale xy" in script
        assert str(path) in script
        assert script.count("with lines") == len(header.split(",")) - 1


def test_plot_script_escapes_quotes_in_the_path(tmp_path):
    """gnuplot writes a quote inside a single-quoted string as two quotes."""
    path = tmp_path / "q'dir" / "a.csv"
    path.parent.mkdir()
    path.write_text("idx,sig_m,sig_bm,sig_bm_gen\n1,1,1,1\n")
    plot = plot_script(path).split("\nplot ", 1)[1]
    first = re.match(r"'((?:[^']|'')*)' using ", plot)
    assert first is not None and first.group(1).replace("''", "'") == str(path)


def test_plot_script_rejects_unknown_headers(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError, match="header"):
        plot_script(path)
    with pytest.raises(ConfigError, match="cannot read"):
        plot_script(tmp_path / "missing.csv")


# --------------------------------------------------------------------- CLI

def test_cli_variance_preset_run(tmp_path):
    out = tmp_path / "var.csv"
    res = CliRunner().invoke(main, ["variance", "--preset", "variance-uniform-se",
                                    "--max-n", "10", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_text().startswith("idx,sig_m")


def test_cli_requires_exactly_one_source(tmp_path):
    res = CliRunner().invoke(main, ["variance", "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2
    res = CliRunner().invoke(main, ["variance", "--preset", "variance-uniform-se",
                                    "--config", "also.cfg",
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = variance-uniform\nkernel = nope\n")
    res = CliRunner().invoke(main, ["variance", "--config", str(bad),
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2
    assert "config error" in res.output


def test_cli_empty_config_path_is_read_as_a_path(tmp_path):
    res = CliRunner().invoke(main, ["variance", "--config", "",
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2
    assert "cannot read config" in res.output


def test_cli_clipped_radius_run_succeeds(tmp_path):
    # at N = 1 the schedule radius 10 is clipped to k/L, and (k/L)*L rounds
    # above k for this kernel; the run must still write its rows
    cfg = tmp_path / "clip.cfg"
    cfg.write_text("experiment = variance-uniform\n"
                   "kernel = matern-1/2\n"
                   "lengthscale = 0.2\nsignal_variance = 1.98\n"
                   "schedule_c = 10\nn_max = 3\ndatasets = 2\n")
    out = tmp_path / "clip.csv"
    res = CliRunner().invoke(main, ["variance", "--config", str(cfg),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("command, text", [
    ("variance", "experiment = variance-uniform\nkernel = squared-exponential\n"
                 "domain_hi = inf\nn_max = 3\ndatasets = 2\n"),
    ("convergence", "experiment = convergence-check\nschedule_alpha = 0.5\n"
                    "test_point = nan\nn_max = 50\ntrials = 2\n"),
], ids=["variance-inf-domain", "convergence-nan-point"])
def test_cli_non_finite_config_value_exit_code(tmp_path, command, text):
    cfg = tmp_path / "non-finite.cfg"
    cfg.write_text(text)
    res = CliRunner().invoke(main, [command, "--config", str(cfg),
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output
    assert "satisfied" not in res.output


def test_cli_numeric_error_exit_code(tmp_path):
    cfg = tmp_path / "singular.cfg"
    cfg.write_text("experiment = learning-curve\n"
                   "kernel = squared-exponential\n"
                   "noise_variance = 1e-300\n"
                   "n_min = 40\nn_max = 40\n"
                   "datasets = 2\ntest_points = 2\n")
    res = CliRunner().invoke(main, ["learning-curve", "--config", str(cfg),
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 3
    assert "numerical error" in res.output


def test_cli_quadrature_error_names_the_bound(tmp_path):
    """A period below the unit interval makes e2's integrand oscillate
    faster than the rules' last level resolves at N = 2; the one error line
    names the kernel, N and the bound that missed its tolerance."""
    cfg = tmp_path / "periodic.cfg"
    cfg.write_text("experiment = learning-curve\nkernel = periodic\n"
                   "lengthscale = 0.3\nperiod = 0.5\nn_max = 5\n")
    res = CliRunner().invoke(main, ["learning-curve", "--config", str(cfg),
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 3, res.output
    line, = res.output.splitlines()
    assert re.fullmatch(r"numerical error: periodic kernel, N=2: e2_bound quadrature "
                        r"achieved \S+, requested 1e-09", line), line


@pytest.mark.parametrize("command, text", [
    ("variance", "experiment = variance-uniform\nkernel = neural-network\n"
                 "domain_lo = 1e155\ndomain_hi = 2e155\ntest_point = 1.5e155\n"
                 "n_max = 30\ndatasets = 2\n"),
    ("variance", "experiment = variance-uniform\nkernel = polynomial\n"
                 "domain_lo = 1e80\ndomain_hi = 2e80\ntest_point = 1.5e80\n"),
    ("learning-curve", "experiment = learning-curve\nkernel = periodic\n"
                       "lengthscale = 1e-200\nn_max = 5\n"),
], ids=["neural-network-overflow", "polynomial-overflow", "periodic-zero-l2"])
def test_cli_non_finite_covariance_exit_code(tmp_path, command, text):
    """A config that passes validation but whose kernel values overflow, or
    are 0/0 once l^2 underflows to 0, is a numerical failure: exit code 3,
    one error line naming the covariance, and an existing --out kept.  No
    numpy warning comes first; under the suite's filterwarnings = error one
    would end the run with exit code 1."""
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text)
    out = tmp_path / "kept.csv"
    out.write_text("earlier\n")
    res = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert [line for line in res.output.splitlines() if "error" in line] == [
        "numerical error: covariance matrix must be finite"]
    assert out.read_text() == "earlier\n"


def test_cli_unwritable_out_exit_code(tmp_path):
    res = CliRunner().invoke(main, ["variance", "--preset", "variance-uniform-se",
                                    "--max-n", "5",
                                    "--out", str(tmp_path / "missing" / "x.csv")])
    assert res.exit_code == 2
    assert "cannot write" in res.output


@pytest.mark.parametrize("command, preset", [
    ("variance", "variance-uniform-matern"),
    ("learning-curve", "learning-curve-matern"),
    ("convergence", "convergence-uniform"),
])
def test_cli_unwritable_out_fails_before_the_run(tmp_path, monkeypatch,
                                                 command, preset):
    """The output is opened before the runner's set-up, so an unwritable
    --out exits 2 without reaching the grid or the row loop."""
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiments, "log_grid", never)
    monkeypatch.setattr(experiments, "bound_report", never)
    res = CliRunner().invoke(main, [command, "--preset", preset,
                                    "--out", str(tmp_path / "missing" / "x.csv")])
    assert res.exit_code == 2, res.output
    assert "cannot write" in res.output


def test_cli_numeric_failure_keeps_an_existing_out(tmp_path):
    """A run that fails after the output check leaves a file already at
    --out as it was, and nothing at a path that did not exist."""
    cfg = tmp_path / "singular.cfg"
    cfg.write_text("experiment = variance-uniform\n"
                   "kernel = squared-exponential\n"
                   "noise_variance = 1e-300\n"
                   "n_min = 40\nn_max = 40\ndatasets = 2\n")
    earlier = "idx,sig_m,sig_bm,sig_bm_gen\n1,0.5,0.6,0.7\n"
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text(earlier)
    for out in (kept, fresh):
        res = CliRunner().invoke(main, ["variance", "--config", str(cfg),
                                        "--out", str(out)])
        assert res.exit_code == 3, res.output
    assert kept.read_text() == earlier
    assert not fresh.exists()


@pytest.mark.parametrize("name", ["lipschitz", "isotropic", "one_point", "two_point"])
def test_cli_bound_below_the_exact_variance_exit_code(tmp_path, monkeypatch, name):
    """A bound 1e-6 below the exact variance, on the first dataset at N = 2,
    stops the run with exit code 3 and a message naming the kernel, N, the
    dataset, the bound and both values; an existing --out is kept."""
    reports = []

    def low(train, kernel, x, radius, lipschitz):
        rep = bound_report(train, kernel, x, radius, lipschitz)
        if train.n == 2 and not reports:
            rep = replace(rep, **{name: rep.exact - 1e-6})
            reports.append(rep)
        return rep

    monkeypatch.setattr(experiments, "bound_report", low)
    earlier = "idx,sig_m,sig_bm,sig_bm_gen\n1,0.5,0.6,0.7\n"
    out = tmp_path / "kept.csv"
    out.write_text(earlier)
    res = CliRunner().invoke(main, ["variance", "--preset", "variance-uniform-se",
                                    "--max-n", "5", "--out", str(out)])
    assert res.exit_code == 3, res.output
    rep, = reports
    assert res.output == (f"numerical error: squared-exponential kernel, N=2, dataset 0: "
                          f"the {name} bound {getattr(rep, name)!r} is below the exact "
                          f"variance {rep.exact!r}\n")
    assert out.read_text() == earlier


@pytest.mark.parametrize("preset", sorted(p for p in PRESETS if p.startswith("variance-")))
def test_cli_variance_presets_keep_every_bound(tmp_path, preset):
    """Every bound of the eight variance presets is at least the exact
    variance on the grid up to N = 50, so each run exits 0."""
    res = CliRunner().invoke(main, ["variance", "--preset", preset, "--max-n", "50",
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 0, res.output


def test_cli_variance_numeric_error_exit_code(tmp_path):
    """Where Cholesky may fail, GPPosterior factors at construction, so a
    variance run still stops with exit code 3."""
    cfg = tmp_path / "singular.cfg"
    cfg.write_text("experiment = variance-uniform\n"
                   "kernel = squared-exponential\n"
                   "noise_variance = 1e-300\n"
                   "n_min = 40\nn_max = 40\ndatasets = 2\n")
    res = CliRunner().invoke(main, ["variance", "--config", str(cfg),
                                    "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 3
    assert "numerical error" in res.output


def test_cli_learning_curve_subtract_noise(tmp_path):
    out = tmp_path / "curve.csv"
    res = CliRunner().invoke(main, ["learning-curve", "--preset",
                                    "learning-curve-se", "--max-n", "3",
                                    "--subtract-noise", "--out", str(out)])
    assert res.exit_code == 0, res.output
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[1]) < 0.7  # prior 1.05 minus noise removed


def test_cli_convergence_reports_verdict(tmp_path):
    out = tmp_path / "growth.csv"
    res = CliRunner().invoke(main, ["convergence", "--preset",
                                    "convergence-vanishing", "--max-n", "500",
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "satisfied: yes" in res.output
    assert out.exists()


def run_convergence_cli(tmp_path, text):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("experiment = convergence-check\n" + text + "n_max = 50\ntrials = 2\n")
    return CliRunner().invoke(main, ["convergence", "--config", str(cfg),
                                     "--out", str(tmp_path / "g.csv")])


def test_cli_convergence_outside_point_names_first_failing_n(tmp_path):
    # the first failure lies past n_max, which does not bound the verdict
    res = run_convergence_cli(tmp_path, "schedule_alpha = 0.5\ntest_point = 1.6\n"
                                        "witness_c = 0.01\nwitness_epsilon = 0.5\n")
    assert res.exit_code == 0, res.output
    assert "satisfied: no" in res.output
    assert "first failing n = 99\n" in res.output


def test_cli_convergence_point_an_ulp_off_the_vanishing_center(tmp_path):
    # 0.4 is one ulp above the center 0.39999999999999997 of (0.1, 0.7)
    res = run_convergence_cli(tmp_path, "density = vanishing\ndomain_lo = 0.1\n"
                                        "domain_hi = 0.7\ntest_point = 0.4\n"
                                        "schedule_alpha = 0.3333333333333333\n"
                                        "witness_c = 1\nwitness_epsilon = 0.5\n")
    assert res.exit_code == 0, res.output
    assert "satisfied: no" in res.output
    assert "first failing n = 1881677\n" in res.output


def test_cli_convergence_failure_beyond_1e300(tmp_path):
    # the uniform preset's geometry with a schedule that decays a hair too fast
    res = run_convergence_cli(tmp_path, "schedule_alpha = 0.500000001\n"
                                        "witness_c = 0.5\nwitness_epsilon = 0.5\n")
    assert res.exit_code == 0, res.output
    assert "satisfied: no" in res.output
    assert "first failing n" not in res.output
    assert "beyond N = 1e300" in res.output


def test_cli_seed_override_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["variance", "--preset", "variance-uniform-se", "--max-n", "10"]
    assert CliRunner().invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert CliRunner().invoke(main, args + ["--seed", "99",
                                            "--out", str(b)]).exit_code == 0
    assert a.read_bytes() != b.read_bytes()


def test_cli_presets_list():
    res = CliRunner().invoke(main, ["presets", "list"])
    assert res.exit_code == 0
    names = res.output.split()
    assert "variance-uniform-se" in names
    assert "learning-curve-periodic" in names
    assert names == sorted(names)


def test_cli_plot_script(tmp_path):
    out = tmp_path / "var.csv"
    CliRunner().invoke(main, ["variance", "--preset", "variance-uniform-se",
                              "--max-n", "5", "--out", str(out)])
    res = CliRunner().invoke(main, ["plot-script", "--out", str(out)])
    assert res.exit_code == 0
    assert res.output.startswith("set datafile separator")
