"""Tests of the benchmark harness itself (not collected by the package's
test suite, which only picks up ``test_*.py``):

    python3 -m pytest perfbench/selftest.py -q
"""

import itertools
from pathlib import Path

import pytest

import env

env.pin_blas_threads()
env.import_gpbounds()

import check
from run import TRACE_TOLERANCE, probe_setup, scaled, tail, unattributed_share
from speed import Host
from tracer import Tracer, patched
from workloads import WORKLOADS

DATA = Path(__file__).resolve().parent / "data"


def test_self_time_arithmetic_on_nested_calls():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.count("leaf", lambda: None)
    inner = tracer.span("inner", lambda: leaf())
    outer = tracer.span("outer", lambda: (inner(), leaf(), inner()))
    outer()
    # clock reads: outer 0, inner 1, leaf 2-3, inner end 4, leaf 5-6,
    # inner 7, leaf 8-9, inner end 10, outer end 11
    spans = {sp.id: sp for sp in tracer.spans}
    assert [sp.name for sp in spans.values()] == ["outer", "inner", "inner"]
    assert spans[1].parent == spans[2].parent == 0 and spans[0].parent is None
    assert [sp.self_s for sp in spans.values()] == [11 - 3 - 1 - 3, 3 - 1, 3 - 1]
    totals = tracer.self_times()
    assert totals["inner"]["calls"] == 2 and totals["inner"]["self_s"] == 4
    assert totals["leaf"]["calls"] == 3 and totals["leaf"]["self_s"] == 3
    assert sum(t["self_s"] for t in totals.values()) == 11


def test_unattributed_share_is_the_runner_self_time():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    layer = tracer.span("gp.factor", lambda: None)
    runner = tracer.span("experiments.run", lambda: (layer(), layer()))
    runner()
    # runner 0..5, two layer spans of 1 tick each: 3 of 5 ticks are the
    # runner's own, and a 6-tick call around it adds one more
    assert unattributed_share(tracer, 5.0) == pytest.approx(3 / 5)
    assert unattributed_share(tracer, 6.0) == pytest.approx(4 / 6)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail([float(v) for v in range(1, 41)]) == (75.0, 10, 30.0)
    assert tail([3.0, 1.0, 2.0]) == (100.0, 0, 3.0)


VARIANCE = ("idx,sig_m,sig_bm,sig_bm_gen\n"
            "1,0.5,0.75,0.875\n"
            "2,0.25,0.5,0.625\n")


def test_times_are_divided_by_the_slowdown_around_them():
    assert scaled([(2.0, 2.0), (3.0, 1.5)]) == [1.0, 2.0]
    host = Host()
    assert all(0.2 < host.slowdown() < 10.0 for _ in range(3))


def test_check_rejects_bound_below_exact():
    bad = VARIANCE.replace("2,0.25,0.5,0.625", "2,0.25,0.5,0.125")
    assert check.check_output(bad, None, 1e-9)
    curve = "idx,y_exact,y_bound,yE1,yE2\n1,1.0,0.9,1.2,1.1\n"
    assert check.check_output(curve, None, 1e-9, se=[0.01])
    assert not check.check_output(curve, None, 1e-9, se=[0.05])


def test_check_rejects_value_outside_tolerance():
    assert not check.check_output(VARIANCE, VARIANCE, 1e-9)
    moved = VARIANCE.replace("0.25,0.5,", "0.25000001,0.5,")
    assert check.check_output(moved, VARIANCE, 1e-9)
    curve = "idx,y_exact,y_bound,yE1,yE2\n1,1.0,1.1,1.2,1.3\n"
    near = curve.replace("1.2,", "1.200000005,")
    far = curve.replace("1.2,", "1.2000001,")
    assert not check.check_output(near, curve, 1e-9, se=[0.01])
    assert check.check_output(far, curve, 1e-9, se=[0.01])


def test_check_pins_curve_bounds_for_seeds_without_a_reference():
    reference = "idx,y_exact,y_bound,yE1,yE2\n1,1.0,1.1,1.2,1.3\n"
    other_seed = reference.replace("1,1.0,", "1,1.05,")
    looser = other_seed.replace("1.1,", "1.2,")
    assert check.check_output(other_seed, reference, 1e-9, se=[0.01])
    assert not check.check_output(other_seed, reference, 1e-9, se=[0.01],
                                  same_seed=False)
    assert check.check_output(looser, reference, 1e-9, se=[0.01], same_seed=False)


def test_check_accepts_one_and_two_blas_thread_outputs():
    one = (DATA / "variance-uniform-se.blas1.csv").read_text(encoding="utf-8")
    two = (DATA / "variance-uniform-se.blas2.csv").read_text(encoding="utf-8")
    assert one != two
    assert check.check_output(two, one, 1e-9) == []


def test_patching_covers_every_lookup_site_and_is_undone():
    import gpbounds
    from gpbounds import curves, gp, kernels
    gram, e1, iso = kernels.kernel_matrix, curves.e1_bound, kernels.Kernel.iso
    with patched(Tracer()):
        # gp imports kernel_matrix by name; the package re-exports both
        assert gpbounds.kernel_matrix is gp.kernel_matrix is kernels.kernel_matrix
        assert kernels.kernel_matrix is not gram
        assert gpbounds.e1_bound is curves.e1_bound is not e1
        assert kernels.Kernel.iso is not iso
    assert gpbounds.kernel_matrix is gp.kernel_matrix is kernels.kernel_matrix is gram
    assert gpbounds.e1_bound is curves.e1_bound is e1
    assert kernels.Kernel.iso is iso


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_pair(request, tmp_path_factory):
    """One untraced and one traced runner call of a workload, seed 1."""
    workload = WORKLOADS[request.param]
    cfg = workload.config(1)
    tmp = tmp_path_factory.mktemp(request.param)

    def call(path):
        workload.run(cfg, path)
        return path.read_bytes()

    plain = call(tmp / "plain.csv")
    tracer = Tracer()
    with patched(tracer):
        traced = call(tmp / "traced.csv")
    return workload, plain, traced, tracer


def test_traced_and_untraced_csvs_are_byte_identical(traced_pair):
    _, plain, traced, _ = traced_pair
    assert plain == traced


def test_each_expected_wrapper_records_a_call(traced_pair):
    workload, _, _, tracer = traced_pair
    totals = tracer.self_times()
    for name in workload.expected_spans:
        assert totals.get(name, {}).get("calls", 0) >= 1, name
    root = [sp for sp in tracer.spans if sp.parent is None]
    assert [sp.name for sp in root] == ["experiments.run"]
    wall = root[0].end - root[0].start
    accounted = sum(t["self_s"] for t in totals.values())
    assert accounted == pytest.approx(wall, rel=1e-9)
    assert unattributed_share(tracer, wall) <= TRACE_TOLERANCE


def test_setup_probe_stops_before_the_first_row():
    env.OUT.mkdir(exist_ok=True)
    probe_csv = env.OUT / "variance-nn-probe.csv"
    probe_csv.unlink(missing_ok=True)
    assert 0.0 < probe_setup("variance-nn", 1) < 30.0
    assert not probe_csv.exists()
