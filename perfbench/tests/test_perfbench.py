"""Tests of the benchmark's own pieces: spans and self time, the
percentile rule, seeded inputs, the scipy reference and BENCHMARK.json."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402


def _spans(rows):
    """A Tracer holding (name, start, end, parent) rows."""
    t = tr.Tracer()
    for name, start, end, parent in rows:
        t.name_of.append(t._intern(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    return t


def test_self_time_subtracts_direct_children_only():
    t = _spans([
        ("op", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 40, 90, 0),
        ("a", 50, 60, 2),
    ])
    assert t.self_ns() == [30, 20, 40, 10]
    # (calls, inclusive, self) per name; the nested "a" is counted once
    assert t.totals() == {"op": (1, 100, 30), "a": (2, 30, 30), "b": (1, 50, 40)}


def test_self_times_of_a_root_sum_to_its_duration():
    t = tr.Tracer()
    leaf = t.wrap("leaf", lambda x: x + 1)
    mid = t.wrap("mid", lambda x: leaf(leaf(x)))
    root = t.wrap("root", lambda x: mid(x) + leaf(x))
    assert root(1) == 5
    assert list(t.parent) == [-1, 0, 1, 1, 0]
    assert sum(t.self_ns()) == t.end[0] - t.start[0]
    assert all(s >= 0 for s in t.self_ns())
    assert {k: v[0] for k, v in t.totals().items()} == {"leaf": 3, "mid": 1, "root": 1}


def test_installed_wraps_every_binding_and_restores_it():
    import marcumq.cli
    from marcumq import analysis, oracle

    original = oracle.q1_reference
    t = tr.Tracer()
    with tr.installed(t.wrap):
        assert marcumq.cli.q1_reference is analysis.q1_reference is oracle.q1_reference
        assert oracle.q1_reference is not original
        marcumq.cli.q1_reference(oracle.QArgs(1.0, 2.0))
    assert marcumq.cli.q1_reference is analysis.q1_reference is oracle.q1_reference is original
    totals = t.totals()
    assert totals["oracle.q1_reference"][0] == 1
    assert totals["oracle.quadrature"][0] == totals["oracle.series"][0] == 1
    assert totals["oracle.rice_pdf"][0] == totals["specfun.i0e"][0] > 0


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.min_samples(99) == 1000
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    assert stats.percentile(list(range(1, 1001)), 99) == 990
    assert stats.percentile(list(range(100, 0, -1)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)


def test_calibration_scale_is_reference_over_mean_sample():
    cal = stats.Calibrator(lambda: 0)
    cal.samples = [4 * stats.CAL_REF_NS, stats.CAL_REF_NS, 3 * stats.CAL_REF_NS]
    assert cal.scale(1) == pytest.approx(0.5)


def test_each_latency_is_rescaled_by_the_samples_around_it():
    rec = worker.Recorder()
    ref = stats.CAL_REF_NS
    rec.cal.samples = [ref, 3 * ref, 2 * ref]
    rec.lat["op"] = worker.array("q", [100, 100, 100])
    rec.cal_at["op"] = worker.array("l", [0, 0, 1])
    assert list(rec.rescaled("op")) == pytest.approx([50.0, 50.0, 40.0])


def test_point_draws_repeat_for_a_seed_and_differ_across_seeds_and_streams():
    a = inputs.draw_points("point_sweep", 7, 400)
    assert a == inputs.draw_points("point_sweep", 7, 400)
    assert a != inputs.draw_points("point_sweep", 8, 400)
    assert a != inputs.draw_points("bound_sweep", 7, 400)


def test_point_draws_keep_the_regime_mix_exact():
    for seed in range(5):
        pts = inputs.draw_points("point_sweep", seed, 2000)
        assert len(pts) == 2000
        zero = [p for p in pts if p[0] == 0.0]
        rest = [p for p in pts if p[0] > 0.0]
        assert len(zero) == 100
        assert sum(b < a for a, b in rest) == 800
        assert sum(a + inputs.DEEP_LO <= b for a, b in rest) == 400
        assert all(inputs.A_LO <= a <= inputs.A_HI for a, _ in rest)
        assert max(b - a for a, b in pts) <= inputs.DEEP_HI


def test_fixed_inputs_are_seeded_permutations():
    large = inputs.large_points(3)
    assert large == inputs.large_points(3)
    assert sorted(large) == sorted((a, a + d) for a in inputs.LARGE_A for d in inputs.LARGE_B_OFFSETS)
    cmds = inputs.repro_commands(3, "out")
    assert cmds == inputs.repro_commands(3, "out")
    assert len(cmds) == 21 and len({label for label, _, _ in cmds}) == 21
    assert sum(a is not None for _, _, a in cmds) == 11  # tables V-VIII, figures 4-10


def test_tail_series_matches_ncx2_where_ncx2_is_normal():
    np = pytest.importorskip("numpy")
    ncx2 = pytest.importorskip("scipy.stats").ncx2
    a = np.array([1.0, 5.0, 20.0])
    b = a + np.array([20.0, 12.0, 15.0])
    assert run.tail_series(a, b) == pytest.approx(ncx2.sf(b * b, 2, a * a), rel=1e-12)


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    layers = worker._layer_metrics(tr.Tracer(), 1.0, 1.0, 1.0, 0.0, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
