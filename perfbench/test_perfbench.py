"""Self-checks of the benchmark: seeded inputs, output checks, tracing."""

import importlib
import json

import pytest

import layers
import run
import workloads

cli = importlib.import_module("rncca.cli")
verify = importlib.import_module("rncca.verify")


@pytest.fixture
def built(tmp_path):
    def build(workload, seed=0):
        ops, files = workloads.build(workload, seed, tmp_path)
        workloads.write_inputs(tmp_path, files)
        return ops, files

    return build


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 5, tmp_path)[1]
        assert workloads.build(workload, 5, tmp_path)[1] == first
        assert workloads.build(workload, 6, tmp_path)[1] != first


def test_correct_outputs_pass(built):
    ops = built("long-run")[0][:1] + built("short-runs")[0][:1]
    durations, failures, _ = run.run_ops(cli, ops, count=2)
    assert len(durations) == 2
    assert failures == []


def test_corrupted_diagram_counts_as_failed(built, monkeypatch):
    ops = built("long-run")[0][:1]
    render = cli.render
    monkeypatch.setattr(cli, "render", lambda trajectory, spec: render(trajectory, spec).replace("1", "2", 1))
    _, failures, _ = run.run_ops(cli, ops, count=1)
    assert len(failures) == 1
    assert "sha256" in failures[0]


def test_corrupted_report_counts_as_failed(built, monkeypatch):
    ops = built("short-runs")[0][:1]
    format_report = verify.format_report
    monkeypatch.setattr(
        verify, "format_report", lambda report: format_report(report).replace("passed=true", "passed=false")
    )
    _, failures, _ = run.run_ops(cli, ops, count=1)
    assert len(failures) == 1
    assert "passed" in failures[0]


def test_tracer_spans_and_restores_bindings(built):
    ops = built("short-runs")[0][:1]
    convert = verify.convert
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert verify.convert is not convert
        _, failures, _ = run.run_ops(cli, ops, count=1)
    finally:
        tracer.uninstall()
    assert failures == []
    assert verify.convert is convert
    totals, _ = layers.span_totals(tracer)
    assert totals["cli.main"]["calls"] == 1
    assert totals["verify.check_simulation_correspondence"]["work"] == 4**3
    assert totals["engine.step"]["calls"] > 0


def test_metric_names_match_benchmark_json(built, monkeypatch, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ops, files = built("short-runs")
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "TRACE_CYCLES", {"short-runs": 1})
    monkeypatch.setattr(run, "OUT", tmp_path)
    metrics = run.measure(cli, ops[:1], seconds=0)[0]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v[1]) for k, v in metrics.items()]
    metrics, samples, attempted, failures = run.measure_traced(cli, ops[:2], files, "short-runs", 0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, v[1]) for k, v in metrics.items()]
    assert (attempted, samples["traced_ops"], failures) == (4, 2, [])
    assert (tmp_path / "spans" / "short-runs-seed0.npz").is_file()
