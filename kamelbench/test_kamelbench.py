"""Self-tests of the benchmark: ``python3 -m pytest kamelbench -q``.

A smoke run of every workload at tiny size, the metric names' format and
their agreement with ``BENCHMARK.json``, and a check that wrapping the layers for
the traced run leaves outputs unchanged.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from kamelbench import catalog  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "kamelbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_metric_names_are_well_formed():
    names = [name for name, _ in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in catalog.END_TO_END + catalog.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    for name in catalog.WORKLOADS:
        assert NAME.match(name), name


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(catalog.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(catalog.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(catalog.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_smoke_run_reports_every_metric(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in catalog.PER_LAYER]
    assert result["metrics"]["imputation.segments"]["value"] > 0
    printed = {line.split()[0] for line in lines[:-1] if line and not line.startswith(("env", "info", "--"))}
    assert {name for name, _ in catalog.END_TO_END} <= printed


def test_untraced_smoke_reports_end_to_end_metrics():
    done = _run("--workload", "impute-sparse", "--seed", "4", "--seconds", "1", "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in catalog.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "kamelbench", tmp_path / "kamelbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "impute-sparse", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wrapping_layers_does_not_change_outputs():
    from kamelbench import harness
    from kamelbench.layers import PIPELINE_LAYERS, LayerTracer
    from kamelbench.speed import SpeedMeter

    workload = catalog.WORKLOADS["impute-sparse"]
    setup = harness.set_up(workload, 5, 0.5, harness.Sizes.smoke(), SpeedMeter())
    trips = setup.feed[:8]
    plain = [harness.impute(setup.system, t.request) for t in trips]
    tracer = LayerTracer()
    with tracer.installed():
        traced = [harness.impute(setup.system, t.request) for t in trips]
    assert harness.digest(traced) == harness.digest(plain)
    assert [o.trips for o in traced] == [o.trips for o in plain]
    assert tracer.stat("kamel").calls == len(trips)
    assert tracer.stat("constraints").calls == tracer.stat("mlm").calls > 0
    for owner, attr in PIPELINE_LAYERS.values():
        assert not hasattr(owner.__dict__[attr], "__wrapped__")


def test_speed_meter_scales_by_the_samples_around_the_work():
    from kamelbench.speed import REFERENCE_KERNEL_S, SpeedMeter

    meter = SpeedMeter()
    meter.samples = [REFERENCE_KERNEL_S, 3 * REFERENCE_KERNEL_S]
    assert meter.scale(0) == pytest.approx(0.5)  # half speed: a second counts as half
    meter.sample()
    assert len(meter.samples) == 3 and meter.samples[-1] > 0
    assert meter.cpu_s > 0
