"""The runner prints every metric that BENCHMARK.json names, refuses to
run without the program, and the tracer survives a missing name."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload, trace, section", [
    ("stage2-cli", "0", "end_to_end"),
    ("stage1-lp", "1", "per_layer"),
])
def test_runner_prints_every_named_metric(workload, trace, section):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    for name in named:  # the report above the JSON line gives each sample count
        assert any(line.startswith(name + " ") and " n=" in line
                   for line in proc.stdout.splitlines()), name


def test_runner_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "stage2-cli", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_tracer_reports_absent_names_and_self_time(monkeypatch):
    import seisrate.model as model

    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + (
        ("seisrate.model", "no_such_function", tracer._fixed("x"), None),
        ("seisrate.no_such_module", "f", tracer._fixed("y"), None),
    ))
    rec = tracer.Tracer()
    rec.install()
    try:
        model.generate_gateways(3, 0)
    finally:
        rec.uninstall()
    assert rec.absent == ["seisrate.model.no_such_function", "seisrate.no_such_module.f"]
    assert [s[tracer.NAME] for s in rec.spans] == ["model.generate"]
    assert not hasattr(model.generate_gateways, "__wrapped__")


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, None, None, 0, {}],
             ["b", 1.0, 4.0, 0, None, 0, {}],
             ["c", 2.0, 3.0, 1, None, 0, {}],
             ["b", 5.0, 6.0, 0, None, 0, {}]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
