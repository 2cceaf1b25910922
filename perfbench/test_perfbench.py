"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_reduced(monkeypatch, capsys, workload, trace, seed=3):
    monkeypatch.setitem(run.WORKLOADS, workload, worker.reduced(run.WORKLOADS[workload]))
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_reduced_workload_prints_every_metric(monkeypatch, capsys, workload, trace):
    result = run_reduced(monkeypatch, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_counts_repeat_exactly(monkeypatch, capsys):
    counts = []
    for _ in range(2):
        metrics = run_reduced(monkeypatch, capsys, "pipeline_small", 1)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["model.train.calls"] == 46  # 45 CV trainings + train


@pytest.fixture(scope="module")
def reduced_outputs(tmp_path_factory):
    """One reduced pipeline_small chain, run in process."""
    sys.path.insert(0, str(worker.SRC))
    from tonaltension import cli, model
    spec = worker.reduced(run.WORKLOADS["pipeline_small"])
    dirs = worker.Dirs(tmp_path_factory.mktemp("bench"))
    check, ops = worker.OutputCheck(), worker.Ops()
    worker.run_setup(cli, model, spec, 5, dirs, check)
    worker.run_chain(cli, model, spec, 5, dirs, check, ops)
    assert (ops.attempted, ops.failed) == (len(worker.chain_commands(spec, 5, dirs)), 0)
    return model, spec, dirs, check


def _corrupt_features(path):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[-1] = "nan\n"
    lines[-1] = ",".join(cells)
    path.write_text("".join(lines))


def _nan_parameter(path):
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("tensor "))
    parts = lines[i].split(" ")
    parts[3] = "nan"
    lines[i] = " ".join(parts)
    path.write_text("".join(lines))


def _drop_last_row(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


@pytest.mark.parametrize("command, corrupt, expected", [
    ("extract", lambda d: _corrupt_features(d / "piece004.features.csv"), "not finite"),
    ("extract", lambda d: _drop_last_row(d / "piece004.targets.csv"), "rows but"),
    ("sensitivity", lambda d: _drop_last_row(d / "sensitivity.csv"), "expected"),
    ("train", lambda d: _nan_parameter(d / "model.txt"), "non-finite parameter"),
])
def test_corrupted_output_is_a_failed_op(reduced_outputs, tmp_path, command, corrupt,
                                         expected):
    model, spec, dirs, check = reduced_outputs
    argv = next(a for a in reversed(worker.chain_commands(spec, 5, dirs))
                if a[0] == command)
    source = Path(worker._flag(argv, "--out-dir"))
    copy = tmp_path / source.name
    shutil.copytree(source, copy)
    corrupt(copy)
    argv = [str(copy) if a == str(source) else a for a in argv]
    for checker in (worker.OutputCheck(), check):  # content only; then digests too
        ops = worker.Ops()
        ops.record(argv, checker.check(argv, model))
        assert (ops.attempted, ops.failed) == (1, 1)
        assert any(expected in p for p in ops.problems), ops.problems
    assert any("not byte-identical" in p for p in ops.problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:]
        + ["--workload", "fit_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
