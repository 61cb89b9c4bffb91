"""Fast self-test of the benchmark at minimal size (one trial per profile).

    python3 -m pytest benchmarks/test_selftest.py -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _printed_result(record: dict) -> dict:
    result = json.loads(run.emit(record).splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.BENCHMARKED)
    assert set(workloads.BENCHMARKED) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    record = run.run(workload, 1, 0, trace=False, tiny=True)
    printed = _printed_result(record)["metrics"]
    assert {k: v["unit"] for k, v in printed.items()} == _units("end_to_end")
    for name, metric in printed.items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_layers_and_sound_spans(workload):
    record = run.run(workload, 1, 0, trace=True, tiny=True)
    printed = _printed_result(record)["metrics"]
    assert {k: v["unit"] for k, v in printed.items()} == _units("per_layer")
    assert all(math.isfinite(m["value"]) and m["value"] >= 0
               for m in printed.values())
    assert printed["trace.overhead_ratio"]["value"] > 0
    assert printed["lapack.eigh.calls"]["value"] > 0
    with np.load(run.OUT / f"{workload}-spans.npz") as saved:
        arr = {k: saved[k] for k in ("start", "end", "parent", "self")}
    assert len(arr["start"]) == record["spans"] > 0
    assert tracing.check_spans(arr, record["traced_wall_s"]) == []


def test_span_check_catches_a_child_outside_its_parent():
    arr = {"start": np.array([0.0, 0.5]), "end": np.array([1.0, 1.5]),
           "parent": np.array([-1, 0]), "self": np.array([0.5, 1.0])}
    assert tracing.check_spans(arr, 2.0)


def test_span_check_catches_self_time_beyond_wall():
    arr = {"start": np.array([0.0]), "end": np.array([1.0]),
           "parent": np.array([-1]), "self": np.array([1.0])}
    assert tracing.check_spans(arr, 0.5)


def _run(cmd) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = importlib.import_module("nclp.cli").main(cmd.argv)
    return rc, out.getvalue()


def test_suite_check_flags_a_changed_report(tmp_path):
    run._import_nclp()
    wl = workloads.make("small_suites", 1, tmp_path, tiny=True)
    cmd = wl.commands()[0]
    assert cmd.check(*_run(cmd)) == 0
    rc, out = _run(cmd)
    path = Path(cmd.argv[cmd.argv.index("--out") + 1])
    path.write_bytes(path.read_bytes().replace(b'"passed": true',
                                               b'"passed": false', 1))
    assert cmd.check(rc, out) == cmd.items
    assert cmd.check(*_run(cmd)) == 0


def test_file_call_checks_flag_a_wrong_value(tmp_path):
    run._import_nclp()
    wl = workloads.make("file_calls", 1, tmp_path)
    for cmd in wl.commands()[:9]:
        rc, out = _run(cmd)
        assert cmd.check(rc, out) == 0, cmd.argv
        if cmd.label == "tensor":
            _run(cmd)
            path = Path(cmd.argv[-1])
            path.write_text(path.read_text().replace("1", "2", 1))
            assert cmd.check(rc, out) == 1
        elif "--json" in cmd.argv:
            doc = json.loads(out)
            doc["results"]["D"]["value"] = 0.5
            assert cmd.check(rc, json.dumps(doc)) == 1
        else:
            assert cmd.check(rc, out.replace("=", "=1", 1)) == 1
        assert cmd.check(1, out) == 1


def test_file_pool_depends_only_on_the_seed(tmp_path):
    def pool(seed, sub):
        workloads.make("file_calls", seed, tmp_path / sub)
        return {p.name: p.read_bytes()
                for p in sorted((tmp_path / sub / "pool").iterdir())}

    assert pool(3, "a") == pool(3, "b")
    assert pool(3, "a") != pool(4, "c")


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (HERE.parent / "BENCHMARK.json").read_text())
    bench = tmp_path / HERE.name
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "file_calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
