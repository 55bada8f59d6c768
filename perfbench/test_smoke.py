"""Smoke test of the benchmark: one small op per workload, through its CLI.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run prints the result line the benchmark contract asks
for, with every metric of BENCHMARK.json under its unit, that the ops
pass their checks, that two traced runs with one seed count the same
work, that the backend agreement check catches a differing backend, and
that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from determinism import mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_and_record(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}-smoke.json"
    return result, json.loads(path.read_text())


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


# disk-refine runs but is not declared in BENCHMARK.json; see README.md
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]] + ["disk-refine"])
def test_smoke_run(workload):
    result, record = result_and_record(workload, 0)
    check_result(result, BENCH["end_to_end"])
    assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])
    assert set(record["environment"]) >= {"python", "numpy", "kernel_backend", "nproc"}

    traced, first = result_and_record(workload, 1)
    check_result(traced, BENCH["per_layer"])
    _, second = result_and_record(workload, 1)
    assert mismatches(first, second) == []


def test_determinism_gate_reports_a_changed_count():
    op = {"index": 0, "inputs": {"tau": 0.5}, "counts": {"kernel.calls_grad": 3}}
    a = {"workload": "race", "seed": 1, "smoke": True, "ops": [op]}
    b = dict(a, ops=[dict(op, counts={"kernel.calls_grad": 4})])
    assert mismatches(a, a) == []
    assert mismatches(a, b) == ["op 0: kernel.calls_grad 3 != 4"]


def test_backend_agreement_flags_a_differing_backend():
    import kernel_curve
    from etau import _kernels, plateau

    mesh = plateau.mesh_disk(plateau.circle_loop(0.7, 0.2, 12), 4)
    areas, degen, grad = _kernels.get_backend("numpy")(0.5, mesh.vertices, mesh.triangles, True)
    same = kernel_curve.agreement_rows("disk", {"a": (areas, degen, grad), "b": (areas, degen, grad)})
    off = kernel_curve.agreement_rows("disk", {"a": (areas, degen, grad), "b": (areas, degen, grad + 1e-6)})
    assert [row["ok"] for row in same + off] == [True, False]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("asymptotic", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
