"""Smoke test of the benchmark itself at a tiny size (64x64, 2 scenes).

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--resolution", "64", "--scenes", "2", "--seconds", "0.5", "--seed", "5"]


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)


def test_one_command_prints_every_metric_with_its_unit():
    proc = _run(*TINY)
    assert proc.returncode == 0, proc.stderr
    sections = proc.stdout.split("\n== ")[1:]
    bench = _bench()
    assert [s.split(":")[0] for s in sections] == [w["name"] for w in bench["workloads"]]
    for section in sections:
        printed = {}
        for line in section.splitlines()[1:]:
            name, value, unit = line.split()
            printed[name] = (float(value), unit)
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert printed[metric["name"]][1] == metric["unit"], (section, metric)
        assert printed["fail_frac"] == (0.0, "frac")
        assert printed["traced.fail_frac"] == (0.0, "frac")
        assert printed["trace_overhead"][1] == "%"
        if section.startswith("train-loss"):
            assert printed["op_p90_ms"][1] == "ms"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_single_workload_result_line(trace):
    proc = _run("--workload", "eval", "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = _bench()["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed
    }


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
