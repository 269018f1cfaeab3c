"""Fast self-test of the benchmark at toy sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit on every workload, that a corrupted reference output turns every op
that reads it into a failed op, that self time excludes child spans, and
that run.py refuses a directory without the entfarm sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, *extra, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def test_benchmark_json_names_what_run_py_measures():
    import run

    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[workload].kinds["tiny"])
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert "failed_frac 0 frac" in done.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_corrupted_reference_is_a_failed_op(tmp_path):
    reference = tmp_path / "reference"
    shutil.copytree(BENCH / "reference", reference)
    corrupted = 0
    for path in (reference / "tiny" / "run-cycles").glob("*/trajectory.csv"):
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-6))  # log_negativity, cycle 2
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        corrupted += 1
    assert corrupted == 2  # both log bases
    done = _run("trajectory", 0, "--reference", str(reference))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "trajectory.csv:3:log_negativity" in done.stdout


def test_self_time_excludes_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 6.0, 0],
    ]
    calls, self_s = tracer.self_times(spans)
    assert calls == {"root": 1, "child": 2, "grandchild": 1}
    assert self_s["root"] == pytest.approx(6.0)
    assert self_s["child"] == pytest.approx(3.0)
    assert self_s["grandchild"] == pytest.approx(1.0)


def test_run_py_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("trajectory", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
