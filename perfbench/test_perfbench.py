"""Tests of the benchmark itself, at the seconds-long ``tiny`` scale.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cmil import bagio, evaluation, trainer  # noqa: E402

NAMES = [w["name"] for w in run.SPEC["workloads"]]


def _run(workload, trace, seed=0):
    return run.run(workload, seed, 0.3, trace, scale=workloads.TINY)


def test_benchmark_json_is_well_formed():
    doc = run.SPEC
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert set(NAMES) == set(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= doc["run_seconds"] <= 60


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result, lines, tracer = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    defs = run.SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in defs}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_line_prints_result_last(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    assert run.main(["--workload", "eval-pca", "--seed", "2", "--seconds", "0.3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert any(line.startswith("eval_s ") for line in lines)
    assert any(line.startswith("error_rate 0.000000 ") for line in lines)


def test_blas_is_pinned_to_one_thread():
    code = "import json, run; print(json.dumps(run.environment()))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, cwd=HERE, env=env)
    env = json.loads(out.stdout)
    assert env["blas_threads_env"] == "1"
    assert env["blas_threads"] == 1


def test_same_seed_same_inputs(tmp_path):
    wl = workloads.WORKLOADS["eval-pca"]

    def digest(seed, name):
        fixture = wl.fixture(seed, workloads.TINY, tmp_path / name / "fixture")
        wl.setup(fixture, seed, workloads.TINY, tmp_path / name / "setup")
        return bagio.content_hash(p for p in (tmp_path / name).rglob("*") if p.is_file())

    first = digest(5, "a")
    assert digest(5, "b") == first
    assert digest(6, "c") != first


@pytest.mark.parametrize("corrupt, problem", [
    (lambda pred: setattr(pred, "prob_concept", pred.prob_concept + 1e-9), "additive identity"),
    (lambda pred: setattr(pred, "hard_indices", pred.hard_indices[:-1]), "hard indices"),
])
def test_corrupted_prediction_counts_as_failed(monkeypatch, corrupt, problem):
    original = evaluation.predict

    def corrupted(bag, model, **kwargs):
        pred = original(bag, model, **kwargs)
        corrupt(pred)
        return pred

    monkeypatch.setattr(evaluation, "predict", corrupted)
    result, lines, _ = _run("eval-pca", False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any(problem in line for line in lines)
    assert any(line.startswith("error_rate 1.0") for line in lines)


def test_quality_floors_catch_a_mismatched_model():
    assert workloads._below_floors(0.42, 0.5) != []
    assert workloads._below_floors(1.0, 1.0) == []


def test_spans_nest_and_partition_op_time():
    result, _, tracer = _run("eval-tsne", True)
    assert result["correct"] is True
    spans.check_nesting(tracer.spans)
    self_ns = spans.self_times(tracer.spans)
    assert min(self_ns) >= 0
    roots = [i for i, s in enumerate(tracer.spans) if s.name == spans.OP_ROOT]
    assert roots
    for i in roots:
        root = tracer.spans[i]
        inside = sum(ns for s, ns in zip(tracer.spans, self_ns) if s.op == root.op)
        assert inside == root.end - root.start
    names = {s.name for s in tracer.spans}
    assert {"embed2d.project_2d", "embed2d.calibrate", "metrics.silhouette",
            "trainer.predict", "bagio.read_bag"} <= names


def test_check_nesting_rejects_overlap():
    bad = [spans.Span("op0", "a", 0, 10, -1), spans.Span("op0", "b", 5, 20, 0)]
    with pytest.raises(ValueError):
        spans.check_nesting(bad)


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "WRAPS", spans.WRAPS + (
        spans.Wrap("cmil.trainer", "no_such_entry_point", "gone.layer"),
        spans.Wrap("cmil.no_such_module", "f", "gone.module")))
    before = trainer.image_forward
    tracer = spans.Tracer()
    tracer.install()
    assert trainer.image_forward is not before
    tracer.uninstall()
    assert trainer.image_forward is before
    assert tracer.absent == ["gone.layer", "gone.module"]
