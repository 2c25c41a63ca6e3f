"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from demchar import formulas, onedsums, qring, weights  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The cheapest operations of each workload, for smoke passes.
SMOKE = {
    "verify-formulas": lambda op: op["type"] in ("B1", "A2even"),
    "stringfn": lambda op: (op["type"], op["rank"]) in (("D2", 2), ("A1", 1)),
    "character": lambda op: op["type"] in ("D2", "A2odd"),
    "restricted": lambda op: op["op"] == "kostka" or op.get("j") == 1,
}


def smoke_ops(workload: str) -> list[dict]:
    return [op for op in workloads.operations(workload, 7) if SMOKE[workload](op)]


def units(result: dict) -> dict[str, str]:
    return {name: value["unit"] for name, value in result["metrics"].items()}


def test_same_seed_gives_same_operations():
    for workload in workloads.WORKLOADS:
        assert workloads.operations(workload, 3) == workloads.operations(workload, 3)


def test_other_seed_gives_other_restricted_mix():
    first = workloads.operations("restricted", 1)
    second = workloads.operations("restricted", 2)
    key = lambda op: json.dumps(op, sort_keys=True)  # noqa: E731
    assert sorted(map(key, first)) != sorted(map(key, second))
    assert len(first) == len(second)


def test_no_operation_passes_threads():
    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload, 0):
            assert "--threads" not in op.get("argv", [])


def test_metric_names_are_valid_and_match_benchmark_json():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    layers = set(tracer.layer_metrics({"self_s": {}, "counts": {}}, {"self_s": {}}, 1.0))
    assert layers | {"trace.overhead"} == {m["name"] for m in SPEC["per_layer"]}
    assert set(tracer.TARGETS) == {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_plain_and_traced_agree(workload):
    ops = smoke_ops(workload)
    order = list(range(len(ops)))
    _, plain = run.run_pass(ops, order, "plain")
    _, traced = run.run_pass(ops, order[::-1], "trace")
    assert plain["statuses"] == traced["statuses"]
    assert set(plain["statuses"]) <= {"ok", "guard"}
    assert plain["digests"] == traced["digests"]
    result, _ = run.summarize({"plain": [plain]}, [(0.1, 0.1)])
    assert result["correct"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result, _ = run.summarize({"plain": [plain], "trace": [traced]}, [])
    assert result["correct"], result["metrics"]["trace.coverage"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}



def test_guard_trip_is_a_failure_but_not_wrong():
    op = {"op": "x", "type": "B1", "rank": 3, "b": "1", "xi": [0, 1, 0, 0], "eta": [0, 0, 0, 1], "j": 2}
    [call] = workloads.setup([op])
    status, _ = workloads.check(op, workloads.execute(op, call))
    assert status == "guard"


def test_disagreeing_routes_are_a_mismatch():
    op = {"op": "x"}
    assert workloads.check(op, (qring.ONE, qring.ZERO, None))[0] == "mismatch"
    assert workloads.check(op, (qring.ONE, qring.ONE, qring.ZERO))[0] == "mismatch"
    kostka = {"op": "kostka", "shape": [2, 1], "j": 3}
    assert workloads.check(kostka, qring.LaurentPoly.from_terms([(1, 1)]))[0] == "mismatch"
    stringfn = {"op": "cli", "argv": ["stringfn"], "expect": 2}
    out = json.dumps({"M": 3, "coefficients": [1, 2, 5, 11]}).encode()
    assert workloads.check(stringfn, (0, out))[0] == "mismatch"


def test_tracer_patches_every_binding_and_restores_it():
    originals = (onedsums.g_recursive, formulas.g_recursive, qring.LaurentPoly.__add__,
                 qring.LaurentPoly.__rmul__, weights.Weight.__sub__)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert formulas.g_recursive is onedsums.g_recursive is not originals[0]
        assert qring.LaurentPoly.__rmul__ is qring.LaurentPoly.__mul__ is not originals[3]
        crystal = workloads.crystals.perfect_crystal("A1", 1)
        zero = weights.Weight.zero(2)
        assert formulas.g_recursive(crystal, "0", zero, 2) == originals[0](crystal, "0", zero, 2)
    finally:
        trace.uninstall()
    assert (onedsums.g_recursive, formulas.g_recursive, qring.LaurentPoly.__add__,
            qring.LaurentPoly.__rmul__, weights.Weight.__sub__) == originals
    assert trace.counts["onedsums.g_recursive.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "restricted", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
