"""The benchmark's own tests, in smoke mode (coarse h).

Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from tracing import ENTRY_POINTS, LAYER_METRICS, Tracer
from workloads import WORKLOADS, gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def svplab():
    return bench.import_svplab()


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_workload(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[workload].ops)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_match_benchmark_json():
    timed = [WORKLOADS[w["name"]] for w in SPEC["workloads"]]
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in timed]
    assert SPEC["per_layer"] == [{"name": name, "unit": unit, "better": better}
                                 for name, (unit, better, _, _) in LAYER_METRICS.items()]


def test_gate_rejects_corrupted_svp(svplab, tmp_path):
    op = WORKLOADS["layer-p2-refine"].ops[0]
    config = svplab.parse_config(op.render(smoke=True, refine="false", corrupt="0.2"))
    result = svplab.runner.run(config, out_dir=str(tmp_path), seed=0)
    assert result.exit_code == 1
    _, errors = gate(op, result.exit_code, result.report, oracle_tol=1.0)
    assert any("exit code 1" in e for e in errors)
    assert any("checks entry" in e for e in errors)


def test_gate_accepts_uncorrupted_svp(svplab, tmp_path):
    op = WORKLOADS["layer-p2-refine"].ops[0]
    config = svplab.parse_config(op.render(smoke=True))
    result = svplab.runner.run(config, out_dir=str(tmp_path), seed=0)
    _, errors = gate(op, result.exit_code, result.report,
                     WORKLOADS["layer-p2-refine"].smoke_oracle_tol)
    assert errors == []


def test_tracer_rebinds_names_imported_from_other_modules(svplab):
    originals = {
        (mod, name): getattr(getattr(svplab, mod), name)
        for mod, name in [("runner", "cutoff_bound"), ("runner", "solve"),
                          ("asymptotics", "energy"), ("asymptotics", "frequency_profile"),
                          ("energetics", "optimal_constant"), ("zones", "energy"),
                          ("zones", "optimal_constant"), ("frequency", "optimal_constant")]
    }
    with Tracer():
        for (mod, name), orig in originals.items():
            wrapped = getattr(getattr(svplab, mod), name)
            assert wrapped is not orig and wrapped.__wrapped__ is orig
    for (mod, name), orig in originals.items():
        assert getattr(getattr(svplab, mod), name) is orig


def test_self_times_account_for_nested_spans(svplab):
    op = WORKLOADS["solve-sweep"].ops[2]
    config = svplab.parse_config(op.render(smoke=True))
    tracer = Tracer()
    with tracer:
        svplab.runner.run(config, out_dir=str(ROOT / ".perfbench_out" / "selftest"), seed=0)
    shutil.rmtree(ROOT / ".perfbench_out" / "selftest", ignore_errors=True)
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in top] == ["run"]
    total_self = sum(s.self_time for s in tracer.spans)
    assert total_self == pytest.approx(top[0].duration, rel=1e-9)
    assert tracer.counts["solver.solves"] == 1


def test_workloads_together_reach_every_entry_point():
    listed = {f"{layer}.{name}" for layer, names in ENTRY_POINTS.items() for name in names}
    groups = {g for w in WORKLOADS.values() for g in w.reaches}
    covered = {name for g in groups for name in g.split("|")}
    assert covered == listed


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "solve-sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
