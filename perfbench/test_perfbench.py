"""Smoke tests of the benchmark itself (under a minute on two cores).

    python3 -m pytest perfbench

Every test drives the real command at ``--smoke`` sizes: every metric
named in ``BENCHMARK.json`` must come out with its unit, the correctness
gate must trip on a result nudged by one ulp, and the command must refuse
to run outside a full checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT):
    """Run the benchmark command; returns ``(returncode, result or None)``."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def test_spec_matches_the_command():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(ledger.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    doc = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
    assert set(doc["end_to_end"]) - {"fail_ratio"} == set(bounds)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    rc, result = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
    assert rc == 0 and result is not None
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["coverage"]["value"] >= 0.95
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_trips_on_a_corrupted_result(workload):
    rc, result = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                       "--smoke", "--corrupt")
    assert rc == 1 and result is not None
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                       cwd=tmp_path)
    assert rc != 0 and result is None


def test_self_time_subtracts_direct_children():
    threads = [[
        ["experiments.run", 0.0, 10.0, ledger.ROOT, "fig9"],
        ["core.run", 1.0, 9.0, 0, [1.5, 2, 64, 4]],
        ["cache.get", 1.0, 2.0, 1, False],
        ["cache.key", 1.0, 1.5, 2, None],
        ["des.env_run", 3.0, 8.0, 1, None],
        ["experiments.run", 20.0, 21.0, ledger.ROOT, "fig2"],  # outside
    ]]
    out = ledger.summarize(threads, (0.0, 10.0), record_experiments=True)
    assert out["experiments.self_s"] == 2.0
    assert out["core.run_self_s"] == 2.0
    assert out["cache.get_s"] == 0.5 and out["cache.key_s"] == 0.5
    assert out["des.env_run_s"] == 5.0
    assert out["experiments.fig9_s"] == 10.0 and out["experiments.fig2_s"] == 0.0
    assert out["attributed_s"] == 10.0
    assert (out["sim.configs"], out["simmpi.bytes"], out["des.rank_steps"]) == (1, 64, 4)


def test_speed_scales_each_gap_by_its_bursts():
    ref = ledger.CAL_REF_S
    bursts = [[0.0, ref], [1.0, 1.0 + ref], [2.0, 2.0 + 2 * ref], [3.0, 3.0 + 2 * ref]]
    speed = ledger.Speed(bursts)
    assert speed.factor[0] == pytest.approx(1.0)
    assert speed.factor[-1] == pytest.approx(0.5)
    # burst time is never counted; each gap at its own speed
    total = sum((bursts[k + 1][0] - bursts[k][1]) * speed.factor[k] for k in range(3))
    assert speed.interval(0.0, 3.0 + 2 * ref) == pytest.approx(total)
    assert speed.point(2.5, 2.6) == pytest.approx(0.05)
    # before the first and after the last burst: the nearest gap's speed
    assert speed.interval(-1.0, 0.0) == pytest.approx(1.0)
    assert speed.interval(3.0 + 2 * ref, 4.0 + 2 * ref) == pytest.approx(0.5)
