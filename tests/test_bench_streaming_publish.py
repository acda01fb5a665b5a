"""Smoke test: the streaming-publish benchmark must run and record.

Invokes ``benchmarks/bench_streaming_publish.py --smoke`` as a
subprocess on perfbench's smoke ``churn-publish`` population and asserts
that every patched instance answered like a fresh resolve and that the
phases account for the round.  The smoke run writes to a temporary path
so the committed ``BENCH_streaming_publish.json`` is not overwritten.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _check_side(side):
    assert side["identical"] is True
    assert {"ingest", "materialize", "arena", "hash", "fresh_query", "k_sweep"} <= set(
        side["phases"]
    )
    assert any(name.startswith("patch_tau") for name in side["phases"])
    assert 0.95 <= side["phase_sum_over_total"] <= 1.05


def test_smoke_patched_equals_fresh(tmp_path):
    out_path = tmp_path / "BENCH_streaming_publish.json"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_streaming_publish.py"),
            "--smoke", "--workers", "1", "--rounds", "3", "--out", str(out_path),
        ],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out_path.read_text())
    assert payload["benchmark"] == "streaming_publish"
    assert payload["repeats"] == 3
    _check_side(payload["sides"]["change"])


def test_failed_worker_reports_its_stderr(tmp_path):
    """A worker that dies on its ``src`` names the cause, not just a code."""
    broken = tmp_path / "src" / "repro"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text(
        "raise ImportError('repro is broken on this side')\n"
    )
    spec = importlib.util.spec_from_file_location(
        "bench_streaming_publish", REPO_ROOT / "benchmarks" / "bench_streaming_publish.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with pytest.raises(RuntimeError, match="exited with code 1") as info:
        bench._worker(tmp_path / "src", seed=1, rounds=1, smoke=True)
    assert "ImportError: repro is broken on this side" in str(info.value)


def test_committed_record_is_full_scale():
    payload = json.loads((REPO_ROOT / "BENCH_streaming_publish.json").read_text())
    assert payload["population"]["users"] >= 10000
    assert payload["population"]["moves_per_round"] >= 100
    assert payload["repeats"] >= 10
    assert {"cpu_count", "numpy"} <= set(payload["host"])
    assert set(payload["sides"]) == {"parent", "change"}
    for side in payload["sides"].values():
        _check_side(side)
