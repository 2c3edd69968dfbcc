"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run as perfbench
import spans
from cairoreg.bench import BenchConfig, result_to_dict, run_bench

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3


def _tiny(name: str) -> perfbench.Workload:
    wl = perfbench.WORKLOADS[name]
    return replace(
        wl,
        n=1000,
        epochs=1,
        score_rows=wl.score_rows and 3000,
        bench=perfbench.PROBE_BENCH,
        setups=2,
        min_rounds=1,
    )


def _run(name: str, trace: bool, tmp_path: Path) -> dict:
    return perfbench.run_workload(name, SEED, 0, trace, wl=_tiny(name), work_root=tmp_path)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(perfbench.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert _units("end_to_end") == perfbench.END_TO_END_UNITS


@pytest.mark.parametrize("name", list(perfbench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    result = _run(name, trace, tmp_path)["result"]
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 7
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_traced_run_restores_the_package(tmp_path):
    originals = [
        (module, attr, getattr(module, attr))
        for sites in spans.WRAPPED.values()
        for module, attr in sites
    ]
    _run("fit-heavy-b256", True, tmp_path)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)


def test_same_seed_repeats_quality_and_model_bundles(tmp_path):
    first, second = (_run("fit-heavy-b256", False, tmp_path) for _ in range(2))
    quality = [
        {k: m["value"] for k, m in out["result"]["metrics"].items() if k.startswith("heldout_")}
        for out in (first, second)
    ]
    assert quality[0] == quality[1]
    assert first["details"]["bundle_sha256"] == second["details"]["bundle_sha256"]
    assert len(first["details"]["bundle_sha256"]) == 4


def test_run_bench_report_does_not_depend_on_worker_count():
    cfg = BenchConfig(d=perfbench.D, repetitions=1, base_seed=SEED, **perfbench.PROBE_BENCH)
    serial = result_to_dict(run_bench(cfg, max_workers=1))
    pooled = result_to_dict(run_bench(cfg, max_workers=perfbench.nproc()))
    assert serial == pooled


def test_fails_without_result_when_package_source_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bench-rep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
