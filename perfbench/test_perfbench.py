"""Tests of the benchmark itself, on tiny inputs.

Workload runs go through ``run.py`` in a subprocess, as the benchmark is
used, so the attribute rebinding of a traced run never touches the test
process.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import workload_cli  # noqa: E402
from be_spectral import cli  # noqa: E402
from be_spectral.spectral import SpectralDecomposition  # noqa: E402
from spans import patched  # noqa: E402

COUNTS = ("autodiff.tape_nodes", "autodiff.matmul_calls", "models.forward_calls",
          *(f"operators.matvec_calls.{r}" for r in catalog.RUNGS),
          "spectral.power_nonconverged", "operators.dense_bytes")


def bench(workload, trace, out, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    cache = {}

    def get(workload):
        if workload not in cache:
            out = tmp_path_factory.mktemp(workload)
            cache[workload] = (out, *bench(workload, 1, out))
        return cache[workload]
    return get


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == catalog.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {k: (unit, better) for k, (unit, better, _) in catalog.PER_LAYER.items()}


ALL_WORKLOADS = sorted({**catalog.WORKLOADS, **catalog.EXTRA_WORKLOADS})


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_smoke_prints_every_metric(workload, tmp_path, traced):
    runs = {0: bench(workload, 0, tmp_path), 1: traced(workload)[1:]}
    for trace, names in ((0, catalog.END_TO_END), (1, catalog.PER_LAYER)):
        stdout, result = runs[trace]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(names)
        for name, spec in names.items():
            assert result["metrics"][name]["unit"] == spec[0]
            assert any(line.split()[:1] == [name] and line.split()[-1] == spec[0]
                       for line in stdout.splitlines()), name
    assert all(runs[0][1]["metrics"][name]["value"] > 0 for name in catalog.END_TO_END)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload, tmp_path, traced):
    out, _, first = traced(workload)
    _, second = bench(workload, 1, tmp_path)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    record = json.loads(next(out.glob("result-*.json")).read_text())
    spans = [json.loads(line) for line in next(out.glob("spans-*.jsonl")).open()]
    if workload == "spectral-cli":
        roots = [s for s in spans if s["name"] == "pass"]
    else:
        roots = [s for s in spans if s["name"] == "epoch" and s["index"] >= 1]
    mean_us = sum(s["end_us"] - s["start_us"] for s in roots) / len(roots)
    assert sum(record["self_ms_per_epoch"].values()) * 1e3 == pytest.approx(mean_us, rel=1e-6)
    # one operation id per train step or CLI command, shared by its spans
    by_id = {s["id"]: s for s in spans}
    ops = [s["op"] for s in spans if s["name"] in ("step", "command")]
    assert ops and len(set(ops)) == len(ops)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["op"] is not None and s["name"] != "evaluate":
            assert s["op"] == parent["op"], s


def test_planted_wrong_eigenvalue_is_a_failed_operation(tmp_path):
    inputs = workload_cli.Inputs(str(tmp_path), seed=5, tiny=True)
    inputs.write()
    inputs.prepare_references()
    clean = workload_cli._summarise(([workload_cli._pass(inputs, None)], None))
    assert clean["failed"] == 0

    def wrong_eig_sym(op, _orig=cli.eig_sym):
        dec = _orig(op)
        vals = dec.eigenvalues.copy()
        vals[-1] *= 1.0 + 1e-6
        return SpectralDecomposition(eigenvalues=vals, eigenvectors=dec.eigenvectors)

    with patched((cli, "eig_sym", wrong_eig_sym)):
        planted = workload_cli._summarise(([workload_cli._pass(inputs, None)], None))
    assert planted["attempted"] == clean["attempted"] == 9
    assert planted["failed"] == len(inputs.spectrum_sizes)
    assert all(p.startswith("spectrum") for p in planted["problems"])
