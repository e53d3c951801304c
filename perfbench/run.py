#!/usr/bin/env python3
"""Benchmark for be-spectral: mu-ChebNet training and the spectral CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from that
checkout's ``src/`` and nowhere else. Workloads (see ``catalog.py``):
``train-barbell`` and ``spectral-cli``, which ``BENCHMARK.json`` lists, and
``train-sssp``. Each run is one process acting as one closed-loop caller.

``--trace 0`` measures the end-to-end metrics; only the epoch clock is
wrapped. ``--trace 1`` measures half of the time untraced and half with
every layer's entry points wrapped (``spans.py``), and reports the
per-layer metrics plus the tracing overhead, traced minus untraced.

Standard output holds the environment, every metric with its unit, the
self-time breakdown of a traced run and any failed checks; its last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
``metrics`` mapping each name to ``{"value", "unit"}``. ``failed`` counts
failed operations (train steps or CLI commands) out of ``attempted``. The
same result, with the environment, is written to ``--out``, and a traced
run also writes its spans there as JSON lines.

BLAS is held to one thread in every workload process: on a 2-core x86-64
machine with OpenBLAS 0.3.31 the p50 spread of a train epoch was about 3%
at one thread and 17% at two.
"""
import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

import argparse
import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    import catalog

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted({**catalog.WORKLOADS, **catalog.EXTRA_WORKLOADS}))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input for the benchmark's own tests")
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for the result file, spans and scratch inputs")
    return ap.parse_args(argv)


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS)}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "be_spectral" / "__init__.py").is_file():
        print(f"error: no be_spectral package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import be_spectral

    if Path(be_spectral.__file__).resolve().parent != SRC / "be_spectral":
        print(f"error: be_spectral imported from {be_spectral.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import catalog
    import workload_cli
    import workload_train

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tiny = args.size == "tiny"
    trace = bool(args.trace)
    if args.workload == "spectral-cli":
        workdir = tempfile.mkdtemp(prefix="inputs-", dir=out)
        try:
            result = workload_cli.run(args.seed, args.seconds, trace, tiny, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        result = workload_train.run(args.workload, args.seed, args.seconds, trace, tiny)

    summaries = result["summaries"]
    attempted = sum(x["attempted"] for x in summaries)
    failed = sum(x["failed"] for x in summaries)
    problems = [p for x in summaries for p in x["problems"]]
    if trace:
        names = {k: unit for k, (unit, _, _) in catalog.PER_LAYER.items()}
        tracer, roots = result["tracer"], result["roots"]
        values = dict(result["layer"])
        for key in ("setup_s", "epoch_ms.p50", "epochs_per_s"):
            values[f"trace.overhead.{key}"] = result["traced_e2e"][key] - result["e2e"][key]
        total = sum(r.ns for r in roots)
        values["trace.unattributed_share"] = (sum(r.self_ns for r in roots) / total
                                              if total else 0.0)
        values["trace.spans"] = len(tracer.spans)
    else:
        names = {k: unit for k, (unit, _, _) in catalog.END_TO_END.items()}
        values = result["e2e"]
    metrics = {}
    for name, unit in names.items():
        v = float(values.get(name, 0.0))   # layers a workload does not use did no work
        metrics[name] = {"value": v if math.isfinite(v) else 0.0, "unit": unit}
    correct = failed == 0 and attempted > 0 and all(
        math.isfinite(values[k]) for k in names if k in values)

    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"failed_ops": failed / max(attempted, 1), **result["report"]}
    record = {"environment": env, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, "report": report,
              "problems": problems}
    if trace:
        record["self_ms_per_epoch"] = table = tracer.self_times(roots)
        tracer.write(out / f"spans-{tag}.jsonl")
    (out / f"result-{tag}.json").write_text(json.dumps(record, indent=2))

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for name, v in report.items():
        print(f"  {name:34s} {v!s:>14}")
    if trace:
        print("self time per traced epoch, by span and leaf (sums to the epoch):")
        for name, ms in table.items():
            print(f"  {name:34s} {ms:14.4f} ms")
    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
