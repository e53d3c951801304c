"""Every metric the benchmark reports, with its unit, direction and meaning.

``BENCHMARK.json`` lists the same workloads, names, units, directions and
bounds; ``test_perfbench.py`` keeps the two in step. The last field of
each ``PER_LAYER`` entry records which end-to-end metric, on which
workload, a change to that layer should move; ``BENCHMARK.json`` has no
key for it.

An *epoch* is one pass over a workload's inputs: for ``train-*`` every
train step plus the validation ``evaluate`` that ``runner.train_run``
makes; for ``spectral-cli`` one call of each of ``spectrum``, ``diffuse``
and ``filter`` on every size of its ladder (nine commands).

Size rungs: ``small``/``mid``/``large`` are n = 100/200/400 for
``spectrum`` and ``diffuse`` (``eig_sym``) and n = 1000/4000/10000 for
``filter``; ``mid`` is the last dense size below ``DENSE_LIMIT`` and
``large`` uses edge-list storage.
"""
from __future__ import annotations

# the workloads BENCHMARK.json lists
WORKLOADS = {
    "train-barbell": "runner.train_run on the criterion-8 barbell config: "
                     "shared topology, one batched forward per step, time in "
                     "dense batched matmul and its VJP",
    "spectral-cli": "in-process spectrum, diffuse and filter commands on sparse "
                    "random graphs: eig_sym, power iteration, matvec, file I/O",
}
# Runs by name but is not in BENCHMARK.json: over ten seeds its epoch
# median spread 20-31% (interquartile range over median), too close to
# the largest bound the benchmark may set, while train-barbell spread
# 11-16% and spectral-cli 8-13% over the same periods.
EXTRA_WORKLOADS = {
    "train-sssp": "runner.train_run on the criterion-10 sssp config: 224 "
                  "variable-size graphs, one forward per graph, time in Python "
                  "and tape overhead",
}

# name: (unit, better, bound). The timing bounds are wide because the
# machine they were set on (2 cores of a shared x86-64 host) drifts: a
# fixed pure-Python loop ranged over 34-68 ms within one minute, and the
# epoch medians of ten runs of one workload spread 4-15% (interquartile
# range over median).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "epoch_ms.p50": ("ms", "lower", 0.25),
    "epochs_per_s": ("1/s", "higher", 0.25),
    # peak RSS on train-barbell is 961 MB in most runs and 1061 MB in some,
    # for the same seed, so its bound must exceed that 10% gap
    "peak_rss_mb": ("MB", "lower", 0.15),
}

RUNGS = ("small", "mid", "large")

# name: (unit, better, moves)
PER_LAYER = {
    "runner.build_dataset_s": ("s", "lower", "setup_s on train-sssp"),
    "runner.evaluate_ms": ("ms", "lower", "epoch_ms.p50 on train-sssp and train-barbell"),
    "runner.epoch_ms.p90": ("ms", "lower", "epoch_ms.p50 on train-*; the tail of the same samples"),
    "runner.epoch_samples": ("count", "higher", "sample count behind runner.epoch_ms.p90"),
    "runner.test_loss": ("mse", "lower", "no timing; moves when a change alters learning"),
    "models.forward_ms": ("ms", "lower", "epoch_ms.p50 on both train-*"),
    "models.forward_calls": ("count", "lower", "epoch_ms.p50 on train-sssp (32 per step; 1 on train-barbell)"),
    "models.mu_gcn_ms": ("ms", "lower", "epoch_ms.p50 on train-barbell"),
    "models.operator_ms": ("ms", "lower", "epoch_ms.p50 on train-barbell"),
    "models.loss_ms": ("ms", "lower", "epoch_ms.p50 on train-sssp"),
    "models.context_hit_ratio": ("ratio", "higher", "epoch_ms.p50 on train-sssp"),
    "autodiff.backward_ms": ("ms", "lower", "epoch_ms.p50 on train-barbell"),
    "autodiff.tape_nodes": ("count", "lower", "epoch_ms.p50 on train-sssp"),
    "autodiff.matmul_calls": ("count", "lower", "epoch_ms.p50 on train-sssp"),
    "autodiff.matmul_fwd_ms": ("ms", "lower", "epoch_ms.p50 on train-sssp"),
    "autodiff.adam_ms": ("ms", "lower", "epoch_ms.p50 on train-sssp"),
    **{f"spectral.eig_sym_ms.{r}": ("ms", "lower", "cli.spectrum_s and cli.diffuse_s, "
                                    "so epoch_ms.p50 on spectral-cli; no change on train-*")
       for r in RUNGS},
    **{f"spectral.lambda_max_ms.{r}": ("ms", "lower", "cli.filter_s, so epoch_ms.p50 on spectral-cli")
       for r in RUNGS},
    **{f"operators.matvec_calls.{r}": ("count", "lower", "cli.filter_s on spectral-cli")
       for r in RUNGS},
    "spectral.power_nonconverged": ("count", "lower", "cli.filter_s on spectral-cli"),
    "operators.matvec_ms.dense": ("ms", "lower", "cli.filter_s on spectral-cli"),
    "operators.matvec_ms.edges": ("ms", "lower", "cli.filter_s on spectral-cli"),
    "operators.dense_bytes": ("bytes", "lower", "cli.filter_s and peak_rss_mb on spectral-cli"),
    **{f"chebyshev.cheb_apply_ms.{r}": ("ms", "lower", "cli.filter_s on spectral-cli")
       for r in RUNGS},
    "be.build_be_ms": ("ms", "lower", "cli.diffuse_s on spectral-cli"),
    "be.heat_flow_ms": ("ms", "lower", "cli.diffuse_s on spectral-cli"),
    "fileio.read_ms": ("ms", "lower", "all cli.* on spectral-cli"),
    "fileio.write_ms": ("ms", "lower", "all cli.* on spectral-cli"),
    "fileio.bytes_written": ("bytes", "lower", "all cli.* on spectral-cli"),
    "cli.spectrum_s": ("s", "lower", "epoch_ms.p50 on spectral-cli"),
    "cli.diffuse_s": ("s", "lower", "epoch_ms.p50 on spectral-cli"),
    "cli.filter_s": ("s", "lower", "epoch_ms.p50 on spectral-cli"),
    "trace.overhead.setup_s": ("s", "lower", "tracing cost on setup_s"),
    "trace.overhead.epoch_ms.p50": ("ms", "lower", "tracing cost on epoch_ms.p50"),
    "trace.overhead.epochs_per_s": ("1/s", "higher", "tracing cost on epochs_per_s"),
    "trace.unattributed_share": ("ratio", "lower", "share of traced epoch time outside any child span"),
    "trace.spans": ("count", "lower", "spans kept by the traced half"),
}
