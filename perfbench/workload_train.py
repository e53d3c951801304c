"""Training workloads: ``runner.train_run`` on the acceptance configs.

One process is one closed-loop caller: it calls ``train_run`` for one
seed with a fixed epoch budget (patience equal to the budget, so every
run makes exactly that many epochs), waits for it to return, and calls
it again until the measuring time is used. The dataset comes from the
config's own ``data_seed``; ``--seed`` is the training seed, which draws
the initial weights and the batch order.

Set-up (``runner.build_dataset`` plus model construction) is timed on its
own, before the loop and again after every ``train_run``, and then served
from memory: ``runner.build_dataset`` is rebound to return the prepared
data, so no epoch pays for it again. Epoch
boundaries are observed from outside, at the return of the validation
``runner.evaluate`` that ends each epoch. Epoch 0 of every run is left
out of the epoch samples; it pays for model construction and, on the
first run, for filling the ``context_for`` cache.

Peak RSS is read when the first ``train_run`` of the fresh process
returns: that is what one training call costs. Later calls raise it
further by amounts that depend on when the cyclic garbage collector runs
(on ``train-barbell`` about 0.8 GB after one call, 1.4 to 1.5 GB after
several), so it is not read again.
"""
from __future__ import annotations

import math
import resource
import statistics
import time

import numpy as np

from be_spectral import autodiff, models, runner
from spans import Tracer, patched

# Criterion 8 (barbell, learned mu) and criterion 10 (sssp) of
# tests/test_acceptance.py, with their epoch and patience settings
# replaced by the benchmark's budget.
BARBELL_MU_CONFIG = {
    "task": {"name": "barbell", "n": 50, "k_path": 4, "counts": [96, 24, 32],
             "data_seed": 7},
    "model": {"layers": 2, "K": 9, "hidden": 16},
    "optim": {"lr": 0.01, "weight_decay": 1e-5},
}
SSSP_CONFIG = {
    "task": {"name": "graph-property", "property": "sssp", "n_range": [15, 25],
             "counts": [128, 32, 64], "data_seed": 13},
    "model": {"layers": 2, "K": 6, "hidden": 16},
    "optim": {"lr": 0.01, "weight_decay": 1e-5},
    "batch_size": 32,
}
# epochs per train_run: long enough that the loss has clearly fallen,
# short enough that several runs fit in one measurement
CONFIGS = {
    "train-barbell": (BARBELL_MU_CONFIG, 50),
    "train-sssp": (SSSP_CONFIG, 20),
}
TINY_TASKS = {
    "train-barbell": {"name": "barbell", "n": 14, "k_path": 4,
                      "counts": [8, 4, 4], "data_seed": 7},
    "train-sssp": {"name": "graph-property", "property": "sssp",
                   "n_range": [6, 9], "counts": [8, 4, 4], "data_seed": 13},
}
TINY_EPOCHS = 4
# set-ups before the loop; one more follows every train_run, so that the
# median of set_up_s samples the machine over the whole run, as the epochs do
SETUP_REPEATS = 3
OPERATOR_PRIMITIVES = ("edge_weights", "node_sums", "scatter_sym_dense", "diag_embed")


def run_config(workload: str, tiny: bool) -> runner.RunConfig:
    base, epochs = CONFIGS[workload]
    cfg = dict(base)
    if tiny:
        cfg["task"] = TINY_TASKS[workload]
        cfg["batch_size"] = 4 if base.get("batch_size") else None
        epochs = TINY_EPOCHS
    cfg["epochs"] = epochs
    cfg["patience"] = epochs
    return runner.RunConfig.from_dict(cfg)


def _build(cfg: runner.RunConfig, seed: int):
    data = runner.build_dataset(cfg.task)
    mcfg = models.ModelConfig.from_dict(cfg.model)
    mcfg.out_dim, mcfg.readout = data.out_dim, data.readout
    models.MuChebNet(data.in_dim, mcfg, seed=seed)
    return data


def set_up(cfg, seed, repeats, tracer=None):
    """Time ``repeats`` set-ups; returns (seconds per set-up, data)."""
    times, data = [], None
    binding = []
    if tracer is not None:
        binding = [(runner, "build_dataset",
                    tracer.span("build_dataset", runner.build_dataset, new_op=True))]
    with patched(*binding):
        for _ in range(repeats):
            t = time.perf_counter()
            data = _build(cfg, seed)
            times.append(time.perf_counter() - t)
    return times, data


class _Epochs:
    """Marks the end of each epoch at the return of its validation evaluate.

    With a tracer it also keeps the span structure: a ``train_run`` span
    holds one ``epoch`` span per epoch, which holds one ``step`` span per
    train step and the epoch's ``evaluate`` span.
    """

    def __init__(self, epochs: int, tracer: Tracer | None):
        self.epochs = epochs
        self.tracer = tracer
        self.marks: list[tuple[int, float]] = []   # (ns, validation loss)
        self._done = 0

    def train_run(self, orig):
        tr = self.tracer

        def train_run(config, seed, outdir=None):
            self.marks, self._done = [], 0
            if tr is None:
                return orig(config, seed, outdir)
            root = tr.open("train_run")
            tr.open("epoch", index=0)
            try:
                return orig(config, seed, outdir)
            finally:
                while tr.current is not root:
                    tr.close(tr.current)
                tr.close(root)
        return train_run

    def evaluate(self, orig):
        tr = self.tracer

        def evaluate(model, data, instances):
            epoch = tr.current if tr is not None else None
            if tr is None:
                out = orig(model, data, instances)
            else:
                s = tr.open("evaluate", op=tr.new_op())
                try:
                    out = orig(model, data, instances)
                finally:
                    tr.close(s)
            self.marks.append((time.perf_counter_ns(), out["loss"]))
            if epoch is not None and epoch.name == "epoch":
                tr.close(epoch)
                self._done += 1
                if self._done < self.epochs:
                    tr.open("epoch", index=self._done)
            return out
        return evaluate


def _trace_bindings(tr: Tracer):
    """Span and leaf wrappers around each layer's entry points."""

    def batch_loss(model, data, instances, tape, _orig=runner._batch_loss):
        if tr.current is not None and tr.current.name == "epoch":
            tr.open("step", op=tr.new_op())
        s = tr.open("batch_loss")
        try:
            return _orig(model, data, instances, tape)
        finally:
            tr.close(s)

    def adam_step(*args, _orig=autodiff.adam_step, **kwargs):
        s = tr.open("adam")
        try:
            return _orig(*args, **kwargs)
        finally:
            tr.close(s)
            if tr.current is not None and tr.current.name == "step":
                tr.close(tr.current)

    def backward(tape, loss, _orig=autodiff.backward):
        s = tr.open("backward", tape_nodes=len(tape._nodes))
        try:
            return _orig(tape, loss)
        finally:
            tr.close(s)

    return [
        (runner, "_batch_loss", batch_loss),
        (runner, "mse_loss", tr.span("loss", runner.mse_loss)),
        (runner, "cross_entropy_loss", tr.span("loss", runner.cross_entropy_loss)),
        (models.MuChebNet, "forward", tr.span("forward", models.MuChebNet.forward)),
        (models.MuParameterizer, "forward",
         tr.span("mu_gcn", models.MuParameterizer.forward)),
        (autodiff, "backward", backward),
        (autodiff, "adam_step", adam_step),
        (autodiff, "matmul", tr.leaf("matmul", autodiff.matmul)),
        *[(autodiff, p, tr.leaf("operator", getattr(autodiff, p)))
          for p in OPERATOR_PRIMITIVES],
    ]


def _loop(cfg, seed, data, seconds, tracer=None, between=None):
    """Closed-loop train_run calls for about ``seconds``; one dict per run.

    ``between`` is called after each train_run, outside its timing.
    """
    runs, peak_mb = [], None
    clock = _Epochs(cfg.epochs, tracer)
    bindings = [
        (runner, "build_dataset", lambda task_cfg, data_seed=None: data),
        (runner, "train_run", clock.train_run(runner.train_run)),
        (runner, "evaluate", clock.evaluate(runner.evaluate)),
    ]
    if tracer is not None:
        bindings += _trace_bindings(tracer)
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        error, test_loss = None, math.nan
        try:
            with patched(*bindings):
                test_loss = runner.train_run(cfg, seed)["test"]["loss"]
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        runs.append({"marks": clock.marks, "test_loss": test_loss,
                     "error": error, "s": time.perf_counter() - t})
        if peak_mb is None:
            peak_mb = peak_rss_mb()
        if between is not None:
            between()   # outside the bindings: a set-up must really build
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * statistics.median(r["s"] for r in runs) > seconds:
            return runs, peak_mb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check(run, epochs, reference_loss):
    """Why this train_run's output is wrong, or None."""
    if run["error"]:
        return run["error"]
    val = [loss for _, loss in run["marks"][:epochs]]
    if len(val) != epochs:
        return f"{len(val)} validation evaluations for {epochs} epochs"
    if not all(math.isfinite(v) for v in val) or not math.isfinite(run["test_loss"]):
        return "non-finite loss"
    if not val[-1] < val[0]:
        return f"validation loss did not fall: {val[0]:.6g} -> {val[-1]:.6g}"
    if reference_loss is not None and run["test_loss"] != reference_loss:
        return f"test loss {run['test_loss']!r} differs from the first run's {reference_loss!r}"
    return None


def _epoch_ms(runs, epochs):
    out = []
    for r in runs:
        ns = [t for t, _ in r["marks"][:epochs]]
        out += [(b - a) / 1e6 for a, b in zip(ns, ns[1:])]
    return out


def _summarise(loop, cfg, steps_per_epoch, reference=None):
    runs, peak_mb = loop
    epochs = cfg.epochs
    if reference is None:
        reference = next((r["test_loss"] for r in runs if not r["error"]), None)
    problems = [p for p in (_check(r, epochs, reference) for r in runs) if p]
    epoch_ms = _epoch_ms([r for r in runs if not r["error"]], epochs)
    return {
        "attempted": len(runs) * epochs * steps_per_epoch,
        "failed": len(problems) * epochs * steps_per_epoch,
        "problems": problems,
        "epoch_ms": epoch_ms,
        "test_loss": reference if reference is not None else math.nan,
        "peak_rss_mb": peak_mb,
    }


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else math.nan


def _timing_metrics(setup_times, summary):
    ms = summary["epoch_ms"]
    return {
        "setup_s": statistics.median(setup_times),
        "epoch_ms.p50": _percentile(ms, 50),
        "epochs_per_s": len(ms) / (sum(ms) / 1e3) if ms else math.nan,
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def _layer_metrics(tr: Tracer):
    """Per-step medians from the spans of steady-state epochs (index >= 1)."""
    by_id = {s.id: s for s in tr.spans}
    kids = tr.children()

    def steady(s):
        parent = by_id.get(s.parent)
        return parent is not None and parent.name == "epoch" and parent.attrs["index"] >= 1

    per_step: dict[str, list] = {}
    for step in (s for s in tr.spans if s.name == "step" and steady(s)):
        sub = tr.subtree(step, kids)
        ms = lambda name: sum(s.ns for s in sub if s.name == name) / 1e6
        leaf = lambda name, i: sum(s.leaf.get(name, (0, 0))[i] for s in sub)
        for key, value in (
                ("models.forward_ms", ms("forward")),
                ("models.forward_calls", sum(s.name == "forward" for s in sub)),
                ("models.mu_gcn_ms", ms("mu_gcn")),
                ("models.operator_ms", leaf("operator", 1) / 1e6),
                ("models.loss_ms", ms("loss")),
                ("autodiff.backward_ms", ms("backward")),
                ("autodiff.tape_nodes",
                 sum(s.attrs["tape_nodes"] for s in sub if s.name == "backward")),
                ("autodiff.matmul_calls", leaf("matmul", 0)),
                ("autodiff.matmul_fwd_ms", leaf("matmul", 1) / 1e6),
                ("autodiff.adam_ms", ms("adam"))):
            per_step.setdefault(key, []).append(value)
    out = {key: statistics.median(vals) for key, vals in per_step.items()}
    evals = [s.ns / 1e6 for s in tr.spans if s.name == "evaluate" and steady(s)]
    out["runner.evaluate_ms"] = statistics.median(evals) if evals else 0.0
    builds = [s.ns / 1e9 for s in tr.spans if s.name == "build_dataset"]
    out["runner.build_dataset_s"] = statistics.median(builds) if builds else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """Measure one workload; see run.py for the shape of the result."""
    cfg = run_config(workload, tiny)
    setup_times, data = set_up(cfg, seed, SETUP_REPEATS)
    steps_per_epoch = math.ceil(len(data.train) / (cfg.batch_size or len(data.train)))
    resample = lambda: setup_times.extend(set_up(cfg, seed, 1)[0])
    plain = _summarise(_loop(cfg, seed, data, seconds / 2 if trace else seconds,
                             between=resample), cfg, steps_per_epoch)
    result = {"summaries": [plain], "e2e": _timing_metrics(setup_times, plain),
              "report": {"epoch_ms.p90": _percentile(plain["epoch_ms"], 90),
                         "epoch samples": len(plain["epoch_ms"]),
                         "test_loss": plain["test_loss"],
                         "steps per epoch": steps_per_epoch,
                         "epochs per train_run": cfg.epochs}}
    if not trace:
        return result

    tr = Tracer()
    traced_setup, _ = set_up(cfg, seed, 1, tracer=tr)
    before = models.context_for.cache_info()
    traced = _summarise(_loop(cfg, seed, data, seconds / 2, tracer=tr),
                        cfg, steps_per_epoch, reference=plain["test_loss"])
    after = models.context_for.cache_info()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    layer = _layer_metrics(tr)
    layer.update({
        "models.context_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runner.epoch_ms.p90": _percentile(plain["epoch_ms"], 90),
        "runner.epoch_samples": len(plain["epoch_ms"]),
        "runner.test_loss": plain["test_loss"],
    })
    result.update(summaries=[plain, traced],
                  traced_e2e=_timing_metrics(traced_setup, traced),
                  layer=layer, tracer=tr,
                  roots=[s for s in tr.spans if s.name == "epoch" and s.attrs["index"] >= 1])
    return result
