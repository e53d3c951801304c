"""Training / evaluation harness: datasets, runs, records.

A run is fully described by a :class:`RunConfig`, whose model, optim and task
blocks are checked as it loads (:func:`task_spec` parses the task block
once for that check and for :func:`build_dataset`); re-running the same
config and seed on one platform reproduces every metric bit for bit
(full-batch by default, seeded shuffling otherwise, deterministic
aggregation order). When the run ends, its per-eval metrics are written
as JSON lines, summaries as JSON, and learned potentials as CSV for
external plotting.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import NaNLoss
from .fileio import save_checkpoint, write_csv_matrix
from .models import (ModelConfig, MuChebNet, accuracy, check_int, check_real,
                     config_from_dict, context_for, cross_entropy_loss, is_int, log10_mse,
                     mse_loss)
from .graphs import barbell_graph
from .tasks import (GRAPH_MODELS, PROPERTY_TASKS, TaskInstance, gen_barbell,
                    gen_graph_property, gen_ring_routing, ring_routing_graph)


@dataclass
class OptimConfig:
    """The run-config ``optim`` block: Adam's step size, moment decays and
    weight decay (``autodiff.adam_step``)."""

    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        for key in ("lr", "eps"):
            check_real("optim", key, getattr(self, key), positive=True)
        for key in ("beta1", "beta2", "weight_decay"):
            check_real("optim", key, getattr(self, key))
        for key in ("beta1", "beta2"):
            if not getattr(self, key) < 1:
                raise ValueError(f"optim {key} {getattr(self, key)!r} must be in [0, 1)")


@dataclass
class RunConfig:
    task: dict
    model: dict
    optim: dict = field(default_factory=dict)
    epochs: int = 200
    seeds: list = field(default_factory=lambda: [0])
    patience: int = 50
    eval_every: int = 1
    batch_size: int | None = None
    out: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = config_from_dict(cls, d, "run-config")
        cfg._check_loop()
        if not (cfg.out is None or isinstance(cfg.out, str)):
            raise ValueError(f"run-config out {cfg.out!r} must be null or a path string")
        # bad model, optim or task blocks fail before any data is made
        ModelConfig.from_dict(cfg.model)
        config_from_dict(OptimConfig, cfg.optim, "optim")
        from_task = sorted({"out_dim", "readout"} & set(cfg.model))
        if from_task:
            raise ValueError(f"model keys {', '.join(from_task)}: the task sets them, "
                             "so a run config may not")
        counts = task_spec(cfg.task).counts
        if min(counts[:2]) < 1:
            raise ValueError(f"{cfg.task['name']} task counts {counts}: the train and val "
                             "splits need at least one instance each")
        return cfg

    def _check_loop(self) -> None:
        """``ValueError`` unless the loop fields are integers in range.

        ``epochs`` and ``patience`` are at least 0 (0 epochs evaluates the
        untrained model), ``eval_every`` at least 1, ``batch_size`` null (full
        batch) or at least 1, and ``seeds`` a non-empty list of integers >= 0.
        """
        for key, low in (("epochs", 0), ("patience", 0), ("eval_every", 1)):
            check_int("run-config", key, getattr(self, key), low)
        if not (self.batch_size is None or is_int(self.batch_size) and self.batch_size >= 1):
            raise ValueError(f"run-config batch_size {self.batch_size!r} must be null "
                             "or an integer >= 1")
        if not (isinstance(self.seeds, list) and self.seeds
                and all(is_int(s) and s >= 0 for s in self.seeds)):
            raise ValueError(f"run-config seeds {self.seeds!r} must be a non-empty "
                             "list of integers >= 0")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class TaskData:
    """Split instances plus everything the loop needs to know about them."""

    train: list
    val: list
    test: list
    loss_kind: str        # "mse" | "cross-entropy"
    metric: str           # "nmse" | "log10_mse" | "accuracy" | "mse"
    in_dim: int
    out_dim: int
    readout: str
    shared_graph: bool


def _check_shared_graph(splits: list[list[TaskInstance]]) -> None:
    """Check that a fixed-topology task's instances all hold one graph object.

    ``barbell_graph`` and ``ring_graph`` are memoized, so every instance
    already shares the graph; operator constants are then computed once.
    """
    g0 = splits[0][0].graph
    for name, split in zip(("train", "val", "test"), splits):
        for i, inst in enumerate(split):
            if inst.graph is not g0:
                raise ValueError(f"{name} instance {i} has {inst.graph!r}, "
                                 f"not the shared {g0!r}")


class TaskSpec(NamedTuple):
    """A parsed ``task`` block; ``kinds`` holds the :class:`TaskData` fields."""

    make: Callable[[int], TaskInstance]  # instance from its seed
    counts: list                         # train, val, test sizes
    seed: int                            # data seed
    kinds: dict


def task_spec(task_cfg: dict, data_seed: int | None = None) -> TaskSpec:
    """Parse a run-config ``task`` block; no instance is made.

    Raises ``ValueError`` for a block that is not an object, an unknown task
    name or key, a value of the wrong type, bad split counts, a barbell or
    ring size the task cannot use (the shared graph is built here, once),
    fewer than one ring class or an erdos-renyi edge probability ``p``
    outside (0, 1].
    ``RunConfig.from_dict`` calls it to check the block as it loads,
    ``build_dataset`` to make the data.
    """
    if not isinstance(task_cfg, dict):
        raise ValueError(f"task must be a JSON object, got {type(task_cfg).__name__}")
    cfg = dict(task_cfg)
    name = cfg.pop("name", None)
    try:
        spec = _parse_task(name, cfg, data_seed)
    except TypeError as exc:  # e.g. int(None) for "n": null
        raise ValueError(f"{name} task: {exc}") from None
    if cfg:
        raise ValueError(f"unknown {name} task keys: {', '.join(sorted(cfg))}")
    if len(spec.counts) != 3 or min(spec.counts) < 0:
        raise ValueError(f"{name} task counts {spec.counts} must be three "
                         "nonnegative split sizes")
    return spec


def _parse_task(name, cfg: dict, data_seed) -> TaskSpec:
    """The body of :func:`task_spec`; pops every key it knows from ``cfg``."""
    seed = cfg.pop("data_seed", 777)
    seed = seed if data_seed is None else data_seed
    check_int(f"{name} task", "data_seed", seed, 0)
    counts = cfg.pop("counts", None)

    if name == "barbell":
        k_path = int(cfg.pop("k_path", 4))
        if "n_clique" in cfg:
            n_clique = int(cfg.pop("n_clique"))
        elif "n" in cfg:
            total = int(cfg.pop("n"))
            if (total - k_path) % 2:
                raise ValueError(f"total size {total} minus bridge {k_path} must be even")
            n_clique = (total - k_path) // 2
        else:
            raise ValueError("barbell task needs n or n_clique")
        barbell_graph(n_clique, k_path)  # checks the sizes; memoized for the instances
        counts = [64, 16, 32] if counts is None else counts
        make = lambda s: gen_barbell(n_clique, k_path, seed=s)
        kinds = dict(loss_kind="mse", metric="nmse", in_dim=1, out_dim=1,
                     readout="node", shared_graph=True)
    elif name == "ring":
        n = int(cfg.pop("n", 16))
        classes = int(cfg.pop("classes", 10))
        noise = float(cfg.pop("noise_scale", 1.0))
        if classes < 1:
            raise ValueError(f"ring task classes {classes} must be at least 1")
        ring_routing_graph(n)  # checks the size; memoized for the instances
        counts = [256, 64, 128] if counts is None else counts
        make = lambda s: gen_ring_routing(n, num_classes=classes, seed=s,
                                          noise_scale=noise)
        kinds = dict(loss_kind="cross-entropy", metric="accuracy", in_dim=classes,
                     out_dim=classes, readout="node", shared_graph=True)
    elif name == "graph-property":
        prop = cfg.pop("property", "sssp")
        n_range = cfg.pop("n_range", [15, 25])
        model = cfg.pop("model", "erdos-renyi")
        p = float(cfg.pop("p", 0.3))
        m_attach = int(cfg.pop("m_attach", 2))
        if prop not in PROPERTY_TASKS:
            raise ValueError(f"unknown property task {prop!r}; known: {', '.join(PROPERTY_TASKS)}")
        if model not in GRAPH_MODELS:
            raise ValueError(f"unknown graph model {model!r}; known: {', '.join(GRAPH_MODELS)}")
        if model == "erdos-renyi" and not 0.0 < p <= 1.0:
            raise ValueError(f"graph-property task p {p} must be in (0, 1]")
        if not 1 <= int(n_range[0]) <= int(n_range[-1]):
            raise ValueError(f"n_range {n_range} must be [lo, hi] with 1 <= lo <= hi")
        counts = [512, 64, 128] if counts is None else counts
        make = lambda s: gen_graph_property(prop, n_range, seed=s, model=model,
                                            p=p, m_attach=m_attach)
        kinds = dict(loss_kind="mse", metric="log10_mse",
                     in_dim=3 if prop == "sssp" else 2, out_dim=1,
                     readout="graph" if prop == "diameter" else "node",
                     shared_graph=False)
    else:
        raise ValueError(f"unknown task {name!r}")
    return TaskSpec(make, [int(c) for c in counts], seed, kinds)


def build_dataset(task_cfg: dict, data_seed: int | None = None) -> TaskData:
    """The train/val/test splits of a run-config ``task`` block.

    Instance i of a split is made from the seed
    ``data_seed * 10**7 + split offset (0, 10**6, 2 * 10**6) + i``.
    """
    spec = task_spec(task_cfg, data_seed)
    offsets = (0, 1_000_000, 2_000_000)
    splits = [[spec.make(spec.seed * 10_000_000 + off + i) for i in range(count)]
              for off, count in zip(offsets, spec.counts)]
    if spec.kinds["shared_graph"]:
        _check_shared_graph(splits)
    return TaskData(*splits, **spec.kinds)


# --- loss / metric evaluation ---

def _batch_loss(model: MuChebNet, data: TaskData, instances, tape: ad.Tape):
    """Forward + loss for one batch; returns (loss tensor, predictions, mus)."""
    if data.shared_graph:
        ctx = context_for(instances[0].graph)
        pred, mu = model.forward(tape, ctx, np.stack([inst.X for inst in instances]))
        if data.loss_kind == "cross-entropy":
            query = instances[0].meta["query"]
            logits = ad.reshape(ad.take_nodes(pred, [query]),
                                (len(instances), data.out_dim))
            labels = np.array([int(inst.y) for inst in instances])
            return cross_entropy_loss(logits, labels), pred, mu
        y = np.stack([inst.y for inst in instances])
        return mse_loss(pred, y, instances[0].mask), pred, mu
    parts = []
    preds, mus = [], []
    for inst in instances:
        pred, mu = model.forward(tape, context_for(inst.graph), inst.X)
        parts.append(mse_loss(pred, inst.y, inst.mask))
        preds.append(pred)
        mus.append(mu)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total * (1.0 / len(parts)), preds, mus


def evaluate(model: MuChebNet, data: TaskData, instances) -> dict:
    """Loss plus task metric on a list of instances (no gradients kept)."""
    tape = ad.Tape()
    loss, pred, mu = _batch_loss(model, data, instances, tape)
    out = {"loss": float(loss.data)}
    if data.loss_kind == "cross-entropy":
        query = instances[0].meta["query"]
        logits = pred.data[:, query, :]
        labels = np.array([int(inst.y) for inst in instances])
        out["accuracy"] = accuracy(logits, labels)
        out.update(_mu_contrast(mu, instances))
    elif data.metric == "nmse":
        var = instances[0].meta["target_variance"]
        out["mse"] = out["loss"]
        out["nmse"] = out["loss"] / var
    else:
        out["mse"] = out["loss"]
        out["log10_mse"] = log10_mse(out["loss"])
    return out


def _mu_contrast(mu, instances) -> dict:
    """Mean learned potential on clean vs noisy ring paths."""
    if mu is None:
        return {}
    vals = mu.data if mu.data.ndim == 2 else mu.data[None]
    clean, noisy = [], []
    for row, inst in zip(vals, instances):
        clean.append(row[inst.meta["clean_path"]].mean())
        noisy.append(row[inst.meta["noisy_path"]].mean())
    return {"mu_clean_mean": float(np.mean(clean)),
            "mu_noisy_mean": float(np.mean(noisy)),
            "mu_contrast": float(np.mean(clean) - np.mean(noisy))}


# --- the training loop ---

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, glibc malloc.h


def _keep_freed_memory() -> None:
    """Keep freed heap pages in the process for the next step (Linux only).

    Each train step and evaluation allocates tens of MB of arrays and frees
    them when its tape is dropped: a step's as :func:`_train_step` returns,
    so at most one step's tape is alive at a time. With glibc's default
    thresholds those pages go back to the OS and fault in again on the next
    step; kept, the next step reuses them. On the
    barbell benchmark config (2-core x86-64, three alternating 20 s pairs)
    epoch p50 read 24.4/24.2/34.9 ms with it and 26.5/25.3/37.6 ms without.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the largest value glibc accepts
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _train_step(model: MuChebNet, data: TaskData, batch, state: ad.AdamState,
                lr: float, hyper: dict, epoch: int) -> float:
    """One forward, backward and Adam update on ``batch``; returns its loss.

    The step's tape, loss and gradients die when it returns, so the next
    evaluation and forward never run beside them.
    """
    tape = ad.Tape()
    loss, _, _ = _batch_loss(model, data, batch, tape)
    if not np.isfinite(loss.data):
        raise NaNLoss(f"non-finite training loss at epoch {epoch}")
    grads = {t.name: g for t, g in ad.backward(tape, loss).items()}
    ad.adam_step(model.params, grads, state, lr, **hyper)
    ad.check_finite(model.params, f"epoch {epoch}")
    return float(loss.data)


def train_run(config: RunConfig, seed: int, outdir: Path | None = None) -> dict:
    """Train one seed; returns the run record (and writes it when outdir set)."""
    t0 = time.time()
    _keep_freed_memory()
    hyper = asdict(config_from_dict(OptimConfig, config.optim, "optim"))
    lr = hyper.pop("lr")
    data = build_dataset(config.task)
    mcfg = ModelConfig.from_dict(config.model)
    mcfg.out_dim = data.out_dim
    mcfg.readout = data.readout
    model = MuChebNet(data.in_dim, mcfg, seed=seed)
    state = ad.AdamState(model.params)

    history = []
    best = {"val_loss": np.inf, "epoch": -1, "params": model.snapshot()}
    stale = 0
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence([seed, 0xC0FFEE])))

    epoch = -1
    for epoch in range(config.epochs):
        order = rng.permutation(len(data.train))
        bs = config.batch_size or len(data.train)
        train_loss = 0.0
        nb = 0
        for start in range(0, len(order), bs):
            batch = [data.train[i] for i in order[start:start + bs]]
            train_loss += _train_step(model, data, batch, state, lr, hyper, epoch)
            nb += 1
        train_loss /= max(nb, 1)

        if epoch % config.eval_every == 0:
            val = evaluate(model, data, data.val)
            history.append({"epoch": epoch, "train_loss": train_loss, **{
                f"val_{k}": v for k, v in val.items()}})
            if val["loss"] < best["val_loss"] - 1e-12:
                best = {"val_loss": val["loss"], "epoch": epoch,
                        "params": model.snapshot()}
                stale = 0
            else:
                stale += config.eval_every
                if stale >= config.patience:
                    break

    model.load_params(best["params"])
    record = {
        "config_hash": config.config_hash(),
        "seed": seed,
        "epochs_run": epoch + 1,
        "best_epoch": best["epoch"],
        "train": {"loss": history[-1]["train_loss"] if history else None},
        "val": evaluate(model, data, data.val) if data.val else {},
        "test": evaluate(model, data, data.test) if data.test else {},
        "wall_time_s": time.time() - t0,
    }

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "metrics.jsonl", "w") as fh:
            for row in history:
                fh.write(json.dumps(row) + "\n")
        ckpt = save_checkpoint(outdir / "checkpoint", model.params,
                               meta={"model": mcfg.to_dict(),
                                     "in_dim": data.in_dim, "seed": seed})
        record["checkpoint"] = str(ckpt)
        (outdir / "config.json").write_text(json.dumps(config.to_dict(), indent=2))
        _dump_mu(model, data, outdir)
        (outdir / "record.json").write_text(json.dumps(record, indent=2))
    return record


def _dump_mu(model: MuChebNet, data: TaskData, outdir: Path) -> None:
    if model.parameterizer is None or not data.test:
        return
    rows = []
    for inst in data.test[:4]:
        tape = ad.Tape()
        _, mu = model.forward(tape, context_for(inst.graph), inst.X)
        rows.append(mu.data.reshape(-1))
    if len({r.size for r in rows}) == 1:
        write_csv_matrix(np.stack(rows).T, outdir / "mu_test_instances.csv")
    else:  # variable graph sizes: one file per instance
        for i, r in enumerate(rows):
            write_csv_matrix(r, outdir / f"mu_test_instance_{i:02d}.csv")


def _train_seed_worker(config_dict: dict, seed: int, outdir: str | None) -> dict:
    cfg = RunConfig.from_dict(config_dict)
    return train_run(cfg, seed, Path(outdir) if outdir else None)


def worker_count() -> int:
    """``BE_SPECTRAL_THREADS`` if set (a positive integer), else the CPU count."""
    raw = os.environ.get("BE_SPECTRAL_THREADS", str(os.cpu_count() or 1))
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError(f"BE_SPECTRAL_THREADS={raw!r} must be a positive integer")
    return int(raw)


def train_multi(config: RunConfig, parallel: bool = False) -> dict:
    """Train every seed in the config; aggregates mean/std per metric."""
    outbase = Path(config.out) if config.out else None
    jobs = [(config.to_dict(), int(s),
             str(outbase / f"seed{s}") if outbase else None)
            for s in config.seeds]
    if parallel and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(worker_count(), len(jobs))) as pool:
            records = list(pool.map(_train_seed_worker, *zip(*jobs)))
    else:
        records = [_train_seed_worker(*j) for j in jobs]

    aggregate = {}
    keys = records[0]["test"].keys() if records and records[0]["test"] else []
    for key in keys:
        vals = np.array([r["test"][key] for r in records], dtype=np.float64)
        aggregate[key] = {"mean": float(vals.mean()),
                          "std": float(vals.std(ddof=0))}
    summary = {"config_hash": config.config_hash(),
               "seeds": [int(s) for s in config.seeds],
               "per_seed": records, "aggregate": aggregate}
    if outbase:
        outbase.mkdir(parents=True, exist_ok=True)
        (outbase / "summary.json").write_text(json.dumps(summary, indent=2))
        (outbase / "config.json").write_text(json.dumps(config.to_dict(), indent=2))
    return summary
