"""Training / evaluation harness: datasets, runs, records.

A run is fully described by a :class:`RunConfig`, whose model, optim and task
blocks are checked as it loads (:func:`task_spec` loads the task block into
its typed task, for that check and for :func:`build_dataset`); re-running the same
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
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import NaNLoss
from .fileio import save_checkpoint, write_csv_matrix
from .models import (ModelConfig, MuChebNet, accuracy, check_int, check_real,
                     config_from_dict, context_for, cross_entropy_loss, is_int, log10_mse,
                     mse_loss)
from .operators import DENSE_LIMIT
from .tasks import (GRAPH_MODELS, PROPERTY_TASKS, gen_barbell, gen_graph_property,
                    gen_ring_routing)


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
        task = task_spec(cfg.task)
        if min(task.counts[:2]) < 1:
            raise ValueError(f"{task.name} task counts {task.counts}: the train and val "
                             "splits need at least one instance each")
        if task.max_nodes > DENSE_LIMIT:  # the models hold (n, n) operators
            raise ValueError(f"{task.name} task graphs reach {task.max_nodes} nodes; the "
                             f"models are dense, for n <= {DENSE_LIMIT}")
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


@dataclass
class _Task:
    """A run-config ``task`` block: ``counts`` (null takes ``default_counts``), ``data_seed``
    and the keys its type's ``_check`` checks without building a graph. A type also has a
    ``name``, ``make(seed)``, the :class:`TaskData` fields, ``max_nodes`` and ``roles``."""

    counts: list | None = None
    data_seed: int = 777

    def __post_init__(self):
        check_int(f"{self.name} task", "data_seed", self.data_seed, 0)
        self.counts = list(self.default_counts) if self.counts is None else self.counts
        if not (isinstance(self.counts, list) and len(self.counts) == 3
                and all(is_int(c) and c >= 0 for c in self.counts)):
            raise ValueError(f"{self.name} task counts {self.counts} must be three "
                             "nonnegative split sizes")
        self._check()


@dataclass
class RingTask(_Task):
    """Routing on an even ring of ``n`` nodes."""

    name, default_counts, roles = "ring", (256, 64, 128), ("clean_path", "noisy_path")
    loss_kind, metric, readout, shared_graph = "cross-entropy", "accuracy", "node", True
    n: int = 16
    classes: int = 10
    noise_scale: float = 1.0

    def _check(self):
        if not (is_int(self.n) and self.n >= 8 and self.n % 2 == 0):
            raise ValueError(f"ring task n {self.n!r} must be an even integer >= 8")
        check_int("ring task", "classes", self.classes, 1)
        check_real("ring task", "noise_scale", self.noise_scale)
        self.in_dim, self.out_dim, self.max_nodes = self.classes, self.classes, self.n

    def make(self, seed): return gen_ring_routing(self.n, self.classes, seed, self.noise_scale)


@dataclass
class BarbellTask(_Task):
    """Two bells of ``n_clique`` nodes (or ``n`` in all) and a bridge of ``k_path``."""

    name, default_counts, roles = "barbell", (64, 16, 32), ("bridge", "bell_a", "bell_b")
    loss_kind, metric, in_dim, out_dim, readout, shared_graph = "mse", "nmse", 1, 1, "node", True
    n: int | None = None
    n_clique: int | None = None
    k_path: int = 4

    def _check(self):
        if (self.n is None) == (self.n_clique is None):
            raise ValueError("barbell task needs n or n_clique, not both")
        check_int("barbell task", "k_path", self.k_path, 1)
        if self.n is None:
            check_int("barbell task", "n_clique", self.n_clique, 2)
        else:  # two bells of at least two nodes
            check_int("barbell task", "n", self.n, self.k_path + 4)
            if (self.n - self.k_path) % 2:
                raise ValueError(f"total size {self.n} minus bridge {self.k_path} must be even")
        self.bell = self.n_clique if self.n is None else (self.n - self.k_path) // 2
        self.max_nodes = 2 * self.bell + self.k_path

    def make(self, seed): return gen_barbell(self.bell, self.k_path, seed)


@dataclass
class GraphPropertyTask(_Task):
    """BFS labels on random graphs of ``n_range`` = [lo, hi] nodes; only erdos-renyi reads ``p``."""

    name, default_counts, roles = "graph-property", (512, 64, 128), ()
    loss_kind, metric, out_dim, shared_graph = "mse", "log10_mse", 1, False
    property: str = "sssp"
    n_range: list = field(default_factory=lambda: [15, 25])
    model: str = "erdos-renyi"
    p: float = 0.3
    m_attach: int = 2

    def _check(self):
        for what, value, known in (("property task", self.property, PROPERTY_TASKS),
                                   ("graph model", self.model, GRAPH_MODELS)):
            if value not in known:
                raise ValueError(f"unknown {what} {value!r}; known: {', '.join(known)}")
        if not (isinstance(self.n_range, list) and len(self.n_range) == 2
                and all(map(is_int, self.n_range)) and 1 <= self.n_range[0] <= self.n_range[1]):
            raise ValueError(f"n_range {self.n_range} must be two integers [lo, hi], 1 <= lo <= hi")
        check_real("graph-property task", "p", self.p)
        if self.model == "erdos-renyi" and not 0 < self.p <= 1:
            raise ValueError(f"graph-property task p {self.p} must be in (0, 1]")
        check_int("graph-property task", "m_attach", self.m_attach, 1)
        if self.model == "barabasi-albert" and self.m_attach >= self.n_range[0]:
            raise ValueError(f"graph-property task m_attach {self.m_attach} must be below "
                             f"n_range[0] {self.n_range[0]} for barabasi-albert")
        self.in_dim = 3 if self.property == "sssp" else 2
        self.readout = "graph" if self.property == "diameter" else "node"
        self.max_nodes = self.n_range[1]

    def make(self, seed):
        return gen_graph_property(self.property, self.n_range, seed, self.model, self.p,
                                  self.m_attach)


#: the task types by ``name``, in the order ``export-mu`` lists their roles
TASK_TYPES = {t.name: t for t in (RingTask, BarbellTask, GraphPropertyTask)}


def task_spec(task_cfg: dict, data_seed: int | None = None) -> _Task:
    """The typed task of a run-config ``task`` block, whose ``name`` picks the
    type; ``data_seed``, when given, replaces the block's. No instance is made.
    A block that is not an object or that the type refuses raises ``ValueError``."""
    if not isinstance(task_cfg, dict):
        raise ValueError(f"task must be a JSON object, got {type(task_cfg).__name__}")
    name = task_cfg.get("name")
    if not (isinstance(name, str) and name in TASK_TYPES):
        raise ValueError(f"unknown task {name!r}")
    task = config_from_dict(TASK_TYPES[name], {k: v for k, v in task_cfg.items()
                                               if k != "name"}, f"{name} task")
    return task if data_seed is None else replace(task, data_seed=data_seed)


def build_dataset(task_cfg: dict, data_seed: int | None = None) -> TaskData:
    """The train/val/test splits of a run-config ``task`` block.

    Instance i of a split is made from the seed
    ``data_seed * 10**7 + split offset (0, 10**6, 2 * 10**6) + i``.
    """
    task = task_spec(task_cfg, data_seed)
    splits = [[task.make(task.data_seed * 10_000_000 + off + i) for i in range(count)]
              for off, count in zip((0, 1_000_000, 2_000_000), task.counts)]
    if task.shared_graph and len({id(inst.graph) for split in splits for inst in split}) > 1:
        raise ValueError(f"{task.name} task instances do not all hold one graph")
    return TaskData(*splits, **{f.name: getattr(task, f.name) for f in fields(TaskData)[3:]})


# --- loss / metric evaluation ---

def _batch_loss(model: MuChebNet, data: TaskData, instances, tape: ad.Tape | None):
    """Forward + loss for one batch, recorded on ``tape`` unless it is None;
    returns (loss tensor, predictions, mus)."""
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
    """Loss plus task metric on a list of instances; records no tape."""
    loss, pred, mu = _batch_loss(model, data, instances, None)
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
    vals = mu.data.reshape(len(instances), -1)
    clean, noisy = (float(np.mean([v[i.meta[role]].mean() for v, i in zip(vals, instances)]))
                    for role in RingTask.roles)
    return {"mu_clean_mean": clean, "mu_noisy_mean": noisy, "mu_contrast": clean - noisy}


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
        ckpt = save_checkpoint(outdir / "checkpoint.npz", model.params,
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
        _, mu = model.forward(None, context_for(inst.graph), inst.X)
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
        with ProcessPoolExecutor(max_workers=min(worker_count(), len(jobs)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
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
