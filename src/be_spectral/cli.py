"""Command-line entry point.

Subcommands: gen, train, eval, spectrum, diffuse, filter, verify,
export-mu. Outputs are plot-ready CSV / JSON-lines; every run persists its
config and seed so it can be reproduced exactly.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .be import build_be, heat_flow, normalized_be
from .chebyshev import ChebFilter, cheb_apply_be
from .errors import DisconnectedAfterRetries, HeatSeriesTooLong, IsolatedNodeUnderMu
from .fileio import (dump_instance, load_checkpoint, read_csv_matrix,
                     read_edge_list, write_csv_matrix)
from .models import ModelConfig, MuChebNet, check_int, context_for
from .operators import DENSE_LIMIT
from .runner import RunConfig, build_dataset, evaluate, task_spec, train_multi, worker_count
from .spectral import eig_sym
from .verify import SUITES


class _InputError(Exception):
    """An unusable input file or value; :func:`main` prints it and returns 2."""


def _read(flag: str, path, reader):
    """``reader(path)``; a missing file or a ``ValueError`` is one line naming ``flag``."""
    try:
        return reader(path)
    except FileNotFoundError:
        raise _InputError(f"{flag} {path}: no such file") from None
    except ValueError as exc:  # the fileio readers' messages start with the path
        msg = str(exc) if str(exc).startswith(f"{path}:") else f"{path}: {exc}"
        raise _InputError(f"{flag} {msg}") from None


def _load_graph_mu(args):
    g = _read("--graph", args.graph, read_edge_list)
    mu = _node_values("--mu", args.mu, g.n) if args.mu else np.ones(g.n)
    try:
        return g, build_be(g, mu)
    except ValueError as exc:  # negative or zero-mass potential
        raise _mu_error(args, exc) from None


def _mu_error(args, exc: ValueError) -> _InputError:
    """A potential that ``build_be`` or ``--normalized`` rejects, named by its file."""
    source = f"--mu {args.mu}" if args.mu else f"--graph {args.graph}"
    return _InputError(f"{source}: {exc}")


def _csv(flag: str, path) -> np.ndarray:
    """``read_csv_matrix(path)``; a NaN or infinite entry is one line naming ``flag``."""
    values = _read(flag, path, read_csv_matrix)
    if not np.isfinite(values).all():
        row = int(np.argwhere(~np.isfinite(values))[0][0]) + 1
        raise _InputError(f"{flag} {path}: data row {row} holds a non-finite value")
    return values


def _node_values(flag: str, path, n: int) -> np.ndarray:
    """One value per node from a CSV file; its size must match the graph."""
    values = _csv(flag, path).reshape(-1)
    if values.size != n:
        raise _InputError(f"{flag} {path} has {values.size} values, the graph has n={n}")
    return values


def _node_rows(path, n: int) -> np.ndarray:
    """The ``--X`` feature matrix; it needs one row per node."""
    x = _csv("--X", path)
    if x.shape[0] != n:
        raise _InputError(f"--X {path} has {x.shape[0]} rows, the graph has n={n}")
    return x


def _dataset(source: str, task: dict, data_seed: int | None = None):
    """``build_dataset``; a task it cannot make is one line naming ``source``."""
    try:
        return build_dataset(task, data_seed=data_seed)
    except (ValueError, DisconnectedAfterRetries) as exc:
        raise _InputError(f"{source}: {exc}") from None


def cmd_gen(args) -> int:
    """The train split of the run-config task with these settings."""
    if args.count < 1:
        raise _InputError(f"--count {args.count} must be at least 1")
    task = {"barbell": {"n": args.n, "k_path": args.k_path},
            "ring": {"n": args.n},
            "graph-property": {"property": args.property, "p": args.p,
                               "n_range": [args.n_min, args.n_max]}}[args.task]
    data = _dataset(f"--task {args.task}",
                    {"name": args.task, **task, "counts": [args.count, 0, 0]}, args.seed)
    out = Path(args.out)
    for i, inst in enumerate(data.train):
        dump_instance(out / f"instance_{i:04d}", inst)
    print(f"wrote {args.count} instances to {out}")
    return 0


def cmd_spectrum(args) -> int:
    g, be = _load_graph_mu(args)
    if g.n > DENSE_LIMIT:  # refused before any n x n matrix is made
        raise _InputError(f"--graph {args.graph} has n={g.n} nodes; the full spectrum "
                          f"is computed densely, for n <= {DENSE_LIMIT}")
    try:
        op = normalized_be(be) if args.normalized else be.operator()
    except IsolatedNodeUnderMu as exc:
        raise _mu_error(args, exc) from None
    vals = eig_sym(op).eigenvalues
    rows = np.stack([np.arange(g.n, dtype=np.float64), vals], axis=1)
    write_csv_matrix(rows, args.out, header="k,lambda")
    print(f"spectrum ({g.n} eigenvalues) -> {args.out}")
    return 0


def cmd_diffuse(args) -> int:
    if not 0.0 <= args.t < np.inf:
        raise _InputError(f"--t {args.t} must be finite and nonnegative")
    if not args.f0 and args.delta is None:
        raise _InputError("either --f0 or --delta is required")
    g, be = _load_graph_mu(args)
    if args.f0:
        f0 = _node_values("--f0", args.f0, g.n)
    elif not 0 <= args.delta < g.n:
        raise _InputError(f"--delta {args.delta} is not a node of the graph (n={g.n})")
    else:
        f0 = np.zeros(g.n)
        f0[args.delta] = 1.0
    try:
        f = heat_flow(be, f0, args.t)
    except HeatSeriesTooLong as exc:  # checked before any term is made
        raise _InputError(f"--t {args.t}: {exc}") from None
    write_csv_matrix(f, args.out)
    print(f"diffused to t={args.t} -> {args.out}")
    return 0


def cmd_filter(args) -> int:
    g, be = _load_graph_mu(args)
    coeffs = _csv("--coeffs", args.coeffs).reshape(-1)
    if not coeffs.size:
        raise _InputError(f"--coeffs {args.coeffs} holds no coefficients")
    if args.K is not None and args.K + 1 != coeffs.size:
        raise _InputError(f"--K {args.K} but {coeffs.size} coefficients given")
    x = _node_rows(args.X, g.n)
    try:
        y = cheb_apply_be(ChebFilter(coeffs), be, x,
                          kind="symmetric" if args.normalized else "unnormalized")
    except IsolatedNodeUnderMu as exc:
        raise _mu_error(args, exc) from None
    write_csv_matrix(y, args.out)
    print(f"filtered signal -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    names = (sorted(SUITES) if args.suite == "all"
             else [name.strip() for name in args.suite.split(",")])
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise _InputError(f"unknown suite(s) {unknown}; known: {sorted(SUITES)}")
    reports = []
    for name in names:
        report = SUITES[name]()
        reports.append(report)
        status = "PASS" if report["passed"] else "FAIL"
        print(f"[{status}] suite {report['suite']}")
        for check in report["checks"]:
            mark = "ok " if check["passed"] else "FAIL"
            detail = {k: v for k, v in check.items() if k not in ("name", "passed")}
            print(f"  [{mark}] {check['name']} {json.dumps(detail)}")
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=2))
    return 0 if all(r["passed"] for r in reports) else 1


def cmd_train(args) -> int:
    cfg = _read("--config", args.config, RunConfig.from_json)
    if args.out:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seeds = [args.seed]
    try:
        if args.parallel_seeds:
            worker_count()
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    try:
        summary = train_multi(cfg, parallel=args.parallel_seeds)
    except DisconnectedAfterRetries as exc:  # the parse cannot see this one
        raise _InputError(f"--config {args.config}: {exc}") from None
    for rec in summary["per_seed"]:
        print(f"seed {rec['seed']}: test {json.dumps(rec['test'])}")
    for key, agg in summary["aggregate"].items():
        print(f"test {key}: {agg['mean']:.6g} +- {agg['std']:.6g}")
    return 0


def _model_from_checkpoint(ckpt_dir):
    """The checkpointed model; its manifest ``meta`` needs ``model`` and ``in_dim``."""
    params, meta = load_checkpoint(ckpt_dir)
    if "model" not in meta:
        raise ValueError("manifest meta has no model block")
    check_int("manifest meta", "in_dim", meta.get("in_dim"), 1)
    model = MuChebNet(meta["in_dim"], ModelConfig.from_dict(meta["model"]))  # weights loaded below
    model.load_params(params)
    return model


def cmd_eval(args) -> int:
    cfg = _read("--config", args.config, RunConfig.from_json)
    model = _read("--checkpoint", args.checkpoint, _model_from_checkpoint)
    needs = task_spec(cfg.task).kinds
    has = {"in_dim": model.in_dim, "out_dim": model.config.out_dim,
           "readout": model.config.readout}
    wrong = [f"{k}={v} where the task needs {needs[k]}" for k, v in has.items() if v != needs[k]]
    if wrong:
        raise _InputError(f"--checkpoint {args.checkpoint} does not fit the --config "
                          f"{args.config} task: {', '.join(wrong)}")
    data = _dataset(f"--config {args.config}", cfg.task)
    metrics = evaluate(model, data, data.test)
    print(json.dumps(metrics, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(metrics, indent=2))
    return 0


def cmd_export_mu(args) -> int:
    model = _read("--checkpoint", args.checkpoint, _model_from_checkpoint)
    if model.parameterizer is None:
        raise _InputError(f"--checkpoint {args.checkpoint} has no potential parameterizer")
    g = _read("--graph", args.graph, read_edge_list)
    x = _node_rows(args.X, g.n).reshape(g.n, -1)
    if x.shape[1] != model.in_dim:
        raise _InputError(f"--X {args.X} has {x.shape[1]} columns, the checkpoint "
                          f"needs in_dim={model.in_dim}")
    meta = (_read("--meta", args.meta, lambda p: json.loads(Path(p).read_text()))
            if args.meta else {})
    if not isinstance(meta, dict):
        raise _InputError(f"--meta {args.meta}: not a JSON object")
    roles = {key: np.asarray(meta[key]) for key in
             ("clean_path", "noisy_path", "bridge", "bell_a", "bell_b") if key in meta}
    for key, nodes in roles.items():
        if not (nodes.dtype.kind in "iu" and nodes.size and 0 <= nodes.min() <= nodes.max() < g.n):
            raise _InputError(f"--meta {args.meta}: {key} {meta[key]} must list "
                              f"nodes of the graph (0 to {g.n - 1})")
    tape = ad.Tape()
    _, mu = model.forward(tape, context_for(g), x)
    mu = mu.data.reshape(-1)
    write_csv_matrix(mu, args.out)
    manifest = {"n": g.n, "node_order": "0-based ascending",
                "mu_min": float(mu.min()), "mu_max": float(mu.max()),
                "mu_mean": float(mu.mean())}
    for key, nodes in roles.items():
        manifest[f"mu_mean_{key}"] = float(mu[nodes].mean())
    Path(str(args.out) + ".manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"potential -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="be-spectral",
        description="potential-weighted graph Laplacian toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic datasets")
    p.add_argument("--task", choices=["barbell", "ring", "graph-property"],
                   required=True)
    p.add_argument("--n", type=int, default=50, help="total size (barbell/ring)")
    p.add_argument("--k-path", type=int, default=4)
    p.add_argument("--property", default="sssp",
                   choices=["sssp", "diameter", "eccentricity"])
    p.add_argument("--n-min", type=int, default=15)
    p.add_argument("--n-max", type=int, default=25)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    on_graph = argparse.ArgumentParser(add_help=False)
    on_graph.add_argument("--graph", required=True)
    on_graph.add_argument("--mu")
    on_graph.add_argument("--out", required=True)

    p = sub.add_parser("spectrum", parents=[on_graph],
                       help="eigenvalues to CSV (k,lambda rows)")
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("diffuse", parents=[on_graph],
                       help="heat flow under the weighted Laplacian")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--f0")
    p.add_argument("--delta", type=int, help="start from a unit impulse here")
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("filter", parents=[on_graph], help="apply a scalar Chebyshev filter")
    p.add_argument("--coeffs", required=True, help="CSV, one theta_k per line")
    p.add_argument("--K", type=int)
    p.add_argument("--X", required=True)
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("verify", help="run numerical verification suites")
    p.add_argument("--suite", default="all",
                   help="comma list of: " + ",".join(sorted(SUITES)))
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="train a model from a run-config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--parallel-seeds", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a config's test split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-mu", help="dump the learned potential for a graph")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--X", required=True)
    p.add_argument("--meta", help="instance meta.json for role-wise means")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_mu)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process for :func:`main`.

    An argparse parser keeps no state between ``parse_args`` calls. It
    binds the ``cmd_*`` functions when it is built, so rebinding one of
    them afterwards does not reach ``main``. The names those commands call
    (``SUITES``, ``build_dataset``, ``train_multi``, ``heat_flow``,
    ``eig_sym``, ``read_*``, ``write_csv_matrix``, ``build_be``,
    ``cheb_apply_be``) are looked up as each command runs, so rebinding
    those does.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
