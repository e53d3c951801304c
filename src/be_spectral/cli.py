"""Command-line entry point.

Subcommands: gen, train, eval, spectrum, diffuse, filter, verify,
export-mu. Outputs are plot-ready CSV / JSON-lines; every run persists its
config and seed so it can be reproduced exactly.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .be import build_be, heat_flow, normalized_be
from .chebyshev import ChebFilter, cheb_apply_be
from .fileio import (dump_instance, load_checkpoint, read_csv_matrix,
                     read_edge_list, write_csv_matrix)
from .models import ModelConfig, MuChebNet, context_for
from .runner import RunConfig, build_dataset, evaluate, train_multi
from .spectral import eig_sym
from .tasks import gen_barbell, gen_graph_property, gen_ring_routing
from .verify import SUITES, run_suite


class _InputError(Exception):
    """An input file that cannot be used; :func:`main` prints it and returns 2."""


def _read_graph(path):
    try:
        return read_edge_list(path)
    except ValueError as exc:  # malformed edge list; the message names the file
        raise _InputError(f"--graph {exc}") from None


def _load_graph_mu(args):
    g = _read_graph(args.graph)
    if getattr(args, "mu", None):
        mu = _node_values(args.mu, "--mu", g.n)
    else:
        mu = np.ones(g.n)
    return g, build_be(g, mu)


def _node_values(path, flag: str, n: int) -> np.ndarray:
    """One value per node from a CSV file; its size must match the graph."""
    values = read_csv_matrix(path).reshape(-1)
    if values.size != n:
        raise _InputError(f"{flag} {path} has {values.size} values, the graph has n={n}")
    return values


def _node_rows(path, n: int) -> np.ndarray:
    """The ``--X`` feature matrix; it needs one row per node."""
    x = read_csv_matrix(path)
    if x.shape[0] != n:
        raise _InputError(f"--X {path} has {x.shape[0]} rows, the graph has n={n}")
    return x


def cmd_gen(args) -> int:
    out = Path(args.out)
    for i in range(args.count):
        seed = args.seed * 10_000_000 + i
        if args.task == "barbell":
            k = args.k_path
            inst = gen_barbell((args.n - k) // 2, k, seed=seed)
        elif args.task == "ring":
            inst = gen_ring_routing(args.n, seed=seed)
        else:
            inst = gen_graph_property(args.property, [args.n_min, args.n_max],
                                      seed=seed, p=args.p)
        dump_instance(out / f"instance_{i:04d}", inst)
    print(f"wrote {args.count} instances to {out}")
    return 0


def cmd_spectrum(args) -> int:
    g, be = _load_graph_mu(args)
    op = normalized_be(be, "symmetric") if args.normalized else be.operator()
    vals = eig_sym(op).eigenvalues
    rows = np.stack([np.arange(g.n, dtype=np.float64), vals], axis=1)
    write_csv_matrix(rows, args.out, header="k,lambda")
    print(f"spectrum ({g.n} eigenvalues) -> {args.out}")
    return 0


def cmd_diffuse(args) -> int:
    g, be = _load_graph_mu(args)
    if args.f0:
        f0 = _node_values(args.f0, "--f0", g.n)
    elif args.delta is not None:
        if not 0 <= args.delta < g.n:
            print(f"--delta {args.delta} is not a node of the graph (n={g.n})",
                  file=sys.stderr)
            return 2
        f0 = np.zeros(g.n)
        f0[args.delta] = 1.0
    else:
        print("either --f0 or --delta is required", file=sys.stderr)
        return 2
    f = heat_flow(be, f0, args.t, scheme=args.scheme, dt=args.dt)
    write_csv_matrix(f, args.out)
    print(f"diffused to t={args.t} -> {args.out}")
    return 0


def cmd_filter(args) -> int:
    g, be = _load_graph_mu(args)
    coeffs = np.atleast_1d(read_csv_matrix(args.coeffs)).reshape(-1)
    if args.K is not None:
        if args.K + 1 != coeffs.size:
            print(f"--K {args.K} but {coeffs.size} coefficients given",
                  file=sys.stderr)
            return 2
    filt = ChebFilter(list(coeffs))
    x = _node_rows(args.X, g.n)
    y = cheb_apply_be(filt, be, x,
                      kind="symmetric" if args.normalized else "unnormalized")
    write_csv_matrix(y, args.out)
    print(f"filtered signal -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    names = (sorted(SUITES) if args.suite == "all"
             else [name.strip() for name in args.suite.split(",")])
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        print(f"unknown suite(s) {unknown}; known: {sorted(SUITES)}", file=sys.stderr)
        return 2
    reports = []
    for name in names:
        kwargs = {}
        if name == "star-bounds" and args.n:
            kwargs["ns"] = [int(v) for v in args.n.split(",")]
        report = run_suite(name, **kwargs)
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
    cfg = RunConfig.from_json(args.config)
    if args.out:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seeds = [args.seed]
    summary = train_multi(cfg, parallel=args.parallel_seeds)
    for rec in summary["per_seed"]:
        print(f"seed {rec['seed']}: test {json.dumps(rec['test'])}")
    for key, agg in summary["aggregate"].items():
        print(f"test {key}: {agg['mean']:.6g} +- {agg['std']:.6g}")
    return 0


def _model_from_checkpoint(ckpt_dir):
    params, meta = load_checkpoint(ckpt_dir)
    mcfg = ModelConfig.from_dict(meta["model"])
    model = MuChebNet(int(meta["in_dim"]), mcfg, seed=int(meta.get("seed", 0)))
    model.load_params(params)
    return model


def cmd_eval(args) -> int:
    cfg = RunConfig.from_json(args.config)
    data = build_dataset(cfg.task)
    model = _model_from_checkpoint(args.checkpoint)
    metrics = evaluate(model, data, data.test)
    print(json.dumps(metrics, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(metrics, indent=2))
    return 0


def cmd_export_mu(args) -> int:
    model = _model_from_checkpoint(args.checkpoint)
    if model.parameterizer is None:
        print("checkpoint has no potential parameterizer", file=sys.stderr)
        return 2
    g = _read_graph(args.graph)
    x = _node_rows(args.X, g.n).reshape(g.n, -1)
    if x.shape[1] != model.in_dim:
        raise _InputError(f"--X {args.X} has {x.shape[1]} columns, the checkpoint "
                          f"needs in_dim={model.in_dim}")
    tape = ad.Tape()
    _, mu = model.forward(tape, context_for(g), x)
    mu = mu.data.reshape(-1)
    write_csv_matrix(mu, args.out)
    manifest = {"n": g.n, "node_order": "0-based ascending",
                "mu_min": float(mu.min()), "mu_max": float(mu.max()),
                "mu_mean": float(mu.mean())}
    if args.meta:
        meta = json.loads(Path(args.meta).read_text())
        for key in ("clean_path", "noisy_path", "bridge", "bell_a", "bell_b"):
            if key in meta:
                manifest[f"mu_mean_{key}"] = float(mu[meta[key]].mean())
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

    p = sub.add_parser("spectrum", help="eigenvalues to CSV (k,lambda rows)")
    p.add_argument("--graph", required=True)
    p.add_argument("--mu")
    p.add_argument("--normalized", nargs="?", const="sym", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("diffuse", help="heat flow under the weighted Laplacian")
    p.add_argument("--graph", required=True)
    p.add_argument("--mu")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--f0")
    p.add_argument("--delta", type=int, help="start from a unit impulse here")
    p.add_argument("--scheme", choices=["spectral", "euler"], default="spectral")
    p.add_argument("--dt", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("filter", help="apply a scalar Chebyshev filter")
    p.add_argument("--graph", required=True)
    p.add_argument("--mu")
    p.add_argument("--coeffs", required=True, help="CSV, one theta_k per line")
    p.add_argument("--K", type=int)
    p.add_argument("--X", required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("verify", help="run numerical verification suites")
    p.add_argument("--suite", default="all",
                   help="comma list of: " + ",".join(sorted(SUITES)))
    p.add_argument("--n", help="star sizes for star-bounds, e.g. 5,6,10,50")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
