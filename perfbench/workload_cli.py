"""The ``spectral-cli`` workload: in-process ``be_spectral.cli.main`` calls.

One epoch is one pass of three commands over their size ladders, nine
calls in all, made one after the other by a single caller:

* ``spectrum`` and ``diffuse --t 1 --delta 0`` on n = 100, 200, 400, where
  the time goes to ``eig_sym`` (``spectrum`` needs only eigenvalues,
  ``diffuse`` also the eigenvectors);
* ``filter`` with K = 9 over 4 channels on n = 1000, 4000, 10000, where it
  goes to power iteration and matvec; 4000 is the last dense size below
  ``DENSE_LIMIT`` and 10000 keeps edge-list storage.

Inputs are connected sparse random graphs, a ring backbone plus random
edges (mean degree about 6), with ``mu`` uniform in [0.1, 2]. ``--seed``
draws the ``spectrum``/``diffuse`` graphs and the filter signals and
coefficients. The filter graphs are fixed: the number of power-iteration
matvecs depends so strongly on the graph (117 to 5000 at n = 4000 over
twelve random graphs) that per-seed graphs would make the filter time a
property of the seed, not of the code.

Every output is checked against a reference built here without the
program: ``numpy.linalg.eigh`` for spectra and heat kernels,
``scipy.sparse`` for the filter recurrence and the true ``lambda_max``.
"""
from __future__ import annotations

import contextlib
import io
import logging
import math
import os
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from be_spectral import chebyshev, cli, fileio, graphs, operators, spectral
from spans import Tracer, patched
from workload_train import peak_rss_mb

SPECTRUM_SIZES = (100, 200, 400)
FILTER_SIZES = (1000, 4000, 10000)
TINY_SPECTRUM_SIZES = (12, 16, 24)
TINY_FILTER_SIZES = (60, 120, 4500)
RUNGS = ("small", "mid", "large")
# at this seed power iteration makes 479, 950 and 323 matvecs on the
# three filter sizes
FILTER_GRAPH_SEED = 0
K = 9
CHANNELS = 4
HEAT_T = 1.0
# set-ups before the loop; one more follows every command, so that the
# median of setup_s samples the machine over the whole run, as the passes do
SETUP_REPEATS = 3


def random_graph(n: int, rng):
    """Ring backbone plus 2n random pairs; returns (canonical edges, mu)."""
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    extra = rng.integers(0, n, size=(2 * n, 2))
    pairs = np.concatenate([ring, extra[extra[:, 0] != extra[:, 1]]])
    edges = np.unique(np.sort(pairs, axis=1), axis=0)
    return edges, rng.uniform(0.1, 2.0, n)


def laplacian(n, edges, mu):
    """Independent sparse L_mu = D_mu - A_mu."""
    w = 0.5 * (mu[edges[:, 0]] + mu[edges[:, 1]])
    a = sp.coo_matrix((np.concatenate([w, w]),
                       (np.concatenate([edges[:, 0], edges[:, 1]]),
                        np.concatenate([edges[:, 1], edges[:, 0]]))), shape=(n, n)).tocsr()
    d = np.asarray(a.sum(axis=1)).ravel()
    return (sp.diags(d) - a).tocsr(), d


class Inputs:
    """The input files of one run and the references their outputs are checked against."""

    def __init__(self, workdir, seed: int, tiny: bool):
        self.dir = workdir
        self.seed = seed
        self.spectrum_sizes = TINY_SPECTRUM_SIZES if tiny else SPECTRUM_SIZES
        self.filter_sizes = TINY_FILTER_SIZES if tiny else FILTER_SIZES
        self.graphs = {}

    def path(self, name) -> str:
        return os.path.join(self.dir, name)

    def write(self) -> None:
        """Generate every graph and signal and write them with the program's writers."""
        for n in self.spectrum_sizes:
            self._write_graph(n, np.random.default_rng([self.seed, n]))
        for n in self.filter_sizes:
            self._write_graph(n, np.random.default_rng([FILTER_GRAPH_SEED, n]))
            x = np.random.default_rng([self.seed, n, 1]).standard_normal((n, CHANNELS))
            fileio.write_csv_matrix(x, self.path(f"x{n}.csv"))
        theta = np.random.default_rng([self.seed, 0]).uniform(-1.0, 1.0, K + 1)
        fileio.write_csv_matrix(theta, self.path("theta.csv"))

    def _write_graph(self, n, rng):
        edges, mu = random_graph(n, rng)
        fileio.write_edge_list(graphs.build_graph(n, edges), self.path(f"g{n}.edges"))
        fileio.write_csv_matrix(mu, self.path(f"mu{n}.csv"))
        self.graphs[n] = (edges, mu)

    def commands(self):
        """(kind, n, argv) for the nine calls of one pass."""
        out = []
        for kind in ("spectrum", "diffuse"):
            for n in self.spectrum_sizes:
                argv = [kind, "--graph", self.path(f"g{n}.edges"),
                        "--mu", self.path(f"mu{n}.csv"),
                        "--out", self.path(f"out_{kind}{n}.csv")]
                if kind == "diffuse":
                    argv += ["--t", str(HEAT_T), "--delta", "0"]
                out.append((kind, n, argv))
        for n in self.filter_sizes:
            out.append(("filter", n, [
                "filter", "--graph", self.path(f"g{n}.edges"),
                "--mu", self.path(f"mu{n}.csv"), "--coeffs", self.path("theta.csv"),
                "--K", str(K), "--X", self.path(f"x{n}.csv"),
                "--out", self.path(f"out_filter{n}.csv")]))
        return out

    def prepare_references(self) -> None:
        """Eigendecompositions and true spectral radii, computed once per run."""
        self.refs = {}
        for n in self.spectrum_sizes:
            lap, _ = laplacian(n, *self.graphs[n])
            self.refs[n] = np.linalg.eigh(lap.toarray())
        for n in self.filter_sizes:
            lap, d = laplacian(n, *self.graphs[n])
            v0 = np.ones(n)
            lam = float(spla.eigsh(lap, k=1, which="LA", v0=v0,
                                   return_eigenvectors=False)[0])
            self.refs[n] = (lap, lam, 2.0 * float(d.max()))
        self.theta = np.loadtxt(self.path("theta.csv"), delimiter=",")

    def check(self, kind: str, n: int, lambdas_used) -> str | None:
        """Why the output of one command is wrong, or None."""
        out = self.path(f"out_{kind}{n}.csv")
        if kind == "spectrum":
            vals, _ = self.refs[n]
            got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[:, 1]
            err = np.abs(got - vals).max() if got.shape == vals.shape else math.inf
            if not err <= 1e-9 * abs(vals[-1]):
                return f"eigenvalues off by {err:.3e}"
            return None
        if kind == "diffuse":
            vals, vecs = self.refs[n]
            want = vecs @ (np.exp(-HEAT_T * np.maximum(vals, 0.0)) * vecs[0])
            got = np.loadtxt(out, delimiter=",")
            err = np.abs(got - want).max() if got.shape == want.shape else math.inf
            if not err <= 1e-9 * np.abs(want).max():
                return f"heat kernel off by {err:.3e}"
            if not abs(got.sum() - 1.0) <= 1e-9:
                return f"mass {got.sum()!r} is not conserved"
            return None
        lap, lam_true, gershgorin = self.refs[n]
        if len(lambdas_used) != 1:
            return f"{len(lambdas_used)} cheb_apply calls, expected 1"
        lam = lambdas_used[0]
        if not lam_true * (1.0 - 1e-12) <= lam <= gershgorin:
            return f"lambda_max {lam!r} outside [{lam_true!r}, {gershgorin!r}]"
        x = np.loadtxt(self.path(f"x{n}.csv"), delimiter=",")
        want = _cheb_reference(lap, lam, self.theta, x)
        got = np.loadtxt(out, delimiter=",")
        err = np.abs(got - want).max() if got.shape == want.shape else math.inf
        if not err <= 1e-9 * np.abs(want).max():
            return f"filter output off by {err:.3e}"
        return None


def _cheb_reference(lap, lam, theta, x):
    """sum_k theta_k T_k(2 L / lam - I) x with a scipy.sparse matvec."""
    ls = lambda v: (2.0 / lam) * (lap @ v) - v
    z_prev, z = x, ls(x)
    y = theta[0] * z_prev + theta[1] * z
    for k in range(2, len(theta)):
        z_prev, z = z, 2.0 * ls(z) - z_prev
        y = y + theta[k] * z
    return y


class _NonConvergence(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "did not converge" in record.getMessage():
            self.count += 1


def _lambda_recorder(used: list):
    """Wraps chebyshev.cheb_apply to record the lambda_max each call used."""
    orig = chebyshev.cheb_apply

    def cheb_apply(filt, op, x):
        used.append(filt.lambda_max)
        return orig(filt, op, x)
    return cheb_apply


def _trace_bindings(tr: Tracer):
    n_of = lambda op, *a, **k: {"n": op.n}
    op_n = lambda filt, op, *a, **k: {"n": op.n}
    dense_init = vars(operators.SymOperator)["__init__"]

    def sym_init(self, *, dense=None, **kwargs):
        if dense is not None:
            tr.count("dense_bytes", int(np.asarray(dense).size) * 8)
        return dense_init(self, dense=dense, **kwargs)

    def write_csv_matrix(arr, path, header=None, _orig=cli.write_csv_matrix):
        s = tr.open("fileio.write")
        try:
            _orig(arr, path, header=header)
        finally:
            tr.close(s)
        s.attrs["bytes"] = os.path.getsize(path)

    matvec_kind = lambda op, x: "matvec.dense" if op.is_dense else "matvec.edges"
    eig = tr.span("eig_sym", spectral.eig_sym, attrs=n_of)
    return [
        (cli, "read_edge_list", tr.span("fileio.read", cli.read_edge_list)),
        (cli, "read_csv_matrix", tr.span("fileio.read", cli.read_csv_matrix)),
        (cli, "write_csv_matrix", write_csv_matrix),
        (cli, "build_be", tr.span("build_be", cli.build_be)),
        (cli, "heat_flow", tr.span("heat_flow", cli.heat_flow)),
        (cli, "cheb_apply_be", tr.span("cheb_apply_be", cli.cheb_apply_be)),
        (cli, "eig_sym", eig),
        (spectral, "eig_sym", eig),
        (chebyshev, "lambda_max_power",
         tr.span("lambda_max", chebyshev.lambda_max_power, attrs=n_of)),
        (chebyshev, "cheb_apply", tr.span("cheb_apply", chebyshev.cheb_apply, attrs=op_n)),
        (operators.SymOperator, "matvec",
         tr.leaf(matvec_kind, operators.SymOperator.matvec)),
        (operators.SymOperator, "__init__", sym_init),
    ]


def _pass(inputs: Inputs, tracer: Tracer | None, between=None):
    """One pass of the nine commands; returns per-command records.

    ``between`` is called after each command, outside its timing.
    """
    records = []
    pass_span = tracer.open("pass") if tracer is not None else None
    for kind, n, argv in inputs.commands():
        used = []
        span = (tracer.open("command", op=tracer.new_op(), kind=kind, n=n)
                if tracer is not None else None)
        error = None
        t = time.perf_counter()
        try:
            with patched((chebyshev, "cheb_apply", _lambda_recorder(used))), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                error = f"exit code {rc}"
        except Exception as exc:  # a failed command is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        if span is not None:
            tracer.close(span)
        records.append({"kind": kind, "n": n, "s": seconds, "error": error,
                        "lambdas": used})
        if between is not None:
            between()
    if pass_span is not None:
        tracer.close(pass_span)
    for r in records:
        if r["error"] is None:
            r["error"] = inputs.check(r["kind"], r["n"], r["lambdas"])
    return records


def _loop(inputs, seconds, tracer=None, between=None):
    passes, peak_mb = [], None
    bindings = _trace_bindings(tracer) if tracer is not None else []
    walls = []
    t0 = time.perf_counter()
    with patched(*bindings):
        while True:
            t = time.perf_counter()
            passes.append(_pass(inputs, tracer, between))
            walls.append(time.perf_counter() - t)
            if peak_mb is None:
                peak_mb = peak_rss_mb()
            if time.perf_counter() - t0 + 0.5 * statistics.median(walls) > seconds:
                return passes, peak_mb


def _summarise(loop):
    passes, peak_mb = loop
    records = [r for p in passes for r in p]
    problems = [f"{r['kind']} n={r['n']}: {r['error']}" for r in records if r["error"]]
    pass_ms = [1e3 * sum(r["s"] for r in p) for p in passes]
    sweeps = {kind: statistics.median(sum(r["s"] for r in p if r["kind"] == kind)
                                      for p in passes)
              for kind in ("spectrum", "diffuse", "filter")}
    return {"attempted": len(records), "failed": len(problems), "problems": problems,
            "pass_ms": pass_ms, "sweeps": sweeps, "peak_rss_mb": peak_mb}


def _timing_metrics(setup_times, summary):
    ms = summary["pass_ms"]
    return {"setup_s": statistics.median(setup_times),
            "epoch_ms.p50": statistics.median(ms),
            "epochs_per_s": len(ms) / (sum(ms) / 1e3),
            "peak_rss_mb": summary["peak_rss_mb"]}


def _layer_metrics(tr: Tracer, inputs: Inputs, nonconverged: int):
    """Per-pass totals, and per-call medians for the size rungs."""
    passes = [s for s in tr.spans if s.name == "pass"]
    npass = max(len(passes), 1)
    kids = tr.children()
    within = [s for p in passes for s in tr.subtree(p, kids)]

    def median_ms(name, n):
        vals = [s.ns / 1e6 for s in within if s.name == name and s.attrs.get("n") == n]
        return statistics.median(vals) if vals else 0.0

    def per_pass_ms(name):
        return sum(s.ns for s in within if s.name == name) / 1e6 / npass

    def leaf(s, name, i):
        return s.leaf.get(name, (0, 0))[i]

    out = {}
    for rung, n in zip(RUNGS, inputs.spectrum_sizes):
        out[f"spectral.eig_sym_ms.{rung}"] = median_ms("eig_sym", n)
    for rung, n in zip(RUNGS, inputs.filter_sizes):
        out[f"spectral.lambda_max_ms.{rung}"] = median_ms("lambda_max", n)
        out[f"chebyshev.cheb_apply_ms.{rung}"] = median_ms("cheb_apply", n)
        calls = [leaf(s, "matvec.dense", 0) + leaf(s, "matvec.edges", 0)
                 for s in within if s.name == "lambda_max" and s.attrs["n"] == n]
        out[f"operators.matvec_calls.{rung}"] = statistics.median(calls) if calls else 0
    for kind in ("dense", "edges"):
        calls = sum(leaf(s, f"matvec.{kind}", 0) for s in within)
        ns = sum(leaf(s, f"matvec.{kind}", 1) for s in within)
        out[f"operators.matvec_ms.{kind}"] = ns / 1e6 / calls if calls else 0.0
    out["spectral.power_nonconverged"] = nonconverged / npass
    out["operators.dense_bytes"] = sum(s.attrs.get("dense_bytes", 0) for s in within) / npass
    out["be.build_be_ms"] = per_pass_ms("build_be")
    out["be.heat_flow_ms"] = per_pass_ms("heat_flow")
    out["fileio.read_ms"] = per_pass_ms("fileio.read")
    out["fileio.write_ms"] = per_pass_ms("fileio.write")
    out["fileio.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in within
                                      if s.name == "fileio.write") / npass
    return out


def run(seed: int, seconds: float, trace: bool, tiny: bool, workdir):
    """Measure the workload; see run.py for the shape of the result."""
    inputs = Inputs(workdir, seed, tiny)
    setup_times = []

    def set_up():
        t = time.perf_counter()
        inputs.write()
        setup_times.append(time.perf_counter() - t)

    for _ in range(SETUP_REPEATS):
        set_up()
    inputs.prepare_references()
    handler = _NonConvergence()
    logger = logging.getLogger(spectral.__name__)
    logger.addHandler(handler)
    try:
        plain = _summarise(_loop(inputs, seconds / 2 if trace else seconds,
                                 between=set_up))
        sweeps = {f"cli.{k}_s": v for k, v in plain["sweeps"].items()}
        result = {"summaries": [plain], "e2e": _timing_metrics(setup_times, plain),
                  "report": {**sweeps, "epochs (passes)": len(plain["pass_ms"])}}
        if not trace:
            return result
        tr = Tracer()
        s = tr.open("setup")
        inputs.write()
        traced_setup = tr.close(s).ns / 1e9
        handler.count = 0
        traced = _summarise(_loop(inputs, seconds / 2, tracer=tr))
        layer = _layer_metrics(tr, inputs, handler.count)
    finally:
        logger.removeHandler(handler)
    layer.update(sweeps)
    result.update(summaries=[plain, traced],
                  traced_e2e=_timing_metrics([traced_setup], traced),
                  layer=layer, tracer=tr,
                  roots=[s for s in tr.spans if s.name == "pass"])
    return result
