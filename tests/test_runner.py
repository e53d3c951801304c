"""Dataset assembly, training loop behavior, reproducibility."""
import gc
import json
import os
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from be_spectral import autodiff as ad, runner
from be_spectral.runner import (RunConfig, build_dataset, evaluate, train_multi,
                                train_run)
from be_spectral.models import ModelConfig, MuChebNet
from be_spectral.graphs import barbell_graph, ring_graph
from be_spectral.tasks import gen_barbell
from be_spectral.verify import gradcheck_error, numeric_gradient


def tiny_barbell_config(**overrides):
    cfg = {
        "task": {"name": "barbell", "n": 12, "k_path": 4, "counts": [8, 4, 4],
                 "data_seed": 1},
        "model": {"layers": 1, "K": 3, "hidden": 4},
        "optim": {"lr": 0.02},
        "epochs": 5,
        "seeds": [0, 1],
        "patience": 50,
    }
    cfg.update(overrides)
    return RunConfig.from_dict(cfg)


class TestBuildDataset:
    def test_barbell_counts_and_sharing(self):
        data = build_dataset({"name": "barbell", "n": 12, "counts": [5, 2, 3],
                              "data_seed": 0})
        assert [len(data.train), len(data.val), len(data.test)] == [5, 2, 3]
        assert data.shared_graph
        g = data.train[0].graph
        assert all(inst.graph is g for inst in data.train + data.val + data.test)
        # different instances still have different features
        assert not np.array_equal(data.train[0].X, data.train[1].X)

    @pytest.mark.parametrize("task, graph", [
        ({"name": "barbell", "n": 50, "k_path": 4}, lambda: barbell_graph(23, 4)),
        ({"name": "barbell", "n_clique": 3, "k_path": 1}, lambda: barbell_graph(3, 1)),
        ({"name": "ring", "n": 16}, lambda: ring_graph(16)),
    ], ids=["barbell-50", "barbell-n_clique", "ring-16"])
    def test_fixed_topology_instances_share_the_memoized_graph(self, task, graph):
        data = build_dataset({**task, "counts": [3, 2, 2], "data_seed": 0})
        g = graph()
        assert all(inst.graph is g for inst in data.train + data.val + data.test)

    def test_shared_graph_mismatch_rejected(self):
        splits = [[gen_barbell(5, 2, seed=0)], [gen_barbell(6, 2, seed=1)]]
        with pytest.raises(ValueError, match="val instance 0"):
            runner._check_shared_graph(splits)

    def test_barbell_odd_total_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_dataset({"name": "barbell", "n": 13, "k_path": 4})

    def test_ring_dataset(self):
        data = build_dataset({"name": "ring", "n": 8, "counts": [4, 2, 2],
                              "data_seed": 0})
        assert data.loss_kind == "cross-entropy" and data.out_dim == 10
        labels = [int(i.y) for i in data.train]
        assert all(0 <= l < 10 for l in labels)

    def test_graph_property_dataset(self):
        data = build_dataset({"name": "graph-property", "property": "sssp",
                              "n_range": [8, 12], "counts": [3, 2, 2],
                              "data_seed": 0})
        assert not data.shared_graph and data.in_dim == 3
        sizes = {inst.graph.n for inst in data.train}
        assert all(8 <= n <= 12 for n in sizes)

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            build_dataset({"name": "mystery"})

    @pytest.mark.parametrize("task, key", [
        ({"name": "barbell", "n": 14, "kpath": 6}, "kpath"),
        ({"name": "graph-property", "modle": "barabasi-albert"}, "modle"),
    ])
    def test_misspelled_task_key_rejected(self, task, key):
        with pytest.raises(ValueError, match=f"unknown {task['name']} task keys: {key}"):
            build_dataset(task)

    def test_data_seed_argument_overrides_the_key(self):
        task = {"name": "barbell", "n": 12, "counts": [2, 0, 0]}
        given = build_dataset({**task, "data_seed": 0}, data_seed=5)
        npt.assert_array_equal(given.train[1].X,
                               build_dataset({**task, "data_seed": 5}).train[1].X)

    def test_data_seed_controls_instances(self):
        d1 = build_dataset({"name": "barbell", "n": 12, "counts": [2, 1, 1],
                            "data_seed": 0})
        d2 = build_dataset({"name": "barbell", "n": 12, "counts": [2, 1, 1],
                            "data_seed": 0})
        d3 = build_dataset({"name": "barbell", "n": 12, "counts": [2, 1, 1],
                            "data_seed": 5})
        npt.assert_array_equal(d1.train[0].X, d2.train[0].X)
        assert not np.array_equal(d1.train[0].X, d3.train[0].X)


class TestTrainRun:
    def test_record_fields_and_artifacts(self, tmp_path):
        cfg = tiny_barbell_config()
        rec = train_run(cfg, seed=0, outdir=tmp_path / "run")
        assert rec["config_hash"] == cfg.config_hash()
        assert rec["epochs_run"] == 5
        assert {"loss", "mse", "nmse"} <= set(rec["test"])
        history = [json.loads(l) for l in
                   (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        assert len(history) == 5
        assert history[0]["epoch"] == 0 and "val_loss" in history[0]

    def test_bit_identical_reruns(self, tmp_path):
        cfg = tiny_barbell_config()
        r1 = train_run(cfg, seed=0)
        r2 = train_run(cfg, seed=0)
        assert r1["test"] == r2["test"]
        assert r1["val"] == r2["val"]

    def test_seeds_differ(self):
        cfg = tiny_barbell_config()
        r1 = train_run(cfg, seed=0)
        r2 = train_run(cfg, seed=1)
        assert r1["test"]["mse"] != r2["test"]["mse"]

    def test_epochs_zero_gives_untrained_eval(self):
        cfg = tiny_barbell_config(epochs=0)
        rec = train_run(cfg, seed=0)
        assert rec["epochs_run"] == 0 and rec["best_epoch"] == -1
        assert rec["test"]["nmse"] > 0

    def test_early_stopping_stops(self):
        # lr=0 never improves on the first evaluation: patience kicks in
        cfg = tiny_barbell_config(epochs=200, patience=5)
        cfg.optim = {"lr": 0.0}
        rec = train_run(cfg, seed=0)
        assert rec["epochs_run"] <= 8

    def test_misspelled_optim_key_rejected(self):
        cfg = tiny_barbell_config()
        cfg.optim = {"lr": 0.01, "weight_decy": 1e-5}
        with pytest.raises(ValueError, match="unknown optim keys: weight_decy"):
            train_run(cfg, seed=0)

    @pytest.mark.parametrize("overrides, message", [
        ({"epochz": 3}, "unknown run-config keys: epochz"),
        ({"model": {"layrs": 1}}, "unknown model keys: layrs"),
        ({"model": {"mu": {"hiden": 4}}}, "unknown model.mu keys: hiden"),
        ({"model": {"mu": True}}, "model.mu must be a JSON object, got bool"),
        ({"model": {"K": -1}}, "K >= 0"),
    ], ids=["run-key", "model-key", "mu-key", "mu-not-object", "model-value"])
    def test_config_rejected_as_it_loads(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_barbell_config(**overrides)

    @pytest.mark.parametrize("task, message", [
        ({"name": "barbel", "n": 12}, "unknown task 'barbel'"),
        ({"name": "barbell", "n": 12, "kpath": 3}, "unknown barbell task keys: kpath"),
        ({"name": "barbell", "n": 13}, "total size 13 minus bridge 4 must be even"),
        ({"name": "barbell"}, "barbell task needs n or n_clique"),
        ({"name": "barbell", "n": 6, "k_path": 4}, "bell size must be >= 2"),
        ({"name": "ring", "n": 9}, "ring routing needs even n >= 8"),
        ({"name": "ring", "n": None}, "ring task: int"),
        ({"name": "ring", "counts": [4, 2]}, r"ring task counts \[4, 2\]"),
        ({"name": "ring", "counts": [4, -1, 2]}, "nonnegative"),
        ({"name": "graph-property", "property": "girth"}, "unknown property task 'girth'"),
        ({"name": "graph-property", "model": "watts"}, "unknown graph model 'watts'"),
        ({"name": "graph-property", "n_range": [9, 4]}, r"n_range \[9, 4\]"),
        ({"name": "ring", "classes": 0}, "ring task classes 0 must be at least 1"),
        ({"name": "graph-property", "p": 0}, r"p 0.0 must be in \(0, 1\]"),
        ({"name": "graph-property", "p": 1.5}, r"p 1.5 must be in \(0, 1\]"),
        (["barbell"], "task must be a JSON object, got list"),
    ], ids=["name", "key", "odd-barbell", "no-size", "one-node-bells", "odd-ring", "null",
            "two-counts", "negative-count", "property", "graph-model", "n_range",
            "no-classes", "p-zero", "p-above-one", "not-object"])
    def test_task_block_rejected_as_it_loads(self, monkeypatch, task, message):
        for gen in ("gen_barbell", "gen_ring_routing", "gen_graph_property"):
            monkeypatch.setattr(runner, gen, lambda *a, **k: pytest.fail("data made"))
        with pytest.raises(ValueError, match=message):
            tiny_barbell_config(task=task)

    def test_p_is_checked_only_where_it_is_used(self):
        # barabasi-albert graphs grow by attachment and never read p
        task = {"name": "graph-property", "model": "barabasi-albert", "p": 0,
                "n_range": [6, 8], "counts": [2, 1, 1]}
        tiny_barbell_config(task=task)
        inst = runner.task_spec(task).make(0)
        assert 6 <= inst.graph.n <= 8 and inst.graph.m > 0

    def test_config_must_be_an_object_with_a_model(self):
        with pytest.raises(ValueError, match="run-config must be a JSON object, got list"):
            RunConfig.from_dict([])
        with pytest.raises(ValueError, match="run-config: .*'model'"):
            RunConfig.from_dict({"task": {"name": "barbell", "n": 12}})

    def test_minibatching_runs(self):
        cfg = tiny_barbell_config(batch_size=3, epochs=2)
        rec = train_run(cfg, seed=0)
        assert rec["epochs_run"] == 2

    def test_plain_chebnet_model_config(self):
        cfg = tiny_barbell_config()
        cfg.model = {"layers": 1, "K": 3, "hidden": 4, "mu": None}
        rec = train_run(cfg, seed=0)
        assert "nmse" in rec["test"]

    def test_graph_property_batch_gradient_per_name(self):
        # one forward per graph on one tape: each parameter's gradient, keyed
        # by name as train_run keys it, must cover every graph of the batch
        data = build_dataset({"name": "graph-property", "property": "sssp",
                              "n_range": [15, 25], "counts": [4, 1, 1], "data_seed": 13})
        mcfg = ModelConfig(layers=2, K=6, hidden=16, out_dim=data.out_dim,
                           readout=data.readout)
        model = MuChebNet(data.in_dim, mcfg, seed=0)
        tape = ad.Tape()
        loss, _, _ = runner._batch_loss(model, data, data.train, tape)
        grads = {t.name: g for t, g in ad.backward(tape, loss).items()}

        def lossfn(_):
            return float(runner._batch_loss(model, data, data.train, ad.Tape())[0].data)

        # no gradient at init: the zero mu head blocks mu.W* and mu.b*, and
        # the sym operator ignores the uniform shift of mu that mu.bhead makes
        coords = [("layer0.theta1", 0), ("layer1.theta3", 5), ("layer0.b", 2),
                  ("readout.W", 0), ("readout.b", 0), ("mu.Whead", 1)]
        fd = numeric_gradient(lossfn, model.params, coords)
        for (name, i), want in fd.items():
            got = float(grads[name].reshape(-1)[i])
            assert abs(want) > 1e-3, (name, want)
            assert gradcheck_error(got, want) <= 1e-6, (name, got, want)
        assert len(tape.leaves()) == len(model.params)


    def test_steps_freed_without_cyclic_collector(self, monkeypatch):
        # tensors refer to their tape weakly, so every train step and every
        # evaluate frees its tape and arrays by reference counting alone
        refs = []

        def batch_loss(model, data, instances, tape, _orig=runner._batch_loss):
            out = _orig(model, data, instances, tape)
            refs.append((weakref.ref(tape), weakref.ref(out[0].data)))
            return out

        monkeypatch.setattr(runner, "_batch_loss", batch_loss)
        enabled = gc.isenabled()
        gc.disable()
        try:
            train_run(tiny_barbell_config(epochs=2), seed=0)
            alive = [r for pair in refs for r in pair if r() is not None]
        finally:
            if enabled:
                gc.enable()
        assert len(refs) == 6  # two steps and two evals, then final val and test
        assert not alive

    def test_one_training_step_alive_at_a_time(self, monkeypatch):
        # a finished step's tape, loss and gradients die as the step returns,
        # so no forward runs beside an earlier step's tape
        earlier, alive_at_entry = [], []

        def batch_loss(model, data, instances, tape, _orig=runner._batch_loss):
            alive_at_entry.append(sum(r() is not None for r in earlier))
            out = _orig(model, data, instances, tape)
            earlier.extend([weakref.ref(tape), weakref.ref(out[0].data)])
            return out

        def backward(tape, loss, _orig=ad.backward):
            grads = _orig(tape, loss)
            earlier.extend(weakref.ref(g) for g in grads.values())
            return grads

        monkeypatch.setattr(runner, "_batch_loss", batch_loss)
        monkeypatch.setattr(ad, "backward", backward)
        enabled = gc.isenabled()
        gc.disable()
        try:
            train_run(tiny_barbell_config(epochs=2, batch_size=3), seed=0)
        finally:
            if enabled:
                gc.enable()
        assert len(alive_at_entry) == 2 * (3 + 1) + 2  # three steps and an eval per epoch
        assert alive_at_entry == [0] * len(alive_at_entry)

    def test_barbell_peak_memory(self):
        # criterion 8's barbell config for two epochs: one step's tape at a
        # time and one Chebyshev adjoint buffer per backward hold the traced
        # peak near 30 MB
        cfg = RunConfig.from_dict({
            "task": {"name": "barbell", "n": 50, "k_path": 4, "counts": [96, 24, 32],
                     "data_seed": 7},
            "model": {"layers": 2, "K": 9, "hidden": 16},
            "optim": {"lr": 0.01, "weight_decay": 1e-5}, "epochs": 2})
        tracemalloc.start()
        try:
            train_run(cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6, peak

    @pytest.mark.parametrize("fields, message", [
        ({"eval_every": 0}, "eval_every 0 must be an integer >= 1"),
        ({"eval_every": 2.5}, "eval_every 2.5 must be an integer >= 1"),
        ({"epochs": -3}, "epochs -3 must be an integer >= 0"),
        ({"epochs": True}, "epochs True must be an integer >= 0"),
        ({"patience": -1}, "patience -1 must be an integer >= 0"),
        ({"batch_size": -1}, "batch_size -1 must be null or an integer >= 1"),
        ({"batch_size": 0}, "batch_size 0 must be null or an integer >= 1"),
        ({"batch_size": "4"}, "batch_size '4' must be null or an integer >= 1"),
        ({"seeds": []}, r"seeds \[\] must be a non-empty list of integers"),
        ({"seeds": 3}, "seeds 3 must be a non-empty list of integers"),
        ({"seeds": [0, 1.5]}, r"seeds \[0, 1.5\] must be a non-empty list"),
    ], ids=["eval-every-zero", "eval-every-float", "epochs-negative", "epochs-bool",
            "patience-negative", "batch-negative", "batch-zero", "batch-string",
            "seeds-empty", "seeds-int", "seeds-float"])
    def test_loop_fields_rejected_as_they_load(self, monkeypatch, fields, message):
        monkeypatch.setattr(runner, "task_spec", lambda *a, **k: pytest.fail("task parsed"))
        with pytest.raises(ValueError, match=f"run-config {message}"):
            tiny_barbell_config(**fields)


class TestTrainMulti:
    def test_aggregate_mean_std(self, tmp_path):
        cfg = tiny_barbell_config(out=str(tmp_path / "multi"))
        summary = train_multi(cfg)
        assert len(summary["per_seed"]) == 2
        agg = summary["aggregate"]["nmse"]
        vals = [r["test"]["nmse"] for r in summary["per_seed"]]
        assert agg["mean"] == pytest.approx(np.mean(vals))
        assert agg["std"] == pytest.approx(np.std(vals))
        assert (tmp_path / "multi" / "summary.json").exists()
        assert (tmp_path / "multi" / "seed0" / "record.json").exists()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = tiny_barbell_config()
        serial = train_multi(cfg)
        parallel = train_multi(cfg, parallel=True)
        for r1, r2 in zip(serial["per_seed"], parallel["per_seed"]):
            assert r1["test"] == r2["test"]

    @pytest.mark.parametrize("threads", ["0", "abc"])
    def test_bad_thread_count_raises_before_the_pool(self, monkeypatch, threads):
        monkeypatch.setenv("BE_SPECTRAL_THREADS", threads)
        monkeypatch.setattr(runner, "ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("pool started"))
        monkeypatch.setattr(runner, "_train_seed_worker", lambda *a: pytest.fail("trained"))
        with pytest.raises(ValueError, match="BE_SPECTRAL_THREADS"):
            train_multi(tiny_barbell_config(), parallel=True)

    def test_thread_count(self, monkeypatch):
        monkeypatch.setenv("BE_SPECTRAL_THREADS", " 3 ")
        assert runner.worker_count() == 3
        monkeypatch.delenv("BE_SPECTRAL_THREADS")
        assert runner.worker_count() == (os.cpu_count() or 1)


class TestRingTraining:
    def test_ring_metrics_present(self):
        cfg = RunConfig.from_dict({
            "task": {"name": "ring", "n": 8, "counts": [8, 4, 4],
                     "data_seed": 2},
            "model": {"layers": 1, "K": 4, "hidden": 8},
            "optim": {"lr": 0.01},
            "epochs": 3,
            "seeds": [0],
        })
        rec = train_run(cfg, seed=0)
        test = rec["test"]
        assert {"accuracy", "mu_clean_mean", "mu_noisy_mean",
                "mu_contrast"} <= set(test)
        assert 0.0 <= test["accuracy"] <= 1.0


class TestEvaluateDirect:
    def test_untrained_barbell_nmse_lands_in_failure_bands(self):
        # an untrained model carries no cross-bridge information, so its
        # normalized error sits at or above the oversquashing anchor
        data = build_dataset({"name": "barbell", "n": 50, "k_path": 4,
                              "counts": [2, 2, 16], "data_seed": 4})
        model = MuChebNet(1, ModelConfig(layers=2, K=9, hidden=16), seed=0)
        metrics = evaluate(model, data, data.test)
        assert metrics["nmse"] > 0.5
