"""File formats and the command-line surface."""
import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from be_spectral import build_graph, cli, fileio, gen_barbell, ring_graph
from be_spectral.cli import main
from be_spectral.models import ModelConfig, MuChebNet
from be_spectral.fileio import (dump_instance, load_checkpoint,
                                read_csv_matrix, read_edge_list,
                                save_checkpoint, write_csv_matrix,
                                write_edge_list)


class TestEdgeListFormat:
    def test_roundtrip(self, tmp_path):
        g = ring_graph(6)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        npt.assert_array_equal(g.edges, g2.edges)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a comment\n0 1\n\n1 2  # trailing\n 2  3 \n")
        g = read_edge_list(path)
        assert g.n == 4 and g.m == 3

    def test_explicit_node_count_keeps_isolated(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n")
        assert read_edge_list(path, n=5).n == 5

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="expected"):
            read_edge_list(path)

    @pytest.mark.parametrize("bad", ["1 2 3", "4", "1 2.0", "1e3 2", "0x10 1", "a b"])
    def test_bad_line_is_named_by_number(self, tmp_path, bad):
        path = tmp_path / "g.edges"
        path.write_text(f"# header\n0 1\n{bad}  # note\n2 3\n")
        with pytest.raises(ValueError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:3: expected 'i j', got {bad + '  # note'!r}"

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n"])
    def test_file_without_edges(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file is not a warning
            g = read_edge_list(path, n=3)
        assert (g.n, g.m) == (3, 0)
        assert g.edges.shape == (0, 2) and list(g.indptr) == [0, 0, 0, 0]
        with pytest.raises(ValueError, match="explicit node count"):
            read_edge_list(path)

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(build_graph(5, [(3, 1), (0, 4), (1, 3), (2, 0)]), path)
        assert path.read_bytes() == b"0 2\n0 4\n1 3\n"
        write_edge_list(build_graph(3, []), path)
        assert path.read_bytes() == b""

    def test_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_VALUES", 6)
        g = ring_graph(11)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert path.read_text() == "".join(f"{i} {j}\n" for i, j in g.edges)
        npt.assert_array_equal(read_edge_list(path).edges, g.edges)


class TestCsvAndCheckpoints:
    def test_csv_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "x.csv"
        write_csv_matrix(arr, path)
        npt.assert_allclose(read_csv_matrix(path), arr, atol=0)

    @pytest.mark.parametrize("arr, header, golden", [
        (np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1e-300, 2.0]), None,
         b"0.10000000000000001\n-0\nnan\ninf\n-inf\n1e-300\n2\n"),
        (np.array([[0.0, 1.5], [1.0, 1 / 3], [2.0, -2e20]]), "k,lambda",
         b"k,lambda\n0,1.5\n1,0.33333333333333331\n2,-2e+20\n"),
        (np.array([[1.0, np.nan], [-0.0, 5e-324]]), "",
         b"1,nan\n-0,4.9406564584124654e-324\n"),
        (np.zeros((0, 2)), "a,b", b"a,b\n"),
    ])
    def test_csv_golden_bytes(self, tmp_path, arr, header, golden):
        path = tmp_path / "x.csv"
        write_csv_matrix(arr, path, header=header)
        assert path.read_bytes() == golden

    def test_csv_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_VALUES", 7)
        arr = np.random.default_rng(2).standard_normal((10, 3))
        path = tmp_path / "x.csv"
        write_csv_matrix(arr, path)
        assert path.read_text() == "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in arr)

    @pytest.mark.parametrize("arr", [np.float64(1.0), np.zeros((2, 2, 2))])
    def test_csv_rejects_0d_and_3d(self, tmp_path, arr):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            write_csv_matrix(arr, tmp_path / "x.csv")

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        params = {"layer0.theta0": rng.standard_normal((3, 4)),
                  "readout.b": rng.standard_normal(2),
                  "mu.Whead": np.zeros((4, 1))}
        save_checkpoint(tmp_path / "ckpt", params, meta={"note": 1})
        loaded, meta = load_checkpoint(tmp_path / "ckpt")
        assert meta == {"note": 1}
        assert set(loaded) == set(params)
        for k in params:
            npt.assert_array_equal(loaded[k], params[k])

    def test_checkpoint_blob_of_wrong_size(self, tmp_path):
        save_checkpoint(tmp_path / "ckpt", {"a": np.zeros((2, 3)), "b": np.ones(4)})
        blob = tmp_path / "ckpt" / "param_0000.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ValueError, match="param_0000.bin: 40 bytes, shape \\(2, 3\\) needs 48"):
            load_checkpoint(tmp_path / "ckpt")

    def test_instance_dump(self, tmp_path):
        inst = gen_barbell(3, 2, seed=0)
        d = dump_instance(tmp_path / "inst", inst)
        assert (d / "graph.edges").exists()
        assert (d / "x.csv").exists() and (d / "y.csv").exists()
        assert (d / "mask.csv").exists()
        meta = json.loads((d / "meta.json").read_text())
        assert meta["task"] == "barbell"


class TestCli:
    def test_spectrum_command(self, tmp_path):
        g = ring_graph(4)
        gpath = tmp_path / "g.edges"
        write_edge_list(g, gpath)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--graph", str(gpath), "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        npt.assert_allclose(rows[:, 1], [0, 2, 2, 4], atol=1e-9)

    def test_spectrum_with_mu_and_normalization(self, tmp_path):
        g = ring_graph(4)
        gpath = tmp_path / "g.edges"
        write_edge_list(g, gpath)
        mupath = tmp_path / "mu.csv"
        write_csv_matrix(np.array([1.0, 1.0, 3.0, 1.0]), mupath)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--graph", str(gpath), "--mu", str(mupath),
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        expected = [0.0, (9 - np.sqrt(17)) / 2, 3.0, (9 + np.sqrt(17)) / 2]
        npt.assert_allclose(rows[:, 1], expected, atol=1e-9)
        out2 = tmp_path / "specn.csv"
        assert main(["spectrum", "--graph", str(gpath), "--normalized",
                     "--out", str(out2)]) == 0
        rows2 = np.loadtxt(out2, delimiter=",", skiprows=1)
        npt.assert_allclose(rows2[:, 1], [0, 1, 1, 2], atol=1e-9)

    def test_diffuse_command(self, tmp_path):
        g = ring_graph(6)
        gpath = tmp_path / "g.edges"
        write_edge_list(g, gpath)
        out = tmp_path / "f.csv"
        assert main(["diffuse", "--graph", str(gpath), "--t", "100.0",
                     "--delta", "0", "--out", str(out)]) == 0
        f = read_csv_matrix(out)
        npt.assert_allclose(f, np.full(6, 1 / 6), atol=1e-8)
        assert main(["diffuse", "--graph", str(gpath), "--t", "1.0",
                     "--out", str(out)]) == 2  # no initial condition given

    @pytest.mark.parametrize("delta", ["-1", "6"])
    def test_diffuse_delta_outside_graph(self, tmp_path, capsys, delta):
        gpath = tmp_path / "g.edges"
        write_edge_list(ring_graph(6), gpath)
        out = tmp_path / "f.csv"
        assert main(["diffuse", "--graph", str(gpath), "--t", "1.0",
                     "--delta", delta, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"--delta {delta}" in err and "n=6" in err

    def test_filter_command(self, tmp_path):
        g = ring_graph(5)
        gpath = tmp_path / "g.edges"
        write_edge_list(g, gpath)
        write_csv_matrix(np.array([1.0, 0.0]), tmp_path / "theta.csv")
        x = np.arange(5.0)
        write_csv_matrix(x, tmp_path / "x.csv")
        out = tmp_path / "y.csv"
        assert main(["filter", "--graph", str(gpath),
                     "--coeffs", str(tmp_path / "theta.csv"), "--K", "1",
                     "--X", str(tmp_path / "x.csv"), "--out", str(out)]) == 0
        npt.assert_allclose(read_csv_matrix(out), x, atol=1e-12)  # identity
        assert main(["filter", "--graph", str(gpath),
                     "--coeffs", str(tmp_path / "theta.csv"), "--K", "3",
                     "--X", str(tmp_path / "x.csv"), "--out", str(out)]) == 2

    @pytest.mark.parametrize("flag", ["--mu", "--f0", "--X"])
    def test_signal_file_of_the_wrong_size(self, tmp_path, capsys, flag):
        gpath, five = tmp_path / "g.edges", tmp_path / "five.csv"
        write_edge_list(ring_graph(6), gpath)
        write_csv_matrix(np.ones(5), five)
        write_csv_matrix(np.ones(2), tmp_path / "theta.csv")
        out = tmp_path / "out.csv"
        argv = {"--mu": ["spectrum", "--mu", str(five)],
                "--f0": ["diffuse", "--t", "1.0", "--f0", str(five)],
                "--X": ["filter", "--coeffs", str(tmp_path / "theta.csv"),
                        "--X", str(five)]}[flag]
        assert main(argv + ["--graph", str(gpath), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{flag} {five} has 5" in err and "n=6" in err

    @pytest.mark.parametrize("text", ["0 1\n1 x\n", "0 1\n1 1\n"])
    def test_malformed_edge_list(self, tmp_path, capsys, text):
        gpath = tmp_path / "g.edges"
        gpath.write_text(text)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--graph", str(gpath), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--graph {gpath}" in err

    def test_gen_command(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen", "--task", "barbell", "--n", "12", "--count", "3",
                     "--seed", "5", "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 3
        meta = json.loads((out / "instance_0000" / "meta.json").read_text())
        assert meta["n_clique"] == 4

    def test_verify_algebra_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "algebra", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report[0]["suite"] == "algebra" and report[0]["passed"]
        assert "[PASS]" in capsys.readouterr().out

    def test_verify_factorization_suite(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "factorization", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())[0]["suite"] == "factorization"

    def test_verify_star_bounds_sizes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "star-bounds", "--n", "5,6",
                     "--out", str(out)])
        assert code == 0
        names = {c["name"] for c in json.loads(out.read_text())[0]["checks"]}
        assert "gap-bound-n5" in names and "gap-bound-n50" not in names

    def test_verify_sizes_reach_a_listed_suite_after_a_space(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "factorization, star-bounds", "--n", "5,6",
                     "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert [r["suite"] for r in reports] == ["factorization", "star-bounds"]
        names = {c["name"] for c in reports[1]["checks"]}
        assert "gap-bound-n5" in names and "gap-bound-n50" not in names

    @pytest.mark.parametrize("suites", ["bogus", "algebra,bogus"])
    def test_verify_unknown_suite_rejected_before_any_suite_runs(
            self, tmp_path, capsys, monkeypatch, suites):
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda name, **kw: ran.append(name))
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", suites, "--out", str(out)])
        assert code == 2
        assert ran == [] and not out.exists()
        captured = capsys.readouterr()
        assert "suite" not in captured.out
        assert "'bogus'" in captured.err and "algebra" in captured.err


class TestTrainEvalExportCli:
    def test_train_eval_export_cycle(self, tmp_path):
        config = {
            "task": {"name": "barbell", "n": 12, "k_path": 4,
                     "counts": [6, 3, 4], "data_seed": 3},
            "model": {"layers": 1, "K": 3, "hidden": 4},
            "optim": {"lr": 0.01},
            "epochs": 3,
            "seeds": [0],
            "patience": 50,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        outdir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(outdir)]) == 0
        assert (outdir / "summary.json").exists()
        seed_dir = outdir / "seed0"
        assert (seed_dir / "metrics.jsonl").exists()
        assert (seed_dir / "checkpoint" / "manifest.json").exists()
        assert (seed_dir / "mu_test_instances.csv").exists()
        record = json.loads((seed_dir / "record.json").read_text())
        assert record["epochs_run"] == 3
        assert "nmse" in record["test"]

        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(seed_dir / "checkpoint"),
                     "--out", str(tmp_path / "eval.json")]) == 0
        ev = json.loads((tmp_path / "eval.json").read_text())
        assert ev["nmse"] == pytest.approx(record["test"]["nmse"])

        inst = gen_barbell(4, 4, seed=3 * 10_000_000 + 2_000_000)
        gpath = tmp_path / "inst.edges"
        write_edge_list(inst.graph, gpath)
        write_csv_matrix(inst.X, tmp_path / "x.csv")
        (tmp_path / "meta.json").write_text(json.dumps(inst.meta))
        assert main(["export-mu", "--checkpoint", str(seed_dir / "checkpoint"),
                     "--graph", str(gpath), "--X", str(tmp_path / "x.csv"),
                     "--meta", str(tmp_path / "meta.json"),
                     "--out", str(tmp_path / "mu.csv")]) == 0
        mu = read_csv_matrix(tmp_path / "mu.csv")
        assert mu.shape == (12,) and (mu > 0).all()
        manifest = json.loads((tmp_path / "mu.csv.manifest.json").read_text())
        assert "mu_mean_bridge" in manifest


class TestExportMuInputErrors:
    @pytest.mark.parametrize("case", ["graph", "rows", "columns"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, case):
        cfg = ModelConfig(layers=1, K=2, hidden=4)
        model = MuChebNet(1, cfg, seed=0)
        ckpt = save_checkpoint(tmp_path / "ckpt", model.params,
                               meta={"model": cfg.to_dict(), "in_dim": 1, "seed": 0})
        gpath, xpath = tmp_path / "g.edges", tmp_path / "x.csv"
        write_edge_list(ring_graph(6), gpath)
        if case == "graph":
            gpath.write_text("0 1\n1 x\n")
            write_csv_matrix(np.ones(6), xpath)
            expected = [f"--graph {gpath}"]
        elif case == "rows":
            write_csv_matrix(np.ones(5), xpath)
            expected = [f"--X {xpath} has 5 rows", "n=6"]
        else:
            write_csv_matrix(np.ones((6, 2)), xpath)
            expected = [f"--X {xpath} has 2 columns", "in_dim=1"]
        out = tmp_path / "mu.csv"
        assert main(["export-mu", "--checkpoint", str(ckpt), "--graph", str(gpath),
                     "--X", str(xpath), "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "mu.csv.manifest.json").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert all(part in err for part in expected), err
