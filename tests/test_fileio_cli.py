"""File formats and the command-line surface."""
import inspect
import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from be_spectral import build_graph, cli, fileio, gen_barbell, ring_graph
from be_spectral.cli import main
from be_spectral.models import ModelConfig, MuChebNet
from be_spectral.operators import DENSE_LIMIT, SymOperator
from be_spectral.fileio import (dump_instance, load_checkpoint,
                                read_csv_matrix, read_edge_list,
                                save_checkpoint, write_csv_matrix,
                                write_edge_list)
from be_spectral.runner import build_dataset
from be_spectral.verify import SUITES

TINY_RUN = {"task": {"name": "barbell", "n": 12, "k_path": 4,
                     "counts": [6, 3, 4], "data_seed": 3},
            "model": {"layers": 1, "K": 2, "hidden": 4}, "epochs": 1}


# run-config loop fields the config load rejects
LOOP_FIELD_CASES = {
    "eval-every-zero": {"eval_every": 0}, "eval-every-float": {"eval_every": 2.5},
    "batch-size-negative": {"batch_size": -1}, "batch-size-zero": {"batch_size": 0},
    "epochs-negative": {"epochs": -3}, "seeds-empty": {"seeds": []},
}


def _checkpoint(directory, cfg=None, params=None):
    """A checkpoint of an untrained one-input model (``params`` overrides its tensors)."""
    cfg = cfg or ModelConfig(layers=1, K=2, hidden=4)
    model = MuChebNet(1, cfg, seed=0)
    return save_checkpoint(directory, model.params if params is None else params,
                           meta={"model": cfg.to_dict(), "in_dim": 1, "seed": 0})


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

    MALFORMED_MANIFESTS = {  # case: what the error names
        "list": "manifest.json: not a JSON object",
        "no-tensors": "manifest.json: needs a 'tensors' list and a 'meta' object",
        "meta-list": "manifest.json: needs a 'tensors' list and a 'meta' object",
        "entry-not-object": r"manifest.json: tensors\[1\] is not",
        "entry-no-shape": r"manifest.json: tensors\[0\] is not",
        "negative-size": r"manifest.json: tensors\[0\] is not",
        "file-outside": r"manifest.json: tensors\[0\] is not",
        "file-in-subdir": r"manifest.json: tensors\[0\] is not",
        "file-dotdot": r"manifest.json: tensors\[0\] is not",
        "not-json": "manifest.json: Expecting",
        "missing-blob": "param_0001.bin: no such file, named by .*manifest.json",
    }

    @pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
    def test_malformed_manifest(self, tmp_path, case):
        ckpt = save_checkpoint(tmp_path / "ckpt", {"a": np.zeros((2, 3)), "b": np.ones(4)})
        (tmp_path / "x").write_bytes(bytes(48))  # a blob outside the checkpoint
        manifest = json.loads((ckpt / "manifest.json").read_text())
        entry = manifest["tensors"][0]
        if case == "list":
            manifest = [manifest]
        elif case == "no-tensors":
            del manifest["tensors"]
        elif case == "meta-list":
            manifest["meta"] = []
        elif case == "entry-not-object":
            manifest["tensors"][1] = "b"
        elif case == "entry-no-shape":
            del entry["shape"]
        elif case == "negative-size":
            entry["shape"] = [-2, -3]
        elif case == "file-outside":
            entry["file"] = "../x"
        elif case == "file-in-subdir":
            entry["file"] = "sub/param_0000.bin"
        elif case == "file-dotdot":
            entry["file"] = ".."
        elif case == "missing-blob":
            (ckpt / "param_0001.bin").unlink()
        text = "{" if case == "not-json" else json.dumps(manifest)
        (ckpt / "manifest.json").write_text(text)
        with pytest.raises(ValueError, match=self.MALFORMED_MANIFESTS[case]):
            load_checkpoint(ckpt)

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

    @pytest.mark.parametrize("normalized", [False, True])
    def test_spectrum_above_dense_limit_exits_2(self, tmp_path, capsys, monkeypatch,
                                                normalized):
        monkeypatch.setattr(SymOperator, "dense", lambda self: pytest.fail("densified"))
        gpath = tmp_path / "g.edges"
        write_edge_list(ring_graph(DENSE_LIMIT + 1), gpath)
        out = tmp_path / "spec.csv"
        argv = ["spectrum", "--graph", str(gpath), "--out", str(out)]
        assert main(argv + (["--normalized"] if normalized else [])) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert f"--graph {gpath} has n={DENSE_LIMIT + 1}" in err and "n <= 4096" in err, err

    def test_spectrum_normalized_takes_no_value(self, tmp_path, capsys):
        gpath = tmp_path / "g.edges"
        write_edge_list(ring_graph(4), gpath)
        out = tmp_path / "spec.csv"
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--graph", str(gpath), "--normalized", "random-walk",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "random-walk" in capsys.readouterr().err

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

    @pytest.mark.parametrize("case", ["negative-t", "infinite-t"])
    def test_diffuse_bad_time_or_step(self, tmp_path, capsys, case):
        gpath = tmp_path / "g.edges"
        write_edge_list(ring_graph(6), gpath)
        out = tmp_path / "f.csv"
        argv, flag = {"negative-t": (["--t", "-1"], "--t -1.0"),
                      "infinite-t": (["--t", "inf"], "--t inf")}[case]
        assert main(["diffuse", "--graph", str(gpath), "--delta", "0",
                     "--out", str(out)] + argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err, err

    @pytest.mark.parametrize("argv", [
        ["diffuse", "--t", "1", "--delta", "0", "--scheme", "euler"],
        ["diffuse", "--t", "1", "--delta", "0", "--dt", "0.01"],
        ["verify", "--suite", "star-bounds", "--n", "5"]],
        ids=["diffuse-scheme", "diffuse-dt", "verify-n"])
    def test_removed_options_refused(self, tmp_path, capsys, argv):
        # heat flow has one integrator and the suites take no argument
        gpath = tmp_path / "g.edges"
        write_edge_list(ring_graph(6), gpath)
        out = tmp_path / "out"
        graph = ["--graph", str(gpath)] if argv[0] == "diffuse" else []
        with pytest.raises(SystemExit) as exc:
            main(argv + graph + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_diffuse_any_finite_time(self, tmp_path):
        gpath = tmp_path / "g.edges"
        write_edge_list(ring_graph(6), gpath)
        out = tmp_path / "f.csv"
        assert main(["diffuse", "--graph", str(gpath), "--t", "1e300",
                     "--delta", "0", "--out", str(out)]) == 0
        npt.assert_allclose(read_csv_matrix(out), np.full(6, 1 / 6), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("t", ["1e9", "1e300"])
    def test_diffuse_time_past_the_series_limit(self, tmp_path, capsys, t):
        # above DENSE_LIMIT nodes there is no dense path to fall back on
        gpath = tmp_path / "g.edges"
        write_edge_list(ring_graph(5000), gpath)
        out = tmp_path / "f.csv"
        assert main(["diffuse", "--graph", str(gpath), "--t", t,
                     "--delta", "0", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert f"--t {float(t)}: t = {float(t):g} needs about" in err, err
        assert "Chebyshev terms" in err and "n = 4096" in err, err

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

    @pytest.mark.parametrize("flag, value", [
        pytest.param(flag, value, id=flag if value is None else f"{flag}-{value}")
        for value in (None, "nan", "inf", "-inf") for flag in ("--coeffs", "--mu", "--f0", "--X")])
    def test_malformed_csv_file(self, tmp_path, capsys, flag, value):
        gpath, bad = tmp_path / "g.edges", tmp_path / "bad.csv"
        write_edge_list(ring_graph(6), gpath)
        if value is None:
            write_edge_list(ring_graph(6), bad)  # "i j" rows are not a CSV of numbers
        else:  # one value per node, the third not finite
            write_csv_matrix(np.array([1.0, 1.0, float(value), 1.0, 1.0, 1.0]), bad)
        six, theta = tmp_path / "six.csv", tmp_path / "theta.csv"
        write_csv_matrix(np.ones(6), six)
        write_csv_matrix(np.ones(2), theta)
        out = tmp_path / "out.csv"
        argv = {"--coeffs": ["filter", "--coeffs", str(bad), "--X", str(six)],
                "--mu": ["spectrum", "--mu", str(bad)],
                "--f0": ["diffuse", "--t", "1.0", "--f0", str(bad)],
                "--X": ["filter", "--coeffs", str(theta), "--X", str(bad)]}[flag]
        assert main(argv + ["--graph", str(gpath), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{flag} {bad}:" in err, err
        assert value is None or "data row 3 holds a non-finite value" in err, err

    @pytest.mark.parametrize("flag", ["--graph", "--mu", "--f0", "--X", "--coeffs",
                                      "train --config", "eval --config",
                                      "eval --checkpoint", "export-mu --checkpoint",
                                      "export-mu --meta"])
    def test_missing_input_file(self, tmp_path, capsys, flag):
        gpath, missing = tmp_path / "g.edges", tmp_path / "missing.csv"
        write_edge_list(ring_graph(6), gpath)
        six, theta = tmp_path / "six.csv", tmp_path / "theta.csv"
        write_csv_matrix(np.ones(6), six)
        write_csv_matrix(np.ones(2), theta)
        config, ckpt = tmp_path / "run.json", _checkpoint(tmp_path / "ckpt")
        config.write_text(json.dumps(TINY_RUN))
        export = ["export-mu", "--graph", str(gpath), "--X", str(six)]
        out = tmp_path / "out.csv"
        argv = {"--graph": ["spectrum", "--graph", str(missing)],
                "--mu": ["spectrum", "--graph", str(gpath), "--mu", str(missing)],
                "--f0": ["diffuse", "--graph", str(gpath), "--t", "1.0",
                         "--f0", str(missing)],
                "--X": ["filter", "--graph", str(gpath), "--coeffs", str(theta),
                        "--X", str(missing)],
                "--coeffs": ["filter", "--graph", str(gpath), "--coeffs", str(missing),
                             "--X", str(six)],
                "train --config": ["train", "--config", str(missing)],
                "eval --config": ["eval", "--config", str(missing),
                                  "--checkpoint", str(ckpt)],
                "eval --checkpoint": ["eval", "--config", str(config),
                                      "--checkpoint", str(missing)],
                "export-mu --checkpoint": export + ["--checkpoint", str(missing)],
                "export-mu --meta": export + ["--checkpoint", str(ckpt),
                                              "--meta", str(missing)]}[flag]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        flag = flag.split()[-1]
        assert err.count("\n") == 1 and f"{flag} {missing}: no such file" in err, err

    @pytest.mark.parametrize("K", [None, "0"])
    def test_empty_coeffs_file(self, tmp_path, capsys, K):
        gpath, empty = tmp_path / "g.edges", tmp_path / "empty.csv"
        write_edge_list(ring_graph(3), gpath)
        empty.write_text("")
        write_csv_matrix(np.ones(3), tmp_path / "x.csv")
        out = tmp_path / "out.csv"
        argv = ["filter", "--graph", str(gpath), "--coeffs", str(empty),
                "--X", str(tmp_path / "x.csv"), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "no data" warning is silenced
            assert main(argv + (["--K", K] if K else [])) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--coeffs {empty}" in err, err

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

    @pytest.mark.parametrize("argv, named", [
        (["--task", "barbell", "--n", "51", "--k-path", "4"], "--task barbell: total size 51"),
        (["--task", "ring", "--n", "9"], "--task ring: ring routing needs even n"),
        (["--task", "barbell", "--count", "0"], "--count 0"),
        (["--task", "graph-property", "--p", "0"],
         "--task graph-property: graph-property task p 0.0 must be in (0, 1]")],
        ids=["barbell-odd-size", "ring-odd-size", "count-0", "p-zero"])
    def test_gen_rejects_what_train_rejects(self, tmp_path, capsys, argv, named):
        out = tmp_path / "data"
        assert main(["gen", "--out", str(out)] + argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err, err

    def test_gen_without_a_connected_graph(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen", "--task", "graph-property", "--p", "1e-9", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert "--task graph-property: no connected erdos-renyi graph" in err, err

    @pytest.mark.parametrize("argv, task", [
        (["--task", "barbell", "--n", "14", "--k-path", "2"],
         {"name": "barbell", "n": 14, "k_path": 2}),
        (["--task", "ring", "--n", "10"], {"name": "ring", "n": 10}),
        (["--task", "graph-property", "--property", "diameter", "--n-min", "6",
          "--n-max", "9", "--p", "0.5"],
         {"name": "graph-property", "property": "diameter", "n_range": [6, 9], "p": 0.5}),
    ], ids=["barbell", "ring", "graph-property"])
    def test_gen_writes_the_train_split(self, tmp_path, argv, task):
        out, ref = tmp_path / "gen", tmp_path / "ref"
        assert main(["gen", "--count", "3", "--seed", "4", "--out", str(out)] + argv) == 0
        for i, inst in enumerate(build_dataset({**task, "counts": [3, 0, 0]},
                                               data_seed=4).train):
            dump_instance(ref / f"instance_{i:04d}", inst)
        files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
        assert len(files) >= 12
        assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
        for f in files:
            assert (out / f).read_bytes() == (ref / f).read_bytes(), f

    @pytest.mark.parametrize("case", ["negative", "nan", "zero-mass",
                                      "spectrum-normalized", "filter-normalized"])
    def test_unusable_potential(self, tmp_path, capsys, case):
        gpath, mupath = tmp_path / "g.edges", tmp_path / "mu.csv"
        write_edge_list(ring_graph(6), gpath)
        mu = {"negative": [1, 1, -1, 1, 1, 1], "nan": [1, np.nan, 1, 1, 1, 1],
              "zero-mass": [0] * 6}.get(case, [0, 0, 0, 1, 1, 1])  # node 1 isolated
        write_csv_matrix(np.array(mu, dtype=np.float64), mupath)
        write_csv_matrix(np.ones(2), tmp_path / "theta.csv")
        write_csv_matrix(np.ones(6), tmp_path / "x.csv")
        out = tmp_path / "out.csv"
        argv = ["spectrum"] + (["--normalized"] if case == "spectrum-normalized" else [])
        if case == "filter-normalized":
            argv = ["filter", "--normalized", "--coeffs", str(tmp_path / "theta.csv"),
                    "--X", str(tmp_path / "x.csv")]
        assert main(argv + ["--graph", str(gpath), "--mu", str(mupath),
                            "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--mu {mupath}: " in err, err

    def test_verify_algebra_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "algebra", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report[0]["suite"] == "algebra" and report[0]["passed"]
        assert "[PASS]" in capsys.readouterr().out

    def test_verify_all_suites_pass_and_fix_their_configuration(self, tmp_path):
        # acceptance criteria assert on these reports, so no suite takes an argument
        for name, suite in SUITES.items():
            assert not inspect.signature(suite).parameters, name
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "all", "--out", str(out)]) == 0
        assert sorted(r["suite"] for r in json.loads(out.read_text())) == sorted(SUITES)

    def test_verify_gradcheck_reaches_the_parameterizer(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "gradcheck", "--out", str(out)]) == 0
        report = json.loads(out.read_text())[0]
        assert report["passed"]
        checks = report["checks"]
        assert [c["name"] for c in checks] == ["end-to-end-sym", "end-to-end-unnorm"]
        assert all(c["mu_interior_max_grad"] > 0.0 for c in checks), checks

    def test_verify_factorization_suite(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "factorization", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())[0]["suite"] == "factorization"

    def test_verify_sizes_reach_a_listed_suite_after_a_space(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "factorization, star-bounds", "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert [r["suite"] for r in reports] == ["factorization", "star-bounds"]
        names = {c["name"] for c in reports[1]["checks"]}
        assert {"gap-bound-n5", "gap-bound-n50"} <= names

    @pytest.mark.parametrize("suites", ["bogus", "algebra,bogus"])
    def test_verify_unknown_suite_rejected_before_any_suite_runs(
            self, tmp_path, capsys, monkeypatch, suites):
        ran = []
        monkeypatch.setattr(cli, "SUITES", {name: lambda **kw: ran.append(kw) for name in SUITES})
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", suites, "--out", str(out)])
        assert code == 2
        assert ran == [] and not out.exists()
        captured = capsys.readouterr()
        assert "suite" not in captured.out
        assert "'bogus'" in captured.err and "algebra" in captured.err


class TestParserReuse:
    """``main`` parses every call with one parser built per process."""

    @staticmethod
    def filter_argv(tmp_path, out):
        edges = np.concatenate([np.stack([np.arange(7), (np.arange(7) + 1) % 7], 1),
                                [[0, 3], [2, 5]]])
        write_edge_list(build_graph(7, edges), tmp_path / "g.edges")
        write_csv_matrix(np.linspace(0.2, 2.0, 7), tmp_path / "mu.csv")
        write_csv_matrix(np.array([0.5, -0.3, 0.2]), tmp_path / "theta.csv")
        write_csv_matrix(np.random.default_rng(0).standard_normal((7, 2)), tmp_path / "x.csv")
        return ["filter", "--graph", str(tmp_path / "g.edges"), "--mu", str(tmp_path / "mu.csv"),
                "--coeffs", str(tmp_path / "theta.csv"), "--X", str(tmp_path / "x.csv"),
                "--out", str(out)]

    def test_main_builds_one_parser(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            argv = self.filter_argv(tmp_path, tmp_path / "y.csv")
            for _ in range(3):
                assert main(argv) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_no_state_between_calls(self, tmp_path):
        plain = self.filter_argv(tmp_path, tmp_path / "plain.csv")
        normalized = self.filter_argv(tmp_path, tmp_path / "normalized.csv") + ["--normalized"]
        assert main(normalized) == 0
        assert main(plain) == 0
        fresh = self.filter_argv(tmp_path, tmp_path / "fresh.csv")
        args = cli.build_parser().parse_args(fresh)
        assert not args.normalized and args.K is None
        assert args.func(args) == 0
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert ((tmp_path / "plain.csv").read_bytes()
                != (tmp_path / "normalized.csv").read_bytes())

    def test_parse_error_then_valid_command(self, tmp_path, capsys):
        argv = self.filter_argv(tmp_path, tmp_path / "y.csv")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--K", "two"])
        assert exc.value.code == 2
        assert "--K" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()
        assert main(argv) == 0
        assert read_csv_matrix(tmp_path / "y.csv").shape == (7, 2)


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
    @pytest.mark.parametrize("case", ["graph", "rows", "columns", "non-finite",
                                      "meta-index", "meta-negative", "meta-empty",
                                      "meta-not-object"])
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
        elif case == "columns":
            write_csv_matrix(np.ones((6, 2)), xpath)
            expected = [f"--X {xpath} has 2 columns", "in_dim=1"]
        elif case == "non-finite":
            write_csv_matrix(np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0]), xpath)
            expected = [f"--X {xpath}: data row 2 holds a non-finite value"]
        elif case == "meta-not-object":
            write_csv_matrix(np.ones(6), xpath)
            (tmp_path / "meta.json").write_text(json.dumps(["bridge"]))
            expected = [f"--meta {tmp_path / 'meta.json'}: not a JSON object"]
        else:  # a role list naming a node the graph does not have
            write_csv_matrix(np.ones(6), xpath)
            nodes = {"meta-index": [2, 99], "meta-negative": [-1], "meta-empty": []}[case]
            (tmp_path / "meta.json").write_text(json.dumps({"bell_a": [0], "bridge": nodes}))
            expected = [f"--meta {tmp_path / 'meta.json'}: bridge {nodes}", "0 to 5"]
        meta = ["--meta", str(tmp_path / "meta.json")] if case.startswith("meta") else []
        out = tmp_path / "mu.csv"
        assert main(["export-mu", "--checkpoint", str(ckpt), "--graph", str(gpath),
                     "--X", str(xpath), "--out", str(out)] + meta) == 2
        assert not out.exists()
        assert not (tmp_path / "mu.csv.manifest.json").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert all(part in err for part in expected), err


class TestConfigAndCheckpointInputErrors:
    @pytest.mark.parametrize("case, named", [
        ("run-key", "epochz"), ("model-key", "layrs"), ("mu-key", "hiden"),
        ("mu-not-object", "model.mu"), ("not-object", "run-config"),
        ("no-model", "model"), ("not-json", "--config"),
        *[(case, next(iter(fields))) for case, fields in LOOP_FIELD_CASES.items()]])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_config_exits_2_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                command, case, named):
        monkeypatch.setattr(cli, "build_dataset", lambda *a, **k: pytest.fail("data made"))
        monkeypatch.setattr(cli, "train_multi", lambda *a, **k: pytest.fail("trained"))
        model = dict(TINY_RUN["model"])
        config = {**TINY_RUN, "model": model}
        if case == "run-key":
            config["epochz"] = 3
        elif case == "model-key":
            model["layrs"] = 1
        elif case == "mu-key":
            model["mu"] = {"hiden": 4}
        elif case == "mu-not-object":
            model["mu"] = True
        elif case == "not-object":
            config = [config]
        elif case == "no-model":
            del config["model"]
        elif case in LOOP_FIELD_CASES:
            config.update(LOOP_FIELD_CASES[case])
        path = tmp_path / "run.json"
        path.write_text("{" if case == "not-json" else json.dumps(config))
        argv = [command, "--config", str(path)]
        if command == "eval":
            argv += ["--checkpoint", str(_checkpoint(tmp_path / "ckpt"))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--config {path}: " in err and named in err, err

    @pytest.mark.parametrize("task, named", [
        ({"name": "barbel", "n": 12}, "unknown task 'barbel'"),
        ({"name": "barbell", "n": 12, "kpath": 3}, "unknown barbell task keys: kpath"),
        ({"name": "barbell", "n": 13}, "total size 13 minus bridge 4 must be even"),
        ({"name": "ring", "n": 9}, "ring routing needs even n >= 8"),
        ({"name": "graph-property", "property": "girth"}, "unknown property task 'girth'"),
        ({"name": "ring", "classes": 0}, "ring task classes 0 must be at least 1"),
        ({"name": "graph-property", "p": 0}, "graph-property task p 0.0 must be in (0, 1]"),
        ({"name": "barbell", "n": 12, "counts": [0, 2, 2]},
         "barbell task counts [0, 2, 2]: the train and val splits need at least one"),
        ({"name": "barbell", "n": 12, "counts": [4, 0, 2]},
         "barbell task counts [4, 0, 2]: the train and val splits need at least one"),
        ({"name": "graph-property", "counts": [0, 2, 2]},
         "graph-property task counts [0, 2, 2]: the train and val splits"),
        ({"name": "barbell", "n": 12, "counts": []}, "barbell task counts [] must be three"),
    ], ids=["name", "key", "odd-barbell", "odd-ring", "property", "no-classes", "p-zero",
            "no-train", "no-val", "property-no-train", "empty-counts"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_task_block_exits_2_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                    command, task, named):
        monkeypatch.setattr(cli, "build_dataset", lambda *a, **k: pytest.fail("data made"))
        monkeypatch.setattr(cli, "train_multi", lambda *a, **k: pytest.fail("trained"))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY_RUN, "task": task}))
        argv = [command, "--config", str(path)]
        if command == "eval":
            argv += ["--checkpoint", str(_checkpoint(tmp_path / "ckpt"))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--config {path}: {named}" in err, err

    @pytest.mark.parametrize("model, named", [
        ({"hidden": 0}, "model hidden 0 must be an integer >= 1"),
        ({"K": 2.5}, "model K 2.5 must be an integer >= 0"),
        ({"layers": True}, "model layers True must be an integer >= 1"),
        ({"gamma": -0.5}, "model gamma -0.5 must be a finite number >= 0"),
        ({"eps": float("inf")}, "model eps inf must be a finite number >= 0"),
        ({"mu": {"hidden": 0}}, "model.mu hidden 0 must be an integer >= 1"),
        ({"mu": {"layers": -2}}, "model.mu layers -2 must be an integer >= 0"),
        ({"mu": {"eps_floor": -5}}, "model.mu eps_floor -5 must be a finite number > 0"),
        ({"out_dim": 7}, "model keys out_dim: the task sets them"),
        ({"readout": "graph", "out_dim": 7}, "model keys out_dim, readout: the task sets"),
    ], ids=["hidden-zero", "K-float", "layers-bool", "gamma-negative", "eps-infinite",
            "mu-hidden-zero", "mu-layers-negative", "mu-floor-negative", "out-dim",
            "readout-and-out-dim"])
    def test_bad_model_value_exits_2_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                     model, named):
        monkeypatch.setattr(cli, "build_dataset", lambda *a, **k: pytest.fail("data made"))
        monkeypatch.setattr(cli, "train_multi", lambda *a, **k: pytest.fail("trained"))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY_RUN, "model": {**TINY_RUN["model"], **model}}))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--config {path}: {named}" in err, err

    @pytest.mark.parametrize("changes, named", [
        ({"optim": {"weight_decy": 1e-5}}, "unknown optim keys: weight_decy"),
        ({"optim": [1]}, "optim must be a JSON object, got list"),
        ({"optim": {"lr": "fast"}}, "optim lr 'fast' must be a finite number > 0"),
        ({"optim": {"lr": -1}}, "optim lr -1 must be a finite number > 0"),
        ({"optim": {"beta2": 1}}, "optim beta2 1 must be in [0, 1)"),
        ({"model": {**TINY_RUN["model"], "stable": "false"}},
         "model stable 'false' must be true or false"),
        ({"out": 5}, "run-config out 5 must be null or a path string"),
    ], ids=["optim-key", "optim-not-object", "lr-string", "lr-negative", "beta2-one",
            "stable-string", "out-number"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_optim_or_run_value_exits_2_before_any_data(self, tmp_path, capsys,
                                                            monkeypatch, command, changes,
                                                            named):
        monkeypatch.setattr(cli, "build_dataset", lambda *a, **k: pytest.fail("data made"))
        monkeypatch.setattr(cli, "train_multi", lambda *a, **k: pytest.fail("trained"))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY_RUN, **changes}))
        argv = [command, "--config", str(path)]
        if command == "eval":
            argv += ["--checkpoint", str(_checkpoint(tmp_path / "ckpt"))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--config {path}: {named}" in err, err

    @pytest.mark.parametrize("threads", ["0", "-1", "abc", "1.5", ""])
    def test_bad_thread_count_exits_2_before_any_worker(self, tmp_path, capsys, monkeypatch,
                                                         threads):
        monkeypatch.setenv("BE_SPECTRAL_THREADS", threads)
        monkeypatch.setattr(cli, "train_multi", lambda *a, **k: pytest.fail("trained"))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY_RUN, "seeds": [0, 1]}))
        assert main(["train", "--config", str(path), "--parallel-seeds"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert f"BE_SPECTRAL_THREADS={threads!r} must be a positive integer" in err, err

    def test_train_without_a_connected_graph(self, tmp_path, capsys):
        path, out = tmp_path / "run.json", tmp_path / "runs"
        task = {"name": "graph-property", "p": 1e-9, "n_range": [4, 6], "counts": [2, 1, 1]}
        path.write_text(json.dumps({**TINY_RUN, "task": task}))
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert f"--config {path}: no connected erdos-renyi graph" in err, err

    @pytest.mark.parametrize("task, named", [
        ({"name": "ring", "n": 10}, "in_dim=1 where the task needs 10, "
                                    "out_dim=1 where the task needs 10"),
        ({"name": "graph-property", "property": "sssp"}, "in_dim=1 where the task needs 3"),
        ({"name": "graph-property", "property": "diameter"},
         "in_dim=1 where the task needs 2, readout=node where the task needs graph"),
    ], ids=["ring", "sssp", "diameter"])
    def test_eval_checkpoint_that_does_not_fit_the_task(self, tmp_path, capsys, monkeypatch,
                                                         task, named):
        monkeypatch.setattr(cli, "build_dataset", lambda *a, **k: pytest.fail("data made"))
        config, out = tmp_path / "run.json", tmp_path / "eval.json"
        config.write_text(json.dumps({**TINY_RUN, "task": task}))
        ckpt = _checkpoint(tmp_path / "ckpt")  # a one-input barbell model
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--checkpoint {ckpt} does not fit" in err, err
        assert named in err, err

    @pytest.mark.parametrize("command, case", [
        (command, case) for command in ("eval", "export-mu")
        for case in ("shape", "names", "meta", "manifest-empty", "manifest-list",
                     "no-meta-model", "no-meta-in_dim", "null-in_dim", "missing-blob",
                     "blob-outside")] + [("export-mu", "no-parameterizer")])
    def test_checkpoint_the_command_cannot_use(self, tmp_path, capsys, command, case):
        params = MuChebNet(1, ModelConfig(layers=1, K=2, hidden=4), seed=0).params
        if case == "shape":
            ckpt = _checkpoint(tmp_path / "ckpt", ModelConfig(layers=1, K=2, hidden=8),
                               params=params)
        elif case == "names":
            ckpt = _checkpoint(tmp_path / "ckpt", params={"stray": np.zeros(2), **params})
        elif case != "no-parameterizer":  # an edit of the manifest or its blobs
            ckpt = _checkpoint(tmp_path / "ckpt")
            manifest = json.loads((ckpt / "manifest.json").read_text())
            if case == "meta":
                manifest["meta"]["model"]["operator"] = "bogus"
            elif case == "manifest-empty":
                manifest = {}
            elif case == "manifest-list":
                manifest = [manifest]
            elif case == "no-meta-model":
                del manifest["meta"]["model"]
            elif case == "no-meta-in_dim":
                del manifest["meta"]["in_dim"]
            elif case == "null-in_dim":
                manifest["meta"]["in_dim"] = None
            elif case == "missing-blob":
                (ckpt / manifest["tensors"][0]["file"]).unlink()
            else:
                manifest["tensors"][0]["file"] = "../x"
                (tmp_path / "x").write_bytes((ckpt / "param_0000.bin").read_bytes())
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
        else:
            ckpt = _checkpoint(tmp_path / "ckpt", ModelConfig(layers=1, K=2, hidden=4,
                                                                mu=None))
        gpath, xpath, config = tmp_path / "g.edges", tmp_path / "x.csv", tmp_path / "run.json"
        write_edge_list(ring_graph(6), gpath)
        write_csv_matrix(np.ones(6), xpath)
        config.write_text(json.dumps(TINY_RUN))
        out = tmp_path / "out.json"
        argv = {"eval": ["eval", "--config", str(config)],
                "export-mu": ["export-mu", "--graph", str(gpath), "--X", str(xpath)]}[command]
        assert main(argv + ["--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--checkpoint {ckpt}" in err, err
        detail = {"manifest-empty": "manifest.json: needs a 'tensors' list",
                  "manifest-list": "manifest.json: not a JSON object",
                  "no-meta-model": "manifest meta has no model block",
                  "no-meta-in_dim": "manifest meta in_dim None must be",
                  "null-in_dim": "manifest meta in_dim None must be",
                  "missing-blob": "param_0000.bin: no such file, named by",
                  "blob-outside": "manifest.json: tensors[0] is not"}.get(case, "")
        assert detail in err, err
