"""End-to-end tests driving the command line in process.

Each test invokes ``cli.main`` with an argv list and inspects the files it
writes. Datasets are tiny blobs or small CSVs so the whole module stays
fast; accuracy targets here are loose because the point is the plumbing
(files, exit codes, CSV schemas, config precedence), not model quality.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bmps import cli, laplace, mps, trainer
from bmps.laplace import load_posterior


def run(*args):
    return cli.main([str(a) for a in args])


def blob_train_args(out, **overrides):
    opts = {
        "dataset": "blobs",
        "n_samples": 120,
        "std": 0.5,
        "epochs": 20,
        "learning_rate": 0.02,
        "bond": 3,
        "out": out,
    }
    opts.update(overrides)
    args = ["train"]
    for key, value in opts.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def refuse(*args, **kwargs):
    raise AssertionError("reached a stage the run should have stopped before")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestTrain:
    def test_writes_model_history_and_meta(self, tmp_path):
        out = tmp_path / "run"
        assert run(*blob_train_args(out)) == 0
        model = mps.load_model(out / "model.bmps")
        assert model.shape.n_sites == 2
        assert model.shape.bond_dim == 3
        header, rows = read_csv(out / "history.csv")
        assert header[:2] == ["epoch", "train_loss"]
        assert len(rows) == 20
        meta = json.loads((out / "train.meta.json").read_text())
        assert meta["command"] == "train"
        assert meta["config"]["epochs"] == 20
        assert meta["config"]["bond"] == 3
        assert meta["wall_time_seconds"] > 0
        assert meta["version"]
        assert 0 < meta["peak_rss_mib"] < 1 << 20
        history = json.loads((out / "history.json").read_text())
        training = meta["training"]
        assert set(training) == {
            "rows", "epochs", "best_epoch", "train_seconds", "samples_per_s",
            "peak_rss_mib", "eval_seconds",
        }
        assert training["rows"] == 90  # 120 blobs, a quarter held out
        assert training["epochs"] == 20
        assert training["best_epoch"] == history["best_epoch"]
        seconds = sum(rec["seconds"] for rec in history["records"])
        assert training["train_seconds"] == pytest.approx(seconds, rel=1e-12)
        for rec in history["records"]:
            assert 0 <= rec["eval_seconds"] <= rec["seconds"]
        eval_seconds = sum(rec["eval_seconds"] for rec in history["records"])
        assert training["eval_seconds"] == pytest.approx(eval_seconds, rel=1e-12)
        assert header[-1] == "eval_seconds"
        assert training["samples_per_s"] == pytest.approx(
            90 * 20 / seconds, rel=1e-12
        )
        assert 0 < training["peak_rss_mib"] < 1 << 20

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_prints_the_kept_models_test_accuracy(self, tmp_path, capsys, monkeypatch, epochs):
        # The epoch kept (best_epoch >= 1) recorded its test accuracy on the
        # same parameters, so only the initial model (best_epoch 0) is
        # evaluated again after training.
        seen, calls = {}, []
        real_train, real_accuracy = trainer.train_map, trainer.accuracy

        def train(model, data, *args):
            seen["data"] = data
            fit, history = real_train(model, data, *args)
            calls.clear()  # the per-epoch evaluations
            return fit, history

        def accuracy(*args):
            calls.append(args)
            return real_accuracy(*args)

        monkeypatch.setattr(trainer, "train_map", train)
        monkeypatch.setattr(trainer, "accuracy", accuracy)
        out = tmp_path / "run"
        assert run(*blob_train_args(out, epochs=epochs)) == 0
        best = json.loads((out / "history.json").read_text())["best_epoch"]
        assert (best >= 1) == (epochs > 0)
        assert len(calls) == (best == 0)
        data = seen["data"]
        want = real_accuracy(mps.load_model(out / "model.bmps"), data.test_x, data.test_y)
        assert capsys.readouterr().out == (
            f"trained 2 sites, bond 3: best epoch {best}, test accuracy {want:.4f}\n"
        )

    def test_trains_to_separable_accuracy(self, tmp_path):
        out = tmp_path / "run"
        assert run(*blob_train_args(out, epochs=60)) == 0
        history = json.loads((out / "history.json").read_text())
        final = history["records"][-1]
        assert final["test_acc"] > 0.9

    def test_csv_dataset_roundtrip(self, tmp_path):
        rows = ["size,shade,kind"]
        rng = np.random.default_rng(5)
        for _ in range(60):
            if rng.random() < 0.5:
                rows.append(f"{rng.uniform(1, 4):.3f},low,small")
            else:
                rows.append(f"{rng.uniform(6, 9):.3f},high,big")
        csv_path = tmp_path / "things.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps(
                {
                    "size": {"kind": "range", "min": 0, "max": 10},
                    "shade": {"kind": "map", "values": {"low": 0.0, "high": 1.0}},
                }
            )
        )
        out = tmp_path / "run"
        code = run(
            "train", "--dataset", "csv", "--csv", csv_path,
            "--label-column", "kind", "--schema", schema_path,
            "--epochs", "30", "--learning-rate", "0.05", "--out", out,
        )
        assert code == 0
        model = mps.load_model(out / "model.bmps")
        assert model.shape.n_sites == 2

    def test_repeated_class_exits_2(self, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("size,kind\n1,a\n2,b\n3,a\n4,b\n")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({"size": {"kind": "range", "min": 0, "max": 5}}))
        monkeypatch.setattr(mps, "MpsShape", refuse)
        code = run(
            "train", "--dataset", "csv", "--csv", csv_path, "--label-column", "kind",
            "--schema", schema_path, "--classes", "a,a,b", "--out", tmp_path / "x",
        )
        assert code == 2
        assert "classes ['a'] repeated" in capsys.readouterr().err

    @staticmethod
    def csv_args(tmp_path, classes):
        """``train`` arguments for a 10-row, two-feature CSV labelled x and z."""
        csv_path = tmp_path / "d.csv"
        rows = "".join(f"{i},{i % 3},{'xz'[i % 2]}\n" for i in range(10))
        csv_path.write_text("size,shade,kind\n" + rows)
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({
            "size": {"kind": "range", "min": 0, "max": 10},
            "shade": {"kind": "range", "min": 0, "max": 2},
        }))
        return [
            "train", "--dataset", "csv", "--csv", csv_path, "--label-column", "kind",
            "--schema", schema_path, "--classes", classes, "--epochs", "1",
            "--out", tmp_path / "run",
        ]

    @pytest.mark.parametrize("classes", ["x,z,", "x, z", " z ,, x "])
    def test_classes_are_stripped_and_blank_entries_dropped(self, tmp_path, classes):
        assert run(*self.csv_args(tmp_path, classes)) == 0
        # two classes: one binary channel, no empty third class
        model = mps.load_model(tmp_path / "run" / "model.bmps")
        assert model.shape.n_labels == 1

    def test_blank_classes_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mps, "MpsShape", refuse)
        assert run(*self.csv_args(tmp_path, " , ,")) == 2
        assert "--classes must list at least one value" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(*blob_train_args(out, epochs=3, learning_rate=1e9))
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_missing_csv_flags_exit_2(self, tmp_path):
        assert run("train", "--dataset", "csv", "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize(
        "schema, message",
        [
            ("{not json", "invalid JSON"),
            ("[1, 2]", "schema must be a JSON object"),
        ],
    )
    def test_malformed_schema_file_exits_2(self, tmp_path, capsys, schema, message):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("size,kind\n1,a\n2,b\n")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(schema)
        code = run(
            "train", "--dataset", "csv", "--csv", csv_path, "--label-column", "kind",
            "--schema", schema_path, "--out", tmp_path / "x",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        if message == "invalid JSON":
            assert str(schema_path) in err


class TestConfigMerge:
    def test_flag_beats_config_beats_default(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"epochs": 7, "bond": 5}))
        out = tmp_path / "run"
        code = run(
            "train", "--dataset", "blobs", "--n-samples", "60",
            "--config", conf, "--epochs", "2", "--out", out,
        )
        assert code == 0
        meta = json.loads((out / "train.meta.json").read_text())
        assert meta["config"]["epochs"] == 2
        assert meta["config"]["bond"] == 5
        assert meta["config"]["batch_size"] == 32

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"episodes": 7}))
        assert run("train", "--config", conf, "--out", tmp_path / "x") == 2
        assert "episodes" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text("{not json")
        assert run("train", "--config", conf, "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("train", {"epochs": "5"}),
            ("bond-sweep", {"n_seeds": "2"}),
            ("train", {"classes": ["x", "z"]}),
            ("train", {"bond": 2.5}),
            ("train", {"epochs": True}),
            ("train", {"epochs": None}),
            ("train", {"optimizer": "sgdx"}),
            ("predict", {"on": 1}),
        ],
    )
    def test_config_value_the_flag_cannot_parse_to_exits_2(
        self, tmp_path, capsys, monkeypatch, command, overrides
    ):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(overrides))
        monkeypatch.setattr(mps, "MpsShape", refuse)  # refused before any model is built
        assert run(command, "--config", conf, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        (key,) = overrides
        assert f"{conf}: config key {key!r} must be" in err

    @pytest.mark.parametrize("overrides", [{"var_x": None}, {"reg": 1}])
    def test_config_null_default_and_integer_number_pass(self, tmp_path, overrides):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(overrides))
        out = tmp_path / "run"
        assert run(*blob_train_args(out, epochs=2), "--config", conf) == 0
        meta = json.loads((out / "train.meta.json").read_text())
        (key, value), = overrides.items()
        assert meta["config"][key] == value


class TestOptionTable:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_defaults_and_flags_come_from_the_table(self, command):
        options = cli._options(command)
        parser = cli._build_parser()
        cfg = cli._merge_config(command, parser.parse_args([command]))
        assert set(cfg) == set(options) | {"command"}
        for name, (default, kwargs) in options.items():
            assert cfg[name] == default
            value = kwargs.get("choices", ["7"])[0]
            args = parser.parse_args([command, "--" + name.replace("_", "-"), value])
            assert vars(args)[name] == kwargs.get("type", str)(value)


class TestPredictAndLaplace:
    @pytest.fixture()
    def trained(self, tmp_path):
        out = tmp_path / "train"
        assert run(*blob_train_args(out, epochs=60, reg=1e-4)) == 0
        return out

    def data_args(self):
        return ["--dataset", "blobs", "--n-samples", "120", "--std", "0.5"]

    def test_laplace_fit_then_moderated_predict(self, tmp_path, trained, monkeypatch):
        lap = tmp_path / "lap"
        code = run(
            "laplace-fit", "--model", trained / "model.bmps",
            *self.data_args(), "--reg", "1e-4", "--out", lap,
        )
        assert code == 0
        post = load_posterior(lap / "posterior.blap")
        assert post.prior_precision == pytest.approx(1e-4)
        meta = json.loads((lap / "laplace-fit.meta.json").read_text())
        assert 0 < meta["peak_rss_mib"] < 1 << 20
        assert meta["posterior"] == {
            "rank": post.factors.rank,
            "n_params": post.factors.n_params,
            "n_samples": post.factors.n_samples,
            "subsampled": False,
            "log_det_precision": post.log_det_precision,
            "chunk_rows": mps.CHUNK_ROWS,
            "workers": 1,
            "blas_threads": mps.blas_threads(1),
        }
        seconds = meta["seconds"]
        assert set(seconds) == {"factors", "core", "save"}
        assert all(t >= 0 for t in seconds.values())
        assert sum(seconds.values()) <= meta["wall_time_seconds"]
        # a byte budget of 4 Jacobian rows sets the chunks and the pool
        row_bytes = mps.jacobian_row_bytes(post.map_model.shape)
        monkeypatch.setattr(mps, "CHUNK_BYTES", 4 * row_bytes)
        monkeypatch.setattr(mps, "_usable_cores", lambda: 2)
        capped = tmp_path / "capped"
        code = run(
            "laplace-fit", "--model", trained / "model.bmps", *self.data_args(),
            "--reg", "1e-4", "--rank-cap", "10", "--out", capped,
        )
        assert code == 0
        meta = json.loads((capped / "laplace-fit.meta.json").read_text())
        assert meta["posterior"]["subsampled"] is True
        assert meta["posterior"]["rank"] == meta["posterior"]["n_samples"] == 10
        assert meta["posterior"]["chunk_rows"] == 4
        assert meta["posterior"]["workers"] == 2
        assert meta["posterior"]["blas_threads"] == (1 if mps._openblas() else None)

        pred = tmp_path / "pred"
        code = run(
            "predict", "--model", trained / "model.bmps",
            "--posterior", lap / "posterior.blap",
            *self.data_args(), "--out", pred,
        )
        assert code == 0
        header, rows = read_csv(pred / "predictions.csv")
        assert header == ["index", "truth", "map_label", "moderated_label", "prob_0", "prob_1"]
        assert len(rows) == 30
        for row in rows:
            assert math.isclose(float(row[4]) + float(row[5]), 1.0, abs_tol=1e-9)
        meta = json.loads((pred / "predictions.meta.json").read_text())
        assert meta["config"]["mode"] == "moderated"
        assert (meta["chunk_rows"], meta["workers"]) == (4, 2)
        assert meta["blas_threads"] == (1 if mps._openblas() else None)
        assert 0 < meta["peak_rss_mib"] < 1 << 20
        seconds = meta["seconds"]
        assert seconds["load_posterior"] >= 0 and seconds["predict"] >= 0
        assert seconds["load_posterior"] + seconds["predict"] <= meta["wall_time_seconds"]

    def test_predict_without_posterior_warns_and_uses_map(self, tmp_path, trained, capsys):
        pred = tmp_path / "pred"
        code = run(
            "predict", "--model", trained / "model.bmps", *self.data_args(),
            "--out", pred,
        )
        assert code == 0
        assert "falling back" in capsys.readouterr().err
        meta = json.loads((pred / "predictions.meta.json").read_text())
        assert meta["config"]["mode"] == "map"
        assert (meta["chunk_rows"], meta["workers"]) == (mps.CHUNK_ROWS, 1)
        assert meta["blas_threads"] == mps.blas_threads(1)
        assert 0 < meta["peak_rss_mib"] < 1 << 20
        assert meta["seconds"]["load_posterior"] is None
        assert 0 <= meta["seconds"]["predict"] <= meta["wall_time_seconds"]
        header, rows = read_csv(pred / "predictions.csv")
        model = mps.load_model(trained / "model.bmps")
        defaults = {name: d for name, (d, _) in cli._options("predict").items()}
        ds = cli._load_dataset(dict(defaults, n_samples=120, std=0.5))
        expected = trainer.predict_labels(model, ds.test_x)
        assert [int(r[2]) for r in rows] == list(expected)
        assert [r[2] for r in rows] == [r[3] for r in rows]

    def test_predict_with_utility_matrix(self, tmp_path, trained):
        util = tmp_path / "util.csv"
        util.write_text("0,-10\n-1,0\n")
        pred = tmp_path / "pred"
        code = run(
            "predict", "--model", trained / "model.bmps", *self.data_args(),
            "--utility", util, "--out", pred,
        )
        assert code == 0
        header, rows = read_csv(pred / "predictions.csv")
        assert "utility_label" in header
        idx = header.index("utility_label")
        # the loss-averse matrix never makes choosing 1 more attractive than MAP
        for row in rows:
            if row[idx] == "1":
                assert row[2] == "1"

    def test_wrong_size_utility_matrix_exits_before_prediction(
        self, tmp_path, trained, monkeypatch, capsys
    ):
        lap = tmp_path / "lap"
        args = ["--model", trained / "model.bmps", *self.data_args()]
        assert run("laplace-fit", *args, "--reg", "1e-4", "--out", lap) == 0
        util = tmp_path / "util.csv"
        util.write_text("1,0,0\n0,1,0\n0,0,1\n")
        calls = []
        monkeypatch.setattr(laplace, "predictive_batch", lambda *a: calls.append(a))
        code = run(
            "predict", *args, "--posterior", lap / "posterior.blap",
            "--utility", util, "--out", tmp_path / "pred",
        )
        assert code == 2 and calls == []
        assert "utility matrix is 3x3 but the model has 2 classes" in capsys.readouterr().err

    def test_laplace_fit_requires_positive_reg(self, tmp_path, trained):
        code = run(
            "laplace-fit", "--model", trained / "model.bmps",
            *self.data_args(), "--reg", "0", "--out", tmp_path / "lap",
        )
        assert code == 2

    def test_predict_requires_model(self, tmp_path):
        assert run("predict", *self.data_args(), "--out", tmp_path / "x") == 2

    def test_damaged_posterior_exits_2(self, tmp_path, trained, capsys):
        lap = tmp_path / "lap"
        args = ["--model", trained / "model.bmps", *self.data_args()]
        assert run("laplace-fit", *args, "--reg", "1e-4", "--out", lap) == 0
        blob = (lap / "posterior.blap").read_bytes()
        start = len(laplace._MAGIC)
        head = list(laplace._HEADER.unpack_from(blob, start))
        rest = blob[start + laplace._HEADER.size + head[3] :]
        head[3] = 3
        damaged = {
            "list-meta": blob[:start] + laplace._HEADER.pack(*head) + b"[1]" + rest,
            "retired": b"BLAP1" + blob[start:],
        }
        for name, data in damaged.items():
            path = tmp_path / f"{name}.blap"
            path.write_bytes(data)
            code = run("predict", *args, "--posterior", path, "--out", tmp_path / name)
            assert code == 2
        err = capsys.readouterr().err
        assert "not a JSON object" in err and "re-run laplace-fit" in err

    def test_non_finite_factor_row_exits_2(self, tmp_path, trained, capsys):
        # damage in the file, not a numeric failure (which exits 3)
        lap = tmp_path / "lap"
        args = ["--model", trained / "model.bmps", *self.data_args()]
        assert run("laplace-fit", *args, "--reg", "1e-4", "--out", lap) == 0
        blob = bytearray((lap / "posterior.blap").read_bytes())
        start = len(laplace._MAGIC)
        head = laplace._HEADER.unpack_from(blob, start)
        rows = start + laplace._HEADER.size + head[3] + head[4]
        blob[rows : rows + 8] = np.float64(np.nan).tobytes()
        path = tmp_path / "nan.blap"
        path.write_bytes(bytes(blob))
        code = run("predict", *args, "--posterior", path, "--out", tmp_path / "pred")
        assert code == 2
        assert "factor rows" in capsys.readouterr().err

    def test_predict_missing_model_file_exits_2(self, tmp_path):
        code = run(
            "predict", "--model", tmp_path / "nope.bmps", *self.data_args(),
            "--out", tmp_path / "x",
        )
        assert code == 2


class TestExperimentCommands:
    def test_init_compare_rows(self, tmp_path):
        out = tmp_path / "ic"
        code = run(
            "init-compare", "--dataset", "blobs", "--n-samples", "60",
            "--epochs", "2", "--n-seeds", "2",
            "--methods", "calibrated_weight,xavier", "--out", out,
        )
        assert code == 0
        header, rows = read_csv(out / "init-compare.csv")
        assert header == ["method", "seed", "epoch", "train_acc", "test_acc", "status"]
        assert len(rows) == 2 * 2 * 2
        assert {r[0] for r in rows} == {"calibrated_weight", "xavier"}
        assert {r[1] for r in rows} == {"0", "1"}
        assert all(r[5] == "ok" for r in rows)

    def test_init_compare_strips_methods(self, tmp_path):
        out = tmp_path / "ic"
        code = run(
            "init-compare", "--dataset", "blobs", "--n-samples", "60", "--epochs", "1",
            "--n-seeds", "1", "--methods", " xavier , he,", "--out", out,
        )
        assert code == 0
        _, rows = read_csv(out / "init-compare.csv")
        assert [r[0] for r in rows] == ["xavier", "he"]

    def test_init_compare_rejects_unknown_method(self, tmp_path):
        code = run(
            "init-compare", "--dataset", "blobs", "--methods", "glorp",
            "--out", tmp_path / "x",
        )
        assert code == 2

    def test_init_compare_rejects_blank_methods(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "train_map", refuse)
        code = run("init-compare", "--methods", " , ,", "--out", tmp_path / "x")
        assert code == 2
        assert "--methods must list at least one value" in capsys.readouterr().err

    def test_std_perturb_records_divergence_and_continues(self, tmp_path):
        # 1e200 overflows the two-site contraction outright; the sweep must
        # log that cell as diverged and still finish the sane scale.
        out = tmp_path / "sp"
        code = run(
            "std-perturb", "--dataset", "blobs", "--n-samples", "60",
            "--epochs", "2", "--n-seeds", "1", "--scales", "1,1e200",
            "--out", out,
        )
        assert code == 0
        header, rows = read_csv(out / "std-perturb.csv")
        diverged = [r for r in rows if r[5] == "diverged"]
        ok = [r for r in rows if r[5] == "ok"]
        assert len(diverged) == 1
        assert diverged[0][0] == "1e+200"
        assert diverged[0][3] == "" and diverged[0][4] == ""
        assert len(ok) == 2 and all(r[0] == "1.0" for r in ok)

    def test_boundary_grid_map_and_moderated(self, tmp_path):
        for reg, mode in ((0.0, "map"), (1e-3, "moderated")):
            out = tmp_path / f"bg-{mode}"
            code = run(
                "boundary-grid", "--dataset", "blobs", "--n-samples", "60",
                "--epochs", "10", "--learning-rate", "0.02",
                "--grid", "6", "--reg", str(reg), "--out", out,
            )
            assert code == 0
            header, rows = read_csv(out / "boundary-grid.csv")
            assert header == ["x1", "x2", "p_class1", "label"]
            assert len(rows) == 36
            for row in rows:
                p = float(row[2])
                assert 0.0 <= p <= 1.0
                assert row[3] == ("1" if p > 0.5 else "0")
            meta = json.loads((out / "boundary-grid.meta.json").read_text())
            assert meta["config"]["mode"] == mode

    def test_boundary_grid_rejects_tiny_grid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trainer, "train_map", refuse)  # checked before any fit
        code = run(
            "boundary-grid", "--dataset", "blobs", "--grid", "1",
            "--out", tmp_path / "x",
        )
        assert code == 2

    def test_param_hist_values_and_summary(self, tmp_path):
        out = tmp_path / "ph"
        code = run(
            "param-hist", "--dataset", "blobs", "--n-samples", "60",
            "--epochs", "3", "--regs", "0,1e-3", "--bond", "2", "--out", out,
        )
        assert code == 0
        header, rows = read_csv(out / "params.csv")
        assert header == ["model", "reg", "value"]
        sheader, srows = read_csv(out / "params-summary.csv")
        assert sheader == ["model", "reg", "n_params", "std", "excess_kurtosis"]
        assert len(srows) == 4
        for srow in srows:
            n = int(srow[2])
            matching = [r for r in rows if r[0] == srow[0] and r[1] == srow[1]]
            assert len(matching) == n
            values = np.array([float(r[2]) for r in matching])
            assert values.std() == pytest.approx(float(srow[3]), rel=1e-9)
            assert np.isfinite(float(srow[4]))

    def test_bond_sweep_rows(self, tmp_path):
        out = tmp_path / "bs"
        code = run(
            "bond-sweep", "--dataset", "blobs", "--n-samples", "60",
            "--epochs", "2", "--bonds", "2,3", "--n-seeds", "2", "--out", out,
        )
        assert code == 0
        header, rows = read_csv(out / "bond-sweep.csv")
        assert header == ["bond", "seed", "test_acc", "wall_time", "status"]
        assert len(rows) == 4
        assert [r[0] for r in rows] == ["2", "2", "3", "3"]
        assert {r[1] for r in rows} == {"0", "1"}
        for row in rows:
            assert float(row[3]) > 0
            assert 0.0 <= float(row[2]) <= 1.0

    @pytest.mark.parametrize("command", ["bond-sweep", "init-compare", "std-perturb"])
    @pytest.mark.parametrize("n_seeds", [0, -2])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_n_seeds_below_1_exits_2(
        self, tmp_path, capsys, monkeypatch, command, n_seeds, from_config
    ):
        monkeypatch.setattr(trainer, "train_map", refuse)
        out = tmp_path / "x"
        if from_config:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"n_seeds": n_seeds}))
            args = ["--config", conf]
        else:
            args = ["--n-seeds", n_seeds]
        assert run(command, *args, "--out", out) == 2
        assert f"--n-seeds must be >= 1, got {n_seeds}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, option, values, message",
        [
            ("std-perturb", "--scales", "1,0", "scale_factor must be positive, got 0.0"),
            ("init-compare", "--methods", "xavier,glorp", "unknown init method 'glorp'"),
            ("bond-sweep", "--bonds", "2,0", "bond_dim must be a positive integer, got 0"),
        ],
    )
    def test_every_value_is_checked_before_the_first_cell(
        self, tmp_path, capsys, monkeypatch, command, option, values, message
    ):
        # the first value is good, so a check made cell by cell would train it
        monkeypatch.setattr(trainer, "train_map", refuse)
        out = tmp_path / "x"
        assert run(command, option, values, "--n-seeds", 2, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._SWEEPS))
    def test_every_sweep_runs_through_the_one_handler(self, command):
        handler, _, own = cli._COMMANDS[command]
        assert handler is cli.cmd_sweep
        assert cli._SWEEPS[command][0] in own and "n_seeds" in own

    def test_bond_sweep_rejects_bad_bonds(self, tmp_path):
        assert run("bond-sweep", "--bonds", "0", "--out", tmp_path / "x") == 2
        assert run("bond-sweep", "--bonds", "", "--out", tmp_path / "x") == 2

    def test_bond_sweep_rejects_fractional_bonds(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "train_map", refuse)
        assert run("bond-sweep", "--bonds", "2.5,4", "--out", tmp_path / "x") == 2
        assert "--bonds must be comma-separated integers" in capsys.readouterr().err
