"""The benchmark's workloads: set-up, one timed operation, and output checks.

Every call into bmps goes through a module attribute (``trainer.train_map``,
never a name imported from a module), so the traced run's wrappers see it.

Inputs are drawn from input set ``seed % INPUT_SETS``; ``references.json``
holds the recorded outputs of each input set, so every run's outputs are
compared with a recorded reference.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import time
from dataclasses import dataclass, field

import numpy as np

from bmps import cli, data, initializer, laplace, mps, trainer

import gen

INPUT_SETS = 16
# Normwise relative tolerance for recorded float outputs: |got - ref| must not
# exceed RTOL * max|ref| over each recorded array. Labels and ranks match exactly.
RTOL = 1e-6
DIGIT_SHAPE = mps.MpsShape(n_sites=196, phys_dim=2, bond_dim=8, n_labels=10)
DIGIT_TRAIN = dict(epochs=1, batch_size=32, learning_rate=1e-3, optimizer="adam")
POSTERIOR_PRECISION = 1.0
# The digits-laplace set-up fits its MAP model for one epoch on this many
# training rows, which keeps three set-ups per run affordable.
MAP_FIT_ROWS = 500
# The MAP forward over 400 test rows takes well under a second; repeating it
# gives the digits-train predict rate enough samples for a steady mean.
MAP_PREDICT_REPEATS = 5
SCREENING_EPOCHS = 20
SCREENING_REG = 1.0
SCREENING_TRAIN_ROWS = 1500
SCREENING_TEST_ROWS = 500


@dataclass
class OpResult:
    """Timings and outputs of one timed operation."""

    fit_s: float
    predict_s: list  # wall time of each prediction call
    predict_rows: int  # rows per prediction call
    named: dict
    outputs: dict = field(repr=False)


def _digest(arr):
    """What the references keep of an array: its first rows and column sums of |x|."""
    arr = np.asarray(arr, dtype=np.float64)
    return {"head": arr[:4].tolist(), "abs_colsum": np.abs(arr).sum(axis=0).tolist()}


def _labels_digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def compare(got, want, where=""):
    """Differences between a summary and its recorded reference, as messages."""
    problems = []
    for key, ref in want.items():
        name = f"{where}{key}"
        val = got.get(key)
        if isinstance(ref, dict):
            problems += compare(val or {}, ref, name + ".")
        elif isinstance(ref, (str, int)):
            if val != ref:
                problems.append(f"{name}: {val!r} != reference {ref!r}")
        else:
            a, b = np.asarray(val, dtype=np.float64), np.asarray(ref, dtype=np.float64)
            scale = float(np.abs(b).max()) if b.size else 0.0
            if a.shape != b.shape or not np.all(np.abs(a - b) <= RTOL * scale):
                err = np.abs(a - b).max() / scale if a.shape == b.shape and scale else None
                problems.append(f"{name}: differs from reference (normwise error {err})")
    return problems


def _prob_problems(probs, where):
    probs = np.asarray(probs)
    problems = []
    if not (np.all(probs >= 0.0) and np.all(probs <= 1.0)):
        problems.append(f"{where}: probabilities outside [0, 1]")
    if not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        problems.append(f"{where}: probability rows do not sum to 1")
    return problems


def _expected_rank(n_rows, n_labels):
    return min(laplace.DEFAULT_RANK_CAP, n_rows * (1 if n_labels == 1 else n_labels))


def _digit_split(seed):
    return data.DatasetSplit(*gen.digits(seed % INPUT_SETS))


def _digit_model(ds, seed):
    spec = initializer.InitSpec(var_x=ds.init_var_x(), seed=seed % INPUT_SETS)
    return initializer.init_model(DIGIT_SHAPE, spec)


def _digit_config(seed):
    return trainer.TrainConfig(seed=seed % INPUT_SETS, **DIGIT_TRAIN)


class DigitsTrain:
    """One-epoch `train_map` at the paper's scale, then MAP logits of the test rows.

    On some input sets (0, for one) one epoch does not lower the loss, so
    `train_map` returns the initial model; the final epoch's parameter spread
    (`param_std`) is checked too, as it moves with every optimizer step.
    """

    name = "digits-train"

    def setup(self, seed, workdir):
        self.ds = _digit_split(seed)
        self.model = _digit_model(self.ds, seed)
        self.config = _digit_config(seed)

    def op(self):
        t0 = time.perf_counter()
        fit, history = trainer.train_map(self.model, self.ds, self.config)
        fit_s = time.perf_counter() - t0
        times = []
        for _ in range(MAP_PREDICT_REPEATS):
            t0 = time.perf_counter()
            logits = trainer.predict_logits(fit, self.ds.test_x)
            times.append(time.perf_counter() - t0)
        rows = self.ds.train_x.shape[0] * self.config.epochs
        return OpResult(
            fit_s=fit_s,
            predict_s=times,
            predict_rows=logits.shape[0],
            named={"train_samples_per_s": rows / fit_s},
            outputs={
                "train_loss": history.records[-1].train_loss,
                "param_std": history.records[-1].param_std,
                "logits": logits,
            },
        )

    def check(self, res):
        out = res.outputs
        problems = []
        if not (np.isfinite(out["train_loss"]) and np.isfinite(out["param_std"])):
            problems.append("train loss or parameter spread is not finite")
        if out["logits"].shape != (self.ds.test_x.shape[0], DIGIT_SHAPE.n_labels):
            problems.append(f"logits have shape {out['logits'].shape}")
        elif not np.all(np.isfinite(out["logits"])):
            problems.append("logits are not finite")
        return problems

    def summary(self, res):
        return {
            "train_loss": res.outputs["train_loss"],
            "param_std": res.outputs["param_std"],
            "logits": _digest(res.outputs["logits"]),
        }


class DigitsLaplace:
    """GGN factors, posterior and moderated predictions around a digit-scale MAP model."""

    name = "digits-laplace"

    def setup(self, seed, workdir):
        self.seed = seed % INPUT_SETS
        self.ds = _digit_split(seed)
        fit_rows = data.DatasetSplit(
            self.ds.train_x[:MAP_FIT_ROWS], self.ds.train_y[:MAP_FIT_ROWS],
            self.ds.test_x, self.ds.test_y,
        )
        self.map_model, _ = trainer.train_map(
            _digit_model(self.ds, seed), fit_rows, _digit_config(seed)
        )

    def op(self):
        t0 = time.perf_counter()
        factors = laplace.ggn_factors(self.map_model, self.ds.train_x, seed=self.seed)
        post = laplace.LaplacePosterior(self.map_model, factors, POSTERIOR_PRECISION)
        t1 = time.perf_counter()
        pred = laplace.predictive_batch(post, self.ds.test_x)
        t2 = time.perf_counter()
        return OpResult(
            fit_s=t1 - t0,
            predict_s=[t2 - t1],
            predict_rows=pred.probabilities.shape[0],
            named={"laplace_fit_s": t1 - t0},
            outputs={
                "rank": factors.rank,
                "sigma2": pred.sigma2,
                "probabilities": pred.probabilities,
            },
        )

    def check(self, res):
        out = res.outputs
        problems = _prob_problems(out["probabilities"], "moderated predictions")
        if not (np.all(np.isfinite(out["sigma2"])) and np.all(out["sigma2"] >= 0.0)):
            problems.append("sigma2 is negative or not finite")
        want = _expected_rank(self.ds.train_x.shape[0], DIGIT_SHAPE.n_labels)
        if out["rank"] != want:
            problems.append(f"posterior rank {out['rank']}, expected {want}")
        return problems

    def summary(self, res):
        out = res.outputs
        return {
            "rank": out["rank"],
            "sigma2": _digest(out["sigma2"]),
            "probabilities": _digest(out["probabilities"]),
        }


def _run_cli(argv):
    """cli.main in process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


class ScreeningCli:
    """`train`, `laplace-fit`, `predict --posterior --utility` on a 30-feature binary CSV."""

    name = "screening-cli"

    def setup(self, seed, workdir):
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        csv_path, schema, self.utility = gen.write_screening(seed % INPUT_SETS, inputs)
        s = str(seed % INPUT_SETS)
        self.common = [
            "--dataset", "csv", "--csv", csv_path, "--label-column", gen.LABEL_COLUMN,
            "--schema", schema, "--data-seed", s, "--seed", s, "--bond", "8",
            "--reg", str(SCREENING_REG),
        ]
        self.dirs = {k: workdir / k for k in ("train", "posterior", "predict")}

    def op(self):
        model = self.dirs["train"] / "model.bmps"
        posterior = self.dirs["posterior"] / "posterior.blap"
        commands = (
            ["train", *self.common, "--epochs", SCREENING_EPOCHS, "--out", self.dirs["train"]],
            ["laplace-fit", *self.common, "--model", model, "--out", self.dirs["posterior"]],
            ["predict", *self.common, "--model", model, "--posterior", posterior,
             "--utility", self.utility, "--out", self.dirs["predict"]],
        )
        seconds, codes, stdout = [], [], []
        for argv in commands:
            t0 = time.perf_counter()
            code, text = _run_cli(argv)
            seconds.append(time.perf_counter() - t0)
            codes.append(code)
            stdout.append(text)
        with open(self.dirs["predict"] / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        train_s, fit_s, predict_s = seconds
        return OpResult(
            fit_s=train_s + fit_s,
            predict_s=[predict_s],
            predict_rows=len(rows),
            named={
                "train_samples_per_s": SCREENING_TRAIN_ROWS * SCREENING_EPOCHS / train_s,
                "laplace_fit_s": fit_s,
                "cli_run_s": sum(seconds),
            },
            outputs={"codes": codes, "stdout": stdout, "rows": rows},
        )

    def check(self, res):
        out = res.outputs
        if any(out["codes"]):
            return [f"command exit codes {out['codes']}"]
        rows = out["rows"]
        problems = []
        match = re.search(r"posterior rank (\d+)", out["stdout"][1])
        want = _expected_rank(SCREENING_TRAIN_ROWS, 1)
        if match is None or int(match.group(1)) != want:
            problems.append(f"laplace-fit reported {out['stdout'][1]!r}, expected rank {want}")
        if len(rows) != SCREENING_TEST_ROWS:
            problems.append(f"predictions.csv has {len(rows)} rows")
        probs = np.array([[float(r["prob_0"]), float(r["prob_1"])] for r in rows])
        problems += _prob_problems(probs, "predictions.csv")
        if any(r["map_label"] != r["moderated_label"] for r in rows):
            problems.append("binary moderation flipped a MAP label")
        return problems

    def summary(self, res):
        rows = res.outputs["rows"]
        probs = [[float(r["prob_0"]), float(r["prob_1"])] for r in rows]
        labels = {
            col: _labels_digest(r[col] for r in rows)
            for col in ("truth", "map_label", "moderated_label", "utility_label")
        }
        return {"labels": labels, "probabilities": _digest(probs)}


WORKLOADS = {w.name: w for w in (DigitsTrain, DigitsLaplace, ScreeningCli)}
