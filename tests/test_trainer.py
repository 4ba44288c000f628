"""Tests for the penalized cross-entropy objective and minibatch training."""

import csv
import io
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special

from bmps import laplace, mps, trainer
from bmps.errors import DataError, ShapeError, TrainingDiverged

from oracles import awkward_logits, fd_grad_scalar, random_model

RNG = np.random.default_rng


def small_model(rng, n_labels, n_sites=4, bond=3, boundary="cyclic", scale=0.6):
    shape = mps.MpsShape(n_sites, 2, bond, n_labels, boundary=boundary)
    return random_model(rng, shape, scale=scale)


def onehot(idx, width):
    out = np.zeros((len(idx), width))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def toy_binary_data(rng, n, n_sites=4):
    """Class 0 clusters near feature value 0.25, class 1 near 0.75."""
    y = rng.integers(0, 2, size=n)
    centers = np.where(y[:, None] == 0, 0.25, 0.75)
    x = np.clip(centers + rng.normal(0.0, 0.08, size=(n, n_sites)), 0.0, 1.0)
    return x, onehot(y, 2)


class TestLossValues:
    def test_binary_matches_direct_formula(self):
        rng = RNG(3)
        model = small_model(rng, 1)
        X = rng.uniform(0, 1, size=(7, 4))
        y = rng.integers(0, 2, size=7)
        Y = onehot(y, 2)
        z = mps.forward_batch(model, mps.embed(X))[:, 0]
        want = np.sum(np.log1p(np.exp(z)) - y * z)
        got = trainer.loss(model, X, Y)
        assert got == pytest.approx(want, rel=1e-12)

    def test_multiclass_matches_direct_formula(self):
        rng = RNG(4)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(6, 4))
        y = rng.integers(0, 3, size=6)
        Y = onehot(y, 3)
        z = mps.forward_batch(model, mps.embed(X))
        want = 0.0
        for i in range(6):
            want += math.log(np.sum(np.exp(z[i]))) - z[i, y[i]]
        got = trainer.loss(model, X, Y)
        assert got == pytest.approx(want, rel=1e-12)

    def test_prior_adds_half_precision_norm(self):
        rng = RNG(5)
        model = small_model(rng, 2)
        X = rng.uniform(0, 1, size=(5, 4))
        Y = onehot(rng.integers(0, 2, size=5), 2)
        lam = 0.37
        base = trainer.loss(model, X, Y)
        with_prior = trainer.loss(model, X, Y, trainer.PriorSpec(lam))
        assert with_prior == pytest.approx(
            base + 0.5 * lam * mps.weight_norm_sq(model), rel=1e-13
        )

    def test_zero_precision_is_exactly_plain_ce(self):
        rng = RNG(6)
        model = small_model(rng, 1)
        X = rng.uniform(0, 1, size=(5, 4))
        Y = onehot(rng.integers(0, 2, size=5), 2)
        assert trainer.loss(model, X, Y, trainer.PriorSpec(0.0)) == trainer.loss(
            model, X, Y
        )

    def test_binary_saturated_logits_stay_finite(self):
        shape = mps.MpsShape(2, 2, 1, 1, boundary="open")
        nodes = [np.full(shape.node_shape(0), 30.0), np.full(shape.node_shape(1), 30.0)]
        model = mps.MpsModel(shape, nodes)
        X = np.full((2, 2), 0.5)
        z = mps.forward_batch(model, mps.embed(X))[0, 0]
        assert z > 500.0
        loss_hit = trainer.loss(model, X[:1], onehot([1], 2))
        loss_miss = trainer.loss(model, X[:1], onehot([0], 2))
        assert math.isfinite(loss_hit) and loss_hit == pytest.approx(0.0, abs=1e-12)
        assert loss_miss == pytest.approx(z, rel=1e-12)

    def test_tiny_cross_entropies_keep_their_digits(self):
        # a margin of 50 costs log1p(e^-50) = 1.9e-22 a row, not 0, in both heads
        want = math.log1p(math.exp(-50.0))
        binary = np.array([[50.0], [-50.0]])
        got = trainer._cross_entropy(binary, onehot([1, 0], 2))
        assert got == pytest.approx(2 * want, rel=1e-14, abs=0)
        wide = np.array([[50.0, 0.0], [3.0, 53.0]])
        got = trainer._cross_entropy(wide, onehot([0, 1], 2))
        assert got == pytest.approx(2 * want, rel=1e-14, abs=0)

    def test_loss_dispatches_on_output_width(self):
        # A two-channel model whose class-0 logit is pinned at 0 has softmax
        # probabilities equal to the sigmoid of its class-1 logit, so the
        # softmax head must reproduce the single-channel sigmoid head.
        rng = RNG(7)
        binary = small_model(rng, 1)
        label = binary.shape.label_site
        wide_shape = mps.MpsShape(4, 2, 3, 2)
        wide_nodes = [n.copy() for n in binary.nodes]
        wide_nodes[label] = np.concatenate(
            [np.zeros_like(binary.nodes[label]), binary.nodes[label]], axis=2
        )
        wide = mps.MpsModel(wide_shape, wide_nodes)
        X = rng.uniform(0, 1, size=(4, 4))
        Y = onehot([0, 1, 1, 0], 2)
        assert trainer.loss(wide, X, Y) == pytest.approx(
            trainer.loss(binary, X, Y), rel=1e-12
        )


class TestLossValidation:
    def test_rejects_non_onehot_rows(self):
        rng = RNG(10)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(2, 4))
        bad = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DataError):
            trainer.loss(model, X, bad)
        soft = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DataError):
            trainer.loss(model, X, soft)

    def test_rejects_wrong_label_width(self):
        rng = RNG(11)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(2, 4))
        with pytest.raises(ShapeError):
            trainer.loss(model, X, onehot([0, 1], 2))

    def test_rejects_row_count_mismatch(self):
        rng = RNG(12)
        model = small_model(rng, 1)
        X = rng.uniform(0, 1, size=(3, 4))
        with pytest.raises(ShapeError):
            trainer.loss(model, X, onehot([0, 1], 2))

    @pytest.mark.parametrize("name", ["loss", "grad_loss", "accuracy"])
    def test_row_count_mismatch_raises_before_any_sweep(self, monkeypatch, name):
        rng = RNG(13)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(5, 4))
        sweeps, sweep = [], mps._sweep
        monkeypatch.setattr(
            mps, "_sweep", lambda *a, **k: sweeps.append(1) or sweep(*a, **k)
        )
        with pytest.raises(ShapeError, match="5 samples but 1 label rows"):
            getattr(trainer, name)(model, X, onehot([0], 3))
        assert sweeps == []


class TestGradLoss:
    @pytest.mark.parametrize(
        "n_labels,boundary,precision",
        [
            (1, "cyclic", 0.0),
            (1, "open", 0.8),
            (3, "cyclic", 0.0),
            (3, "open", 0.25),
            (2, "cyclic", 1.5),
        ],
    )
    def test_matches_finite_differences(self, n_labels, boundary, precision):
        rng = RNG(20 + n_labels)
        model = small_model(rng, n_labels, boundary=boundary)
        X = rng.uniform(0, 1, size=(6, 4))
        width = 2 if n_labels == 1 else n_labels
        Y = onehot(rng.integers(0, width, size=6), width)
        prior = trainer.PriorSpec(precision)

        def f(vec):
            return trainer.loss(mps.model_from_params(model.shape, vec), X, Y, prior)

        want = fd_grad_scalar(f, model.params.copy())
        grads = trainer.grad_loss(model, X, Y, prior)
        got = np.concatenate([g.ravel() for g in grads])
        assert np.allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_gradient_cancels_on_balanced_residuals(self):
        # Zero label node -> logit 0 -> probability 1/2 for every input, so
        # two identical samples with opposite targets produce residuals that
        # cancel exactly and the data gradient vanishes.
        shape = mps.MpsShape(2, 2, 1, 1, boundary="open")
        nodes = [np.ones(shape.node_shape(0)), np.zeros(shape.node_shape(1))]
        model = mps.MpsModel(shape, nodes)
        X = np.full((2, 2), 0.5)
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])  # balanced targets
        assert mps.forward_batch(model, mps.embed(X))[0, 0] == 0.0
        grads = trainer.grad_loss(model, X, Y)
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-14)


def split(x, y, tx=None, ty=None):
    if tx is None:
        tx = np.zeros((0, x.shape[1]))
        ty = np.zeros((0, y.shape[1]))
    return SimpleNamespace(train_x=x, train_y=y, test_x=tx, test_y=ty)


class TestOptimizerSteps:
    def test_sgd_single_step_is_plain_descent(self):
        rng = RNG(30)
        model = small_model(rng, 1)
        X, Y = toy_binary_data(rng, 8)
        lr = 0.01
        config = trainer.TrainConfig(
            epochs=1, batch_size=8, learning_rate=lr, optimizer="sgd", shuffle=False
        )
        prior = trainer.PriorSpec(0.3)
        grads = trainer.grad_loss(model, X, Y, prior)
        trained, _ = trainer.train_map(model, split(X, Y), config, prior)
        for node, g, new in zip(model.nodes, grads, trained.nodes):
            assert np.allclose(new, node - lr * g, rtol=1e-12, atol=1e-15)

    def test_momentum_accumulates_velocity(self):
        rng = RNG(31)
        model = small_model(rng, 1)
        X, Y = toy_binary_data(rng, 8)
        lr, mu = 0.01, trainer.MOMENTUM
        config = trainer.TrainConfig(
            epochs=2,
            batch_size=8,
            learning_rate=lr,
            optimizer="sgd_momentum",
            shuffle=False,
        )
        trained, _ = trainer.train_map(model, split(X, Y), config)

        work = model.copy()
        vel = [np.zeros_like(n) for n in work.nodes]
        for _ in range(2):
            grads = trainer.grad_loss(work, X, Y)
            for node, g, v in zip(work.nodes, grads, vel):
                v *= mu
                v += g
                node -= lr * v
        # train_map returns the best iterate; for this check recompute which
        # epoch won and compare against the matching manual state.
        for got, want in zip(trained.nodes, work.nodes):
            if trainer.loss(work, X, Y) <= trainer.loss(model, X, Y):
                assert np.allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_adam_first_step_matches_update_rule(self):
        rng = RNG(32)
        model = small_model(rng, 1)
        X, Y = toy_binary_data(rng, 8)
        lr, eps = 0.05, trainer.ADAM_EPS
        config = trainer.TrainConfig(epochs=1, batch_size=8, learning_rate=lr, shuffle=False)
        grads = trainer.grad_loss(model, X, Y)
        trained, history = trainer.train_map(model, split(X, Y), config)
        if history.best_epoch == 1:
            for node, g, new in zip(model.nodes, grads, trained.nodes):
                want = node - lr * g / (np.abs(g) + eps)
                assert np.allclose(new, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("optimizer", trainer.OPTIMIZERS)
    def test_flat_updates_match_per_node_rule(self, optimizer):
        # Four full-batch steps of the textbook rule, node by node, against
        # the optimizer on the flat vector and against train_map's iterate
        # (whose spread every epoch record holds, best epoch or not).
        rng = RNG(33)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(16, 4))
        Y = onehot(rng.integers(0, 3, size=16), 3)
        prior = trainer.PriorSpec(0.1)
        lr = 0.01
        mu, b1, b2 = trainer.MOMENTUM, trainer.ADAM_BETA1, trainer.ADAM_BETA2
        eps = trainer.ADAM_EPS
        config = trainer.TrainConfig(
            epochs=4, batch_size=16, learning_rate=lr, optimizer=optimizer, shuffle=False
        )

        nodes = [n.copy() for n in model.nodes]
        m = [np.zeros_like(n) for n in nodes]
        v = [np.zeros_like(n) for n in nodes]
        theta = model.params.copy()
        opt = trainer._OPTIMIZER_CLASSES[optimizer](config, theta.size)
        # the same rule on the flat vector, written as expressions with
        # temporaries: the in-place optimizer must match it bit for bit
        flat, flat_m, flat_v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
        stds = []
        for t in range(1, 5):
            grads = trainer.grad_loss(mps.MpsModel(model.shape, nodes), X, Y, prior)
            for i, g in enumerate(grads):
                if optimizer == "sgd":
                    nodes[i] = nodes[i] - lr * g
                elif optimizer == "sgd_momentum":
                    m[i] = mu * m[i] + g
                    nodes[i] = nodes[i] - lr * m[i]
                else:
                    m[i] = b1 * m[i] + (1 - b1) * g
                    v[i] = b2 * v[i] + (1 - b2) * g**2
                    step = (m[i] / (1 - b1**t)) / (np.sqrt(v[i] / (1 - b2**t)) + eps)
                    nodes[i] = nodes[i] - lr * step
            want = np.concatenate([n.ravel() for n in nodes])
            flat_grad = trainer.grad_loss(mps.model_from_params(model.shape, theta), X, Y, prior)
            g = np.concatenate([g.ravel() for g in flat_grad])
            if optimizer == "sgd":
                flat -= lr * g
            elif optimizer == "sgd_momentum":
                flat_m *= mu
                flat_m += g
                flat -= lr * flat_m
            else:
                flat_m *= b1
                flat_m += (1.0 - b1) * g
                flat_v *= b2
                flat_v += (1.0 - b2) * np.square(g)
                flat -= lr * (flat_m / (1.0 - b1**t)) / (np.sqrt(flat_v / (1.0 - b2**t)) + eps)
            opt.step(theta, g)
            assert np.array_equal(theta, flat)
            if optimizer == "sgd_momentum":
                assert np.array_equal(opt.velocity, flat_m)
            elif optimizer == "adam":
                assert np.array_equal(opt.m, flat_m) and np.array_equal(opt.v, flat_v)
            assert np.abs(theta - want).max() <= 1e-12 * np.abs(want).max()
            stds.append(want.std())

        _, history = trainer.train_map(model, split(X, Y), config, prior)
        got = [rec.param_std for rec in history.records]
        np.testing.assert_allclose(got, stds, rtol=1e-12, atol=0)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            trainer.TrainConfig(optimizer="lbfgs")

    def test_bad_config_values_rejected(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            trainer.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            trainer.PriorSpec(-0.1)


class TestTrainMap:
    def test_fit_improves_toy_problem(self):
        rng = RNG(40)
        X, Y = toy_binary_data(rng, 80)
        tx, ty = toy_binary_data(rng, 40)
        model = small_model(rng, 1, scale=0.5)
        config = trainer.TrainConfig(epochs=25, batch_size=16, learning_rate=0.02, seed=1)
        trained, history = trainer.train_map(model, split(X, Y, tx, ty), config)
        assert trainer.loss(trained, X, Y) < trainer.loss(model, X, Y)
        assert trainer.accuracy(trained, tx, ty) >= 0.9
        assert len(history.records) == 25

    @pytest.mark.parametrize(
        "case, error",
        [("width", ShapeError), ("rows", ShapeError), ("range", DataError)],
    )
    def test_bad_test_set_raises_before_any_step(self, monkeypatch, case, error):
        rng = RNG(48)
        X, Y = toy_binary_data(rng, 16)
        tx, ty = toy_binary_data(rng, 6)
        tx = {"width": tx[:, :3], "rows": tx[:5], "range": tx * 1.5 + 0.1}[case]
        steps = []
        loss_and_grad = trainer._loss_and_grad
        monkeypatch.setattr(
            trainer, "_loss_and_grad", lambda *a: steps.append(1) or loss_and_grad(*a)
        )
        config = trainer.TrainConfig(epochs=3, batch_size=8)
        with pytest.raises(error):
            trainer.train_map(small_model(rng, 1), split(X, Y, tx, ty), config)
        assert steps == []

    def test_input_model_not_mutated(self):
        rng = RNG(41)
        X, Y = toy_binary_data(rng, 20)
        model = small_model(rng, 1)
        before = [n.copy() for n in model.nodes]
        trainer.train_map(model, split(X, Y), trainer.TrainConfig(epochs=3))
        for node, saved in zip(model.nodes, before):
            assert np.array_equal(node, saved)

    def test_deterministic_given_seed(self):
        rng = RNG(42)
        X, Y = toy_binary_data(rng, 30)
        model = small_model(rng, 1)
        config = trainer.TrainConfig(epochs=4, batch_size=8, seed=7)
        a, _ = trainer.train_map(model, split(X, Y), config)
        b, _ = trainer.train_map(model, split(X, Y), config)
        for na, nb in zip(a.nodes, b.nodes):
            assert np.array_equal(na, nb)

    def test_shuffle_seed_changes_result(self):
        rng = RNG(43)
        X, Y = toy_binary_data(rng, 30)
        model = small_model(rng, 1)
        a, _ = trainer.train_map(
            model, split(X, Y), trainer.TrainConfig(epochs=2, batch_size=8, seed=0)
        )
        b, _ = trainer.train_map(
            model, split(X, Y), trainer.TrainConfig(epochs=2, batch_size=8, seed=1)
        )
        assert any(not np.array_equal(na, nb) for na, nb in zip(a.nodes, b.nodes))

    def test_zero_epochs_returns_initial_copy(self):
        rng = RNG(44)
        X, Y = toy_binary_data(rng, 10)
        model = small_model(rng, 1)
        trained, history = trainer.train_map(
            model, split(X, Y), trainer.TrainConfig(epochs=0)
        )
        assert history.best_epoch == 0
        assert history.records == []
        assert trained is not model
        for na, nb in zip(trained.nodes, model.nodes):
            assert np.array_equal(na, nb)

    def test_best_iterate_matches_recorded_minimum(self):
        rng = RNG(45)
        X, Y = toy_binary_data(rng, 40)
        model = small_model(rng, 1)
        config = trainer.TrainConfig(epochs=8, batch_size=8, learning_rate=0.05, seed=3)
        trained, history = trainer.train_map(model, split(X, Y), config)
        losses = [rec.train_loss for rec in history.records]
        initial = trainer.loss(model, X, Y)
        best = min([initial] + losses)
        assert trainer.loss(trained, X, Y) == pytest.approx(best, rel=1e-12)
        if history.best_epoch == 0:
            assert initial <= min(losses)
        else:
            assert losses[history.best_epoch - 1] == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_best_record_matches_direct_evaluation(self, n_labels):
        # The epoch-end loss and accuracy come from one logits pass over the
        # training rows; they must equal the public functions exactly.
        rng = RNG(49)
        width = max(n_labels, 2)
        y = rng.integers(0, width, size=40)
        x = np.clip(0.2 + 0.3 * y[:, None] + rng.normal(0, 0.1, (40, 4)), 0, 1)
        Y = onehot(y, width)
        model = small_model(rng, n_labels, scale=0.5)
        prior = trainer.PriorSpec(0.1)
        config = trainer.TrainConfig(epochs=6, batch_size=8, learning_rate=0.02, seed=2)
        fit, history = trainer.train_map(model, split(x, Y), config, prior)
        assert history.best_epoch >= 1
        rec = history.records[history.best_epoch - 1]
        assert rec.train_loss == trainer.loss(fit, x, Y, prior)
        assert rec.train_acc == trainer.accuracy(fit, x, Y)

    def test_test_accuracy_nan_without_holdout(self):
        rng = RNG(46)
        X, Y = toy_binary_data(rng, 12)
        model = small_model(rng, 1)
        _, history = trainer.train_map(model, split(X, Y), trainer.TrainConfig(epochs=1))
        assert math.isnan(history.records[0].test_acc)

    def test_multiclass_training_runs(self):
        rng = RNG(47)
        n = 60
        y = rng.integers(0, 3, size=n)
        x = np.clip(0.2 + 0.3 * y[:, None] + rng.normal(0, 0.05, (n, 4)), 0, 1)
        Y = onehot(y, 3)
        model = small_model(rng, 3, scale=0.5)
        config = trainer.TrainConfig(epochs=15, batch_size=12, learning_rate=0.02)
        trained, _ = trainer.train_map(model, split(x, Y), config)
        assert trainer.accuracy(trained, x, Y) > 0.8

    def test_empty_training_set_rejected(self):
        rng = RNG(48)
        model = small_model(rng, 1)
        data = split(np.zeros((0, 4)), np.zeros((0, 2)))
        with pytest.raises(DataError):
            trainer.train_map(model, data)


class TestDivergence:
    def test_huge_learning_rate_raises_with_location(self):
        rng = RNG(50)
        X, Y = toy_binary_data(rng, 24)
        model = small_model(rng, 1)
        config = trainer.TrainConfig(
            epochs=5, batch_size=8, learning_rate=1e8, optimizer="sgd"
        )
        with pytest.raises(TrainingDiverged) as exc_info:
            trainer.train_map(model, split(X, Y), config)
        err = exc_info.value
        assert err.epoch is not None and err.epoch >= 1
        assert err.batch is not None and err.batch >= 0
        assert f"epoch {err.epoch}" in str(err)

    def test_divergence_factor_controls_threshold(self, monkeypatch):
        # The default factor lets an unstable run go on for a few batches;
        # a strict one tears the same run down at its first batch.
        rng = RNG(51)
        X, Y = toy_binary_data(rng, 24)
        model = small_model(rng, 1)
        config = trainer.TrainConfig(
            epochs=3, batch_size=8, learning_rate=5.0, optimizer="sgd"
        )

        def stop():
            with pytest.raises(TrainingDiverged) as info:
                trainer.train_map(model, split(X, Y), config)
            return info.value.epoch, info.value.batch

        default = stop()
        monkeypatch.setattr(trainer, "DIVERGENCE_FACTOR", 1.0001)
        assert stop() == (1, 0) < default

    def test_tiny_starting_cross_entropy_under_a_large_penalty_still_guards(self):
        # Every logit is 50 on class-1 rows: a starting mean cross entropy of
        # log1p(e^-50) = 1.9e-22, under a penalty of 1.9e4 that
        # (loss - penalty) / m would cancel to 0, and that log(1 + e^50) - 50
        # rounds to 0. Either 0 would turn the divergence rule off.
        sh = mps.MpsShape(3, 2, 1, 1, boundary="open")
        nodes = [np.ones(sh.node_shape(i)) for i in range(3)]
        nodes[0][...] = 50.0
        model = mps.MpsModel(sh, nodes)
        X = np.full((8, 3), 0.5)
        Y = onehot(np.ones(8, dtype=int), 2)
        assert np.all(trainer.predict_logits(model, X) == 50.0)
        config = trainer.TrainConfig(
            epochs=3, batch_size=8, learning_rate=0.3, optimizer="sgd", shuffle=False
        )
        with pytest.raises(TrainingDiverged) as info:
            trainer.train_map(model, split(X, Y), config, trainer.PriorSpec(10.0))
        assert (info.value.epoch, info.value.batch) == (2, 0)
        assert "mean cross entropy 400 " in str(info.value)
        assert "(started at 1.92875e-22)" in str(info.value)

    def test_zero_starting_cross_entropy_still_guards_at_chance_level(self):
        # Every logit is 800: log1p(e^-800) underflows, so the starting mean
        # cross entropy is exactly 0 and no multiple of it is a limit. The
        # rule still stops a batch above chance level, log 2.
        sh = mps.MpsShape(3, 2, 1, 1, boundary="open")
        nodes = [np.ones(sh.node_shape(i)) for i in range(3)]
        nodes[0][...] = 800.0
        model = mps.MpsModel(sh, nodes)
        X = np.full((8, 3), 0.5)
        Y = onehot(np.ones(8, dtype=int), 2)
        assert trainer.loss(model, X, Y) == 0.0
        config = trainer.TrainConfig(
            epochs=3, batch_size=8, learning_rate=0.3, optimizer="sgd", shuffle=False
        )
        with pytest.raises(TrainingDiverged) as info:
            trainer.train_map(model, split(X, Y), config, trainer.PriorSpec(10.0))
        assert (info.value.epoch, info.value.batch) == (2, 0)
        assert "mean cross entropy 6400 " in str(info.value)
        assert "(started at 0)" in str(info.value)

    def test_overflowing_initial_state_reports_epoch_zero(self):
        # Nodes so large the very first contraction trips the magnitude cap:
        # that is still divergence (epoch 0), not a bare numeric error, so
        # sweep drivers can record the cell and move on.
        rng = RNG(52)
        X, Y = toy_binary_data(rng, 12)
        model = small_model(rng, 1)
        huge = model.copy()
        for node in huge.nodes:
            node *= 1e200
        with pytest.raises(TrainingDiverged) as exc_info:
            trainer.train_map(huge, split(X, Y), trainer.TrainConfig(epochs=1))
        assert exc_info.value.epoch == 0

    def test_overflow_in_gradient_pass_reports_batch(self):
        # The logits stay under the cap because node 0 is tiny, but the
        # environments, which leave node 0 out, do not: still divergence.
        rng = RNG(53)
        X, Y = toy_binary_data(rng, 12, n_sites=6)
        sh = mps.MpsShape(6, 2, 2, 1, label_site=3)
        nodes = [np.ones(sh.node_shape(i)) for i in range(6)]
        nodes[0] *= 1e-60
        nodes[4] *= 1e55
        nodes[5] *= 1e55
        model = mps.MpsModel(sh, nodes)
        assert np.all(np.isfinite(trainer.predict_logits(model, X)))
        with pytest.raises(TrainingDiverged) as exc_info:
            trainer.train_map(model, split(X, Y), trainer.TrainConfig(epochs=1))
        assert (exc_info.value.epoch, exc_info.value.batch) == (1, 0)


class TestHistorySerialization:
    def run_short(self):
        rng = RNG(60)
        X, Y = toy_binary_data(rng, 20)
        tx, ty = toy_binary_data(rng, 10)
        model = small_model(rng, 1)
        return trainer.train_map(
            model, split(X, Y, tx, ty), trainer.TrainConfig(epochs=3)
        )

    def test_csv_round_trip(self, tmp_path):
        _, history = self.run_short()
        path = tmp_path / "history.csv"
        history.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(trainer._HISTORY_FIELDS)
        assert rows[0][-2:] == ["seconds", "eval_seconds"]
        assert len(rows) == 1 + 3
        for rec in history.records:
            assert 0 <= rec.eval_seconds <= rec.seconds
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3]
        got = float(rows[1][1])
        assert got == pytest.approx(history.records[0].train_loss, rel=1e-15)

    def test_csv_string_matches_file(self, tmp_path):
        # a header line, then one line a record, each value as str() writes it
        _, history = self.run_short()
        path = tmp_path / "history.csv"
        history.to_csv(path)
        fields = trainer._HISTORY_FIELDS
        lines = [",".join(fields)] + [
            ",".join(str(getattr(rec, name)) for name in fields) for rec in history.records
        ]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_json_payload(self, tmp_path):
        _, history = self.run_short()
        path = tmp_path / "history.json"
        history.to_json(path)
        text = path.read_text()
        assert text.endswith("}\n")
        payload = json.loads(text)
        assert payload["best_epoch"] == history.best_epoch
        assert len(payload["records"]) == 3
        assert payload["records"][2]["epoch"] == 3
        assert payload["records"] == [
            {name: getattr(rec, name) for name in trainer._HISTORY_FIELDS}
            for rec in history.records
        ]


class TestPrediction:
    def test_proba_rows_sum_to_one(self):
        rng = RNG(70)
        X = rng.uniform(0, 1, size=(9, 4))
        for n_labels in (1, 4):
            model = small_model(rng, n_labels)
            p = trainer.predict_proba(model, X)
            assert p.shape == (9, max(n_labels, 2))
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p >= 0)

    def test_binary_proba_is_sigmoid_of_logit(self):
        rng = RNG(71)
        model = small_model(rng, 1)
        X = rng.uniform(0, 1, size=(5, 4))
        z = trainer.predict_logits(model, X)[:, 0]
        p = trainer.predict_proba(model, X)
        assert np.allclose(p[:, 1], 1.0 / (1.0 + np.exp(-z)), rtol=1e-12)

    def test_labels_are_argmax(self):
        rng = RNG(72)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(11, 4))
        assert np.array_equal(
            trainer.predict_labels(model, X),
            np.argmax(trainer.predict_proba(model, X), axis=1),
        )

    def test_chunked_logits_match_single_pass(self, monkeypatch):
        # 10 rows in chunks of 3 leave a one-row tail chunk
        for seed in range(50):
            rng = RNG(seed)
            model = small_model(rng, 2)
            X = rng.uniform(0, 1, size=(10, 4))
            whole = trainer.predict_logits(model, X)
            with monkeypatch.context() as m:
                m.setattr(mps, "CHUNK_ROWS", 3)
                chunked = trainer.predict_logits(model, X)
            assert np.array_equal(whole, chunked), seed

    def test_accuracy_counts_matches(self):
        rng = RNG(74)
        model = small_model(rng, 2)
        X = rng.uniform(0, 1, size=(8, 4))
        pred = trainer.predict_labels(model, X)
        Y = onehot(pred, 2)
        assert trainer.accuracy(model, X, Y) == 1.0
        flipped = onehot(1 - pred, 2)
        assert trainer.accuracy(model, X, flipped) == 0.0

    def test_accuracy_rejects_empty(self):
        rng = RNG(75)
        model = small_model(rng, 2)
        with pytest.raises(DataError):
            trainer.accuracy(model, np.zeros((0, 4)), np.zeros((0, 2)))

    def test_accuracy_checks_its_labels(self):
        rng = RNG(76)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(5, 4))
        # one label row would broadcast against all five predictions
        with pytest.raises(ShapeError, match="5 samples but 1 label rows"):
            trainer.accuracy(model, X, onehot([0], 3))
        # labels for four classes on a three-class model
        with pytest.raises(ShapeError, match=r"\(batch, 3\)"):
            trainer.accuracy(model, X, onehot([0, 1, 2, 3, 0], 4))
        # train_map rejects such held-out labels before its first epoch
        data = split(X, onehot([0, 1, 2, 0, 1], 3), X, onehot([0, 1, 2, 3, 0], 4))
        with pytest.raises(ShapeError, match=r"\(batch, 3\)"):
            trainer.train_map(model, data, trainer.TrainConfig(epochs=0))


class TestNumpyForms:
    """trainer's softmax, logsumexp and expit against scipy.special's."""

    @pytest.mark.parametrize("width", [1, 2, 3, 10])
    def test_softmax_and_logsumexp_are_scipys_bit_for_bit(self, width):
        rows = awkward_logits(RNG(80 + width), width)
        with np.errstate(invalid="ignore"):  # softmax of a row of -inf is nan in both
            assert np.array_equal(
                trainer.softmax(rows), scipy.special.softmax(rows, axis=1), equal_nan=True
            )
        assert np.array_equal(
            trainer.logsumexp(rows), scipy.special.logsumexp(rows, axis=1), equal_nan=True
        )

    def test_binary_columns_are_the_column_stack_bit_for_bit(self, monkeypatch):
        # the two callers, trainer.probabilities and the moderated binary
        # prediction, give the bits np.column_stack([1 - p1, p1]) gave
        z = awkward_logits(RNG(82), 1)
        p1 = trainer.expit(z[:, 0])
        want = np.column_stack([1.0 - p1, p1])
        got = trainer.binary_columns(p1)
        assert got.flags.c_contiguous and got.shape == (len(p1), 2)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(trainer.probabilities(z), want, equal_nan=True)
        calls = []
        monkeypatch.setattr(
            laplace, "binary_columns", lambda p: calls.append(p) or trainer.binary_columns(p)
        )
        model = random_model(RNG(83), mps.MpsShape(4, 2, 3, 1), scale=0.6)
        X = RNG(84).uniform(0, 1, size=(6, 4))
        post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
        got = laplace.predictive_batch(post, X)
        moderated = trainer.expit(got.kappa[:, 0] * got.mu_prime[:, 0])
        assert len(calls) == 1 and np.array_equal(calls[0], moderated)
        assert np.array_equal(got.probabilities, np.column_stack([1.0 - moderated, moderated]))

    def test_expit_is_scipys_arithmetic_within_4_ulps(self):
        # scipy evaluates 1 / (1 + e^-x) with the C library's exp, which
        # numpy's exp can miss by 1 ulp; rounding the sum and the quotient
        # can turn that into up to 4 ulps of the result. Logits reach
        # MAGNITUDE_CAP, so nothing may overflow.
        limit = np.log(np.finfo(np.float64).max)  # e^t overflows above it
        x = np.concatenate([
            np.linspace(-800.0, 800.0, 1_600_001),
            RNG(81).normal(scale=40.0, size=100_000),
            [0.0, -0.0, np.inf, -np.inf, mps.MAGNITUDE_CAP, -mps.MAGNITUDE_CAP],
            [-limit, np.nextafter(-limit, -np.inf)],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trainer.expit(x)
            assert np.isnan(trainer.expit(np.array([np.nan]))[0])
        want = scipy.special.expit(x)
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4
        # exactly scipy's result wherever numpy's exp is the C library's
        fits = -x <= limit
        same = np.zeros_like(fits)
        same[fits] = np.exp(-x[fits]) == [math.exp(v) for v in -x[fits]]
        assert same.mean() > 0.9
        assert np.array_equal(got[same], want[same])
        # and 0 where e^-x overflows, as there
        assert np.all(got[~fits] == 0.0) and np.all(want[~fits] == 0.0)
        assert list(trainer.expit(np.array([0.0, -0.0, np.inf, -np.inf]))) == [
            0.5, 0.5, 1.0, 0.0
        ]
