"""Tests for the low-rank posterior: curvature factors, solves, predictions."""

import json
import math
import struct
import threading
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.special import expit, logsumexp, softmax

from bmps import initializer, laplace, mps, trainer
from bmps.errors import DataError, NumericError, ParseError, ShapeError

from oracles import awkward_logits, fd_hessian_from_grad, random_model, transfer_chain
from peaks import traced_peak

RNG = np.random.default_rng


def small_model(rng, n_labels, n_sites=4, bond=3, boundary="cyclic", scale=0.6):
    shape = mps.MpsShape(n_sites, 2, bond, n_labels, boundary=boundary)
    return random_model(rng, shape, scale=scale)


def factors_for(model, U):
    return laplace.GgnFactors(
        factors=U,
        n_samples=U.shape[0],
        sample_ids=None,
        model_digest=laplace.model_digest(model),
    )


def empty_posterior(model, precision):
    P = model.shape.param_count
    return laplace.LaplacePosterior(model, factors_for(model, np.zeros((0, P))), precision)


class TestGgnFactors:
    def test_binary_half_probability_sample(self):
        # Zero label node -> logit 0 -> y = 1/2, so the curvature of that
        # sample is exactly g g^T / 4.
        rng = RNG(0)
        shape = mps.MpsShape(3, 2, 2, 1, boundary="cyclic")
        nodes = [rng.normal(size=shape.node_shape(i)) for i in range(3)]
        nodes[shape.label_site][:] = 0.0
        model = mps.MpsModel(shape, nodes)
        X = rng.uniform(0, 1, size=(1, 3))
        g = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(X)))[0, 0]
        fac = laplace.ggn_factors(model, X)
        H = fac.factors.T @ fac.factors
        assert np.allclose(H, 0.25 * np.outer(g, g), rtol=1e-12, atol=1e-14)

    def test_multiclass_matches_direct_curvature(self):
        rng = RNG(1)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(6, 4))
        fac = laplace.ggn_factors(model, X)
        H = fac.factors.T @ fac.factors
        jac = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(X)))  # (m, L, P)
        y = softmax(mps.forward_batch(model, mps.embed(X)), axis=1)
        want = np.zeros_like(H)
        for i in range(6):
            lam = np.diag(y[i]) - np.outer(y[i], y[i])
            want += jac[i].T @ lam @ jac[i]
        assert np.allclose(H, want, rtol=1e-10, atol=1e-12)

    def test_binary_matches_direct_curvature(self):
        rng = RNG(2)
        model = small_model(rng, 1)
        X = rng.uniform(0, 1, size=(5, 4))
        fac = laplace.ggn_factors(model, X)
        H = fac.factors.T @ fac.factors
        jac = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(X)))[:, 0, :]
        y = expit(mps.forward_batch(model, mps.embed(X))[:, 0])
        want = (jac * (y * (1 - y))[:, None]).T @ jac
        assert np.allclose(H, want, rtol=1e-10, atol=1e-12)

    def test_positive_semidefinite(self):
        rng = RNG(3)
        for n_labels in (1, 3):
            model = small_model(rng, n_labels)
            X = rng.uniform(0, 1, size=(8, 4))
            fac = laplace.ggn_factors(model, X)
            H = fac.factors.T @ fac.factors
            eigs = np.linalg.eigvalsh(H)
            assert eigs.min() >= -1e-8 * max(eigs.max(), 1e-30)

    def test_saturated_sample_contributes_nothing(self):
        # Scaling the label node up saturates the softmax; the factor rows
        # of a saturated sample have vanishing norm.
        rng = RNG(4)
        model = small_model(rng, 3)
        nodes = [n.copy() for n in model.nodes]
        nodes[model.shape.label_site] *= 3000.0
        saturated = mps.MpsModel(model.shape, nodes)
        X = rng.uniform(0, 1, size=(4, 4))
        y = softmax(mps.forward_batch(saturated, mps.embed(X)), axis=1)
        assert y.max(axis=1).min() > 1 - 1e-12  # every sample saturated
        fac = laplace.ggn_factors(saturated, X)
        norms = np.linalg.norm(fac.factors, axis=1)
        assert norms.max() < 1e-8

    def test_row_count_and_metadata(self):
        rng = RNG(5)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(7, 4))
        fac = laplace.ggn_factors(model, X)
        assert fac.rank == 7 * 3
        assert fac.n_params == model.shape.param_count
        assert fac.n_samples == 7
        assert fac.sample_ids is None
        assert fac.model_digest == laplace.model_digest(model)

    def test_rank_cap_subsamples_deterministically(self):
        rng = RNG(6)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(10, 4))
        fac = laplace.ggn_factors(model, X, rank_cap=12, seed=5)
        assert fac.rank == 4 * 3
        assert fac.n_samples == 4
        ids = fac.sample_ids
        assert ids is not None and len(ids) == 4
        assert np.all(np.diff(ids) > 0) and ids.min() >= 0 and ids.max() < 10
        again = laplace.ggn_factors(model, X, rank_cap=12, seed=5)
        assert np.array_equal(fac.factors, again.factors)
        direct = laplace.ggn_factors(model, X[ids])
        assert np.array_equal(fac.factors, direct.factors)

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_subsampled_rows_keep_their_curvature_unscaled(self, n_labels):
        # ROADMAP finding D: the kept rows are the full build's rows at
        # sample_ids, not rescaled by sqrt(n_samples / n_keep)
        rng = RNG(13)
        model = small_model(rng, n_labels)
        X = rng.uniform(0, 1, size=(12, 4))
        full = laplace.ggn_factors(model, X)
        sub = laplace.ggn_factors(model, X, rank_cap=5 * n_labels, seed=2)
        assert full.sample_ids is None and len(sub.sample_ids) == 5
        rows = full.factors.reshape(12, n_labels, -1)[sub.sample_ids]
        assert np.array_equal(sub.factors, rows.reshape(sub.rank, -1))

    def test_rank_cap_too_small_rejected(self):
        rng = RNG(7)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(4, 4))
        with pytest.raises(ValueError, match="rank_cap"):
            laplace.ggn_factors(model, X, rank_cap=2)

    def test_empty_batch_rejected(self):
        rng = RNG(8)
        model = small_model(rng, 1)
        with pytest.raises(DataError):
            laplace.ggn_factors(model, np.zeros((0, 4)))

    def test_chunking_is_invisible(self, monkeypatch):
        rng = RNG(9)
        model = small_model(rng, 2)
        X = rng.uniform(0, 1, size=(9, 4))
        whole = laplace.ggn_factors(model, X)
        monkeypatch.setattr(mps, "CHUNK_BYTES", 2 * mps.jacobian_row_bytes(model.shape))
        chunked = laplace.ggn_factors(model, X)
        # factor rows are computed row by row
        assert np.array_equal(whole.factors, chunked.factors)
        monkeypatch.undo()
        # and a run of columns at a time: runs of one or two sites give the
        # default runs' rows, bit for bit
        for n_labels in (1, 3):
            model = small_model(rng, n_labels)
            whole = laplace.ggn_factors(model, X)
            for sites in (1, 2):
                TestStreamedVariance.narrow(monkeypatch, model, 9, sites)
                assert np.array_equal(laplace.ggn_factors(model, X).factors, whole.factors)

    @pytest.mark.parametrize("label_site", [0, 4])
    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_rows_match_centre_then_scale(self, boundary, n_labels, label_site):
        # the coefficients sqrt(y_c) (delta_cl - y_l), applied to the
        # environments, give the centred and scaled Jacobian rows
        rng = RNG(11)
        shape = mps.MpsShape(5, 2, 3, n_labels, label_site=label_site, boundary=boundary)
        model = random_model(rng, shape, scale=0.6)
        X = rng.uniform(0, 1, size=(6, 5))
        phi = mps.embed(X)
        J = mps.jacobian_from_env(mps.sweep_env(model, phi))
        logits = mps.forward_batch(model, phi)
        if n_labels == 1:
            y = expit(logits)
            want = J * np.sqrt(y * (1 - y))[:, :, None]
        else:
            y = softmax(logits, axis=1)
            want = (J - np.einsum("bl,blp->bp", y, J)[:, None]) * np.sqrt(y)[:, :, None]
        got = laplace.ggn_factors(model, X).factors.reshape(want.shape)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_a_digit_chunk_writes_straight_into_its_rows(self, monkeypatch):
        # a 63-row digit-scale chunk (196 sites, bond 8, 10 classes), the
        # budget's largest, writes its rows into U itself: a run buffer of
        # mps._JACOBIAN_BLOCK_BYTES (25.2 MB) would not fit under the bound
        # beside the one-site sweep. Two workers take 400 rows as chunks of 50.
        shape = mps.MpsShape(196, 2, 8, 10)
        model = initializer.init_model(shape, initializer.InitSpec(var_x=0.461, seed=3))
        rng = RNG(12)
        X = np.where(rng.uniform(size=(63, 196)) < 0.7, 0.0, rng.uniform(size=(63, 196)))
        monkeypatch.setattr(mps, "_usable_cores", lambda: 2)
        assert mps.CHUNK_BYTES // mps.jacobian_row_bytes(shape) == 63
        assert mps.chunk_plan(400, mps.jacobian_row_bytes(shape))[0] == 50
        out = np.full((63, 10, shape.param_count), np.nan)
        peak, _ = traced_peak(lambda: laplace._ggn_rows(model, X, out))
        assert peak < 24e6 < mps._JACOBIAN_BLOCK_BYTES
        assert not np.isnan(out).any()

    def test_non_finite_factors_rejected(self):
        rng = RNG(10)
        model = small_model(rng, 1)
        for bad in (np.nan, np.inf, -np.inf):
            U = rng.normal(size=(2, model.shape.param_count))
            U[1, 3] = bad
            with pytest.raises(NumericError, match="non-finite"):
                factors_for(model, U)


class TestGgnNearTrainedMap:
    def test_matches_finite_difference_hessian(self):
        # Imbalanced node norms (large plain nodes, small label node) make
        # the dropped second-derivative term negligible relative to the
        # outer-product curvature once the fit saturates; plain gradient
        # descent preserves the imbalance while fitting.
        rng = RNG(11)
        n, L, m = 3, 3, 5
        shape = mps.MpsShape(n, 2, 2, L, boundary="cyclic")
        nodes = []
        for i in range(n):
            scale = 1.0 if i == shape.label_site else 25.0
            nodes.append(rng.normal(0, scale, size=shape.node_shape(i)))
        model = mps.MpsModel(shape, nodes)
        X = rng.uniform(0, 1, size=(m, n))
        Y = np.zeros((m, L))
        Y[np.arange(m), [0, 1, 2, 0, 1]] = 1.0
        nodes[shape.label_site] /= np.std(mps.forward_batch(model, mps.embed(X)))
        model = mps.MpsModel(shape, nodes)

        data = SimpleNamespace(
            train_x=X, train_y=Y, test_x=np.zeros((0, n)), test_y=np.zeros((0, L))
        )
        config = trainer.TrainConfig(
            epochs=4000, batch_size=m, learning_rate=5e-6, optimizer="sgd",
            shuffle=False,
        )
        fit, _ = trainer.train_map(model, data, config)
        assert trainer.loss(fit, X, Y) / m < 2e-2

        def grad_nll(vec):
            grads = trainer.grad_loss(mps.model_from_params(shape, vec), X, Y)
            return np.concatenate([g.ravel() for g in grads])

        H_fd = fd_hessian_from_grad(grad_nll, fit.params.copy())
        U = laplace.ggn_factors(fit, X).factors
        H_ggn = U.T @ U
        rel = np.linalg.norm(H_fd - H_ggn) / np.linalg.norm(H_fd)
        assert rel < 1e-3


class TestPosteriorSolve:
    def test_matches_dense_inverse(self):
        rng = RNG(20)
        for trial in range(6):
            model = small_model(rng, int(rng.integers(1, 4)))
            P = model.shape.param_count
            R = int(rng.integers(1, 9))
            U = rng.normal(size=(R, P))
            lam = float(rng.uniform(0.1, 3.0))
            post = laplace.LaplacePosterior(model, factors_for(model, U), lam)
            v = rng.normal(size=P)
            dense = np.linalg.solve(U.T @ U + lam * np.eye(P), v)
            assert np.allclose(post.solve(v), dense, rtol=1e-8, atol=1e-12)

    def test_core_is_factored_without_a_copy(self):
        rng = RNG(23)
        model = small_model(rng, 2)
        R = 300
        fac = factors_for(model, rng.normal(size=(R, model.shape.param_count)))
        peak, _ = traced_peak(lambda: laplace.LaplacePosterior(model, fac, 0.5))
        # the R x R core plus the finiteness mask cho_factor takes of it
        assert peak < 1.5 * R * R * 8

    def test_rank_zero_is_exact_scaling(self):
        rng = RNG(21)
        model = small_model(rng, 1)
        post = empty_posterior(model, 0.7)
        v = rng.normal(size=model.shape.param_count)
        assert np.array_equal(post.solve(v), v / 0.7)

    def test_inverse_consistency(self):
        rng = RNG(22)
        model = small_model(rng, 2)
        P = model.shape.param_count
        U = rng.normal(size=(6, P))
        lam = 0.45
        post = laplace.LaplacePosterior(model, factors_for(model, U), lam)
        v = U.T @ np.eye(6)[2] * 3.0
        back = (U.T @ U + lam * np.eye(P)) @ post.solve(v)
        assert np.allclose(back, v, rtol=1e-10, atol=1e-12)

    def test_solve_many_matches_stacked_solves(self):
        rng = RNG(23)
        model = small_model(rng, 1)
        P = model.shape.param_count
        U = rng.normal(size=(5, P))
        post = laplace.LaplacePosterior(model, factors_for(model, U), 1.2)
        V = rng.normal(size=(4, P))
        many = post.solve_many(V)
        for k in range(4):
            assert np.allclose(many[k], post.solve(V[k]), rtol=1e-13, atol=1e-15)

    def test_log_det_precision_matches_dense(self):
        rng = RNG(24)
        for n_labels in (1, 3):
            model = small_model(rng, n_labels)
            P = model.shape.param_count
            U = rng.normal(size=(7, P))
            lam = 0.3
            post = laplace.LaplacePosterior(model, factors_for(model, U), lam)
            sign, want = np.linalg.slogdet(U.T @ U + lam * np.eye(P))
            assert sign == 1.0
            assert post.log_det_precision == pytest.approx(want, rel=1e-12)
            rank_zero = empty_posterior(model, lam).log_det_precision
            assert rank_zero == pytest.approx(P * math.log(lam), rel=1e-14)

    def test_validation(self):
        rng = RNG(25)
        model = small_model(rng, 1)
        P = model.shape.param_count
        fac = factors_for(model, np.zeros((0, P)))
        with pytest.raises(ValueError):
            laplace.LaplacePosterior(model, fac, 0.0)
        with pytest.raises(ValueError):
            laplace.LaplacePosterior(model, fac, float("nan"))
        other = small_model(RNG(99), 1)
        with pytest.raises(ValueError, match="different model"):
            laplace.LaplacePosterior(other, fac, 1.0)
        wide = small_model(rng, 1, n_sites=5)
        fac_wide = factors_for(wide, np.zeros((0, wide.shape.param_count)))
        with pytest.raises(ShapeError):
            laplace.LaplacePosterior(model, fac_wide, 1.0)
        post = empty_posterior(model, 1.0)
        with pytest.raises(ShapeError):
            post.solve(np.zeros(P + 1))


class TestKappa:
    def test_zero_variance_is_exactly_one(self):
        assert laplace.kappa(0.0) == 1.0

    def test_closed_form_point(self):
        assert laplace.kappa(8.0 / math.pi) == pytest.approx(
            0.7071067811865476, rel=1e-15
        )

    def test_monotone_decreasing_to_zero(self):
        grid = np.linspace(0.0, 50.0, 200)
        vals = laplace.kappa(grid)
        assert np.all(np.diff(vals) < 0)
        assert laplace.kappa(1e12) < 1e-5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            laplace.kappa(-1e-9)
        with pytest.raises(ValueError):
            laplace.kappa(np.array([0.1, -0.2]))

    def test_array_shape_preserved(self):
        out = laplace.kappa(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        assert np.all(out == 1.0)


class TestPredictive:
    @pytest.mark.parametrize("width", [1, 2, 3, 10])
    def test_logit_gaps_are_the_scipy_logsumexp_gaps(self, width):
        logits = awkward_logits(RNG(29 + width), width)
        want = logits.copy()
        with np.errstate(invalid="ignore"):  # -inf less -inf, in both
            for j in range(width if width > 1 else 0):
                others = np.delete(logits, j, axis=1)
                want[:, j] = logits[:, j] - logsumexp(others, axis=1)
            got = laplace._logit_gaps(logits)
        assert np.array_equal(got, want, equal_nan=True)

    def test_high_precision_rank_zero_recovers_softmax(self):
        rng = RNG(30)
        model = small_model(rng, 4)
        post = empty_posterior(model, 1e15)
        x = rng.uniform(0, 1, size=4)
        res = laplace.predictive(post, x)
        want = softmax(mps.forward_batch(model, mps.embed(x[None]))[0])
        assert np.allclose(res.probabilities, want, atol=1e-9)

    def test_high_precision_rank_zero_recovers_sigmoid(self):
        rng = RNG(31)
        model = small_model(rng, 1)
        post = empty_posterior(model, 1e15)
        x = rng.uniform(0, 1, size=4)
        res = laplace.predictive(post, x)
        z = mps.forward_batch(model, mps.embed(x[None]))[0, 0]
        assert res.probabilities == pytest.approx([1 - expit(z), expit(z)], abs=1e-9)

    def test_rank_zero_variance_is_the_scaled_jacobian_norm(self):
        # Rank 0 runs the Woodbury path with an empty core, which takes
        # exactly nothing off |j|^2. With the label site last, one run holds
        # every Jacobian column, so both sides sum in the same order.
        rng = RNG(33)
        shape = mps.MpsShape(4, 2, 2, 3, label_site=3)
        model = mps.MpsModel(shape, [rng.normal(size=shape.node_shape(i)) for i in range(4)])
        X = rng.uniform(0, 1, size=(5, 4))
        post = empty_posterior(model, 0.7)
        J = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(X))).reshape(15, -1)
        want = (np.einsum("kp,kp->k", J, J) / 0.7).reshape(5, 3)
        assert np.array_equal(laplace.predictive_batch(post, X).sigma2, want)

    def test_binary_closed_form_variance_point(self):
        # Choose the precision so the posterior variance of the logit is
        # exactly 8/pi, where the moderation factor is 1/sqrt(2).
        rng = RNG(32)
        model = small_model(rng, 1)
        x = rng.uniform(0, 1, size=4)
        g = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(x[None])))[0, 0]
        lam = float(g @ g) / (8.0 / math.pi)
        post = empty_posterior(model, lam)
        res = laplace.predictive(post, x)
        assert res.sigma2[0] == pytest.approx(8.0 / math.pi, rel=1e-12)
        assert res.kappa[0] == pytest.approx(math.sqrt(0.5), rel=1e-12)
        z = mps.forward_batch(model, mps.embed(x[None]))[0, 0]
        assert res.probabilities[1] == pytest.approx(
            float(expit(math.sqrt(0.5) * z)), rel=1e-12
        )

    def test_moderation_shrinks_binary_confidence(self):
        rng = RNG(33)
        model = small_model(rng, 1)
        X = rng.uniform(0, 1, size=(30, 4))
        fac = laplace.ggn_factors(model, X)
        post = laplace.LaplacePosterior(model, fac, 0.01)
        res = laplace.predictive_batch(post, X)
        z = mps.forward_batch(model, mps.embed(X))[:, 0]
        p_map = expit(z)
        p_mod = res.probabilities[:, 1]
        confident = p_map > 0.5
        assert np.all(p_mod[confident] <= p_map[confident] + 1e-12)
        assert np.all(p_mod[confident] >= 0.5 - 1e-12)
        assert np.all((p_mod > 0.5) == (z > 0))

    def test_binary_never_flips_argmax(self):
        rng = RNG(34)
        flips = 0
        for trial in range(20):
            model = small_model(rng, 1, n_sites=3, bond=2)
            X = rng.uniform(0, 1, size=(10, 3))
            fac = laplace.ggn_factors(model, X)
            post = laplace.LaplacePosterior(model, fac, float(rng.uniform(0.01, 10)))
            res = laplace.predictive_batch(post, X)
            z = mps.forward_batch(model, mps.embed(X))[:, 0]
            map_label = (z > 0).astype(int)
            mod_label = np.argmax(res.probabilities, axis=1)
            flips += int(np.sum(map_label != mod_label))
        assert flips == 0

    def test_probabilities_are_distributions(self):
        rng = RNG(35)
        for n_labels in (1, 3, 5):
            model = small_model(rng, n_labels)
            X = rng.uniform(0, 1, size=(12, 4))
            fac = laplace.ggn_factors(model, X)
            post = laplace.LaplacePosterior(model, fac, 0.5)
            res = laplace.predictive_batch(post, X)
            p = res.probabilities
            assert p.shape == (12, max(n_labels, 2))
            assert np.all(p >= 0) and np.all(p <= 1)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(res.sigma2 >= 0)

    def test_logits_are_the_map_logits(self, monkeypatch):
        # ``bmps predict`` takes its MAP labels from these logits
        rng = RNG(37)
        for n_labels in (1, 3):
            model = small_model(rng, n_labels)
            row_bytes = mps.jacobian_row_bytes(model.shape)
            monkeypatch.setattr(mps, "CHUNK_BYTES", 3 * row_bytes)
            X = rng.uniform(0, 1, size=(10, 4))
            post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
            logits = laplace.predictive_batch(post, X).logits
            assert np.array_equal(logits, mps.forward_batch(model, mps.embed(X)))

    def test_single_matches_batch(self):
        rng = RNG(36)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(4, 4))
        fac = laplace.ggn_factors(model, X)
        post = laplace.LaplacePosterior(model, fac, 0.3)
        batch = laplace.predictive_batch(post, X)
        one = laplace.predictive(post, X[2])
        # batch size changes the BLAS kernels; agreement is to round-off
        assert np.allclose(one.probabilities, batch.probabilities[2], rtol=1e-12)
        assert np.allclose(one.sigma2, batch.sigma2[2], rtol=1e-10, atol=1e-14)
        assert np.allclose(one.logits, batch.logits[2], rtol=1e-12)

    def test_gap_definition_multiclass(self):
        rng = RNG(37)
        model = small_model(rng, 3)
        x = rng.uniform(0, 1, size=4)
        post = empty_posterior(model, 1.0)
        res = laplace.predictive(post, x)
        z = res.logits
        for j in range(3):
            others = np.exp(np.delete(z, j))
            assert res.mu_prime[j] == pytest.approx(
                z[j] - math.log(others.sum()), rel=1e-12
            )

    def test_input_validation(self):
        rng = RNG(38)
        model = small_model(rng, 1)
        post = empty_posterior(model, 1.0)
        with pytest.raises(ShapeError):
            laplace.predictive(post, np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            laplace.predictive(post, np.zeros(5))

    def test_empty_batch_rejected(self):
        rng = RNG(39)
        model = small_model(rng, 3)
        post = empty_posterior(model, 1.0)
        with pytest.raises(DataError, match="nonempty"):
            laplace.predictive_batch(post, np.zeros((0, 4)))


class TestVarianceAgainstDenseReference:
    """sigma2 against the SVD form of M^{-1} = (U'U + lam*I)^{-1}.

    With U = W diag(s) B', the variance of a logit with Jacobian row j is
    sum_i (b_i'j)^2 / (s_i^2 + lam) + |j - BB'j|^2 / lam. When j lies in
    U's row space the Woodbury form subtracts two nearly equal terms of
    size |j|^2/lam, so agreement is required on that scale.
    """

    @staticmethod
    def reference(U, J, lam):
        _, s, Bt = np.linalg.svd(U, full_matrices=False)
        proj = J @ Bt.T  # (k, r) coordinates along the right singular vectors
        rest = J - proj @ Bt
        return (proj**2 / (s**2 + lam)).sum(axis=1) + (rest**2).sum(axis=1) / lam

    @pytest.mark.parametrize("n_labels", [1, 3])
    @pytest.mark.parametrize("lam", [1e-6, 1e-2, 1.0])
    def test_matches_svd_reference(self, n_labels, lam):
        rng = RNG(50 + n_labels)
        for trial in range(8):
            boundary = ("cyclic", "open")[trial % 2]
            model = small_model(rng, n_labels, boundary=boundary)
            X = rng.uniform(0, 1, size=(5, 4))
            J = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(X))).reshape(
                -1, model.shape.param_count
            )
            if trial < 4:  # every Jacobian row in U's row space
                U = rng.normal(size=(J.shape[0] + 3, J.shape[0])) @ J
            else:
                U = rng.normal(size=(int(rng.integers(1, 12)), J.shape[1]))
            post = laplace.LaplacePosterior(model, factors_for(model, U), lam)
            sigma2 = laplace.predictive_batch(post, X).sigma2.ravel()
            scale = (J**2).sum(axis=1) / lam
            assert np.all(sigma2 >= 0)
            err = np.abs(sigma2 - self.reference(U, J, lam))
            assert np.all(err <= 1e-12 * scale)


class TestStreamedVariance:
    """The variance takes the Jacobian in runs of contiguous sites
    (``mps.jacobian_blocks``); narrowed to one or two sites, the runs break
    at the ring's wrap, at the label site and inside the ring. The chains
    are those of :class:`TestVarianceAgainstDenseReference`, labelled at
    site 0, 2 (the default) or 3.
    """

    @staticmethod
    def narrow(monkeypatch, model, rows, sites):
        """Runs of at most ``sites`` bond-by-bond sites in ``rows``-row chunks."""
        sh = model.shape
        cols = sh.phys_dim * sh.bond_dim**2
        monkeypatch.setattr(mps, "_JACOBIAN_BLOCK_BYTES", rows * sh.n_labels * 8 * sites * cols)

    @staticmethod
    def chain(rng, n_labels, boundary="cyclic", label_site=2):
        shape = mps.MpsShape(4, 2, 3, n_labels, label_site=label_site, boundary=boundary)
        return random_model(rng, shape, scale=0.6)

    @pytest.mark.parametrize("sites", [1, 2])
    @pytest.mark.parametrize("label_site", [0, 2, 3])
    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_matches_svd_reference(self, monkeypatch, n_labels, boundary, label_site, sites):
        rng = RNG(70 + label_site)
        model = self.chain(rng, n_labels, boundary, label_site)
        X = rng.uniform(0, 1, size=(5, 4))
        J = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(X))).reshape(
            -1, model.shape.param_count
        )
        self.narrow(monkeypatch, model, 5, sites)
        scale = (J**2).sum(axis=1)
        for U in (rng.normal(size=(J.shape[0] + 3, J.shape[0])) @ J,
                  rng.normal(size=(9, J.shape[1]))):
            for lam in (1e-6, 1e-2, 1.0):
                post = laplace.LaplacePosterior(model, factors_for(model, U), lam)
                sigma2 = laplace.predictive_batch(post, X).sigma2.ravel()
                want = TestVarianceAgainstDenseReference.reference(U, J, lam)
                assert np.all(np.abs(sigma2 - want) <= 1e-12 * scale / lam)

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_matches_the_whole_jacobian_product(self, monkeypatch, n_labels):
        # logits and gaps come from the sweep, bit for bit; sigma2 from the
        # one product U @ J' over the whole Jacobian, to round-off
        rng = RNG(80 + n_labels)
        model = self.chain(rng, n_labels)
        X = rng.uniform(0, 1, size=(6, 4))
        post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
        env = mps.sweep_env(model, mps.embed(X))
        J = mps.jacobian_from_env(env).reshape(-1, model.shape.param_count)
        Z = scipy.linalg.solve_triangular(post._core, post.factors.factors @ J.T, trans=1)
        want = ((J**2).sum(axis=1) - (Z**2).sum(axis=0)) / 0.5
        self.narrow(monkeypatch, model, 6, 1)
        got = laplace.predictive_batch(post, X)
        assert np.array_equal(got.logits, env.logits)
        assert np.array_equal(got.mu_prime, laplace._logit_gaps(env.logits))
        assert np.allclose(got.sigma2.ravel(), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_bit_identical_for_every_worker_count(self, monkeypatch, n_labels):
        rng = RNG(82 + n_labels)
        model = self.chain(rng, n_labels, "open")
        X = rng.uniform(0, 1, size=(10, 4))
        post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
        self.narrow(monkeypatch, model, 3, 2)
        results = []
        for workers in (1, 2, 3):
            TestChunkedPasses.plan(monkeypatch, model, 3, workers)
            results.append(laplace.predictive_batch(post, X))
        for got in results[1:]:
            for f in fields(laplace.PredictiveBatch):
                assert np.array_equal(getattr(got, f.name), getattr(results[0], f.name))

    @staticmethod
    def overflow_chain():
        """Ring 5 6 7 8 0 1 2 3 of a 9-site chain labelled at site 4: on rows
        of 1s its running products from the label site reach 1e80 at site
        7 (sites 6 and 7 scale by 1e40 each), while the sweep's products
        and every environment stay within 1e40. Its logit is 2."""
        mats = [np.eye(2)] * 9
        for i, c in {6: 1e40, 7: 1e40, 1: 1e-40, 2: 1e-40}.items():
            mats[i] = np.diag([c, 1.0])
        return transfer_chain(mats, label_site=4), np.ones((3, 9))

    def test_overflow_names_the_site_of_the_whole_jacobian(self, monkeypatch):
        # With one position an environment block and one site a run, the
        # runs of sites 5, 6 and 7 reach A before site 8's environment block
        # fails its scan.
        model, X = self.overflow_chain()
        U = RNG(84).normal(size=(4, model.shape.param_count))
        post = laplace.LaplacePosterior(model, factors_for(model, U), 1.0)
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        monkeypatch.setattr(mps, "_BLOCK_BYTES", 1)
        self.narrow(monkeypatch, model, 3, 1)
        with pytest.raises(NumericError) as whole:
            mps.jacobian_from_env(mps.sweep_env(model, mps.embed(X)))
        seen = []
        blocks = mps.jacobian_blocks
        monkeypatch.setattr(
            mps,
            "jacobian_blocks",
            lambda *args, **kw: (seen.append(b[:2]) or b for b in blocks(*args, **kw)),
        )
        with pytest.raises(NumericError) as streamed:
            laplace.predictive_batch(post, X)
        # the factor build takes the same runs
        with pytest.raises(NumericError) as factors:
            laplace.ggn_factors(model, X)
        assert str(whole.value).endswith("at site 7")
        assert str(streamed.value) == str(whole.value)
        # the factor build's running products carry its coefficient
        # sqrt(y (1 - y)) from the label site on, and their check reports it
        y = expit(mps.forward_batch(model, mps.embed(X))[0, 0])
        folded = 1e80 * np.sqrt(y * (1.0 - y))
        assert str(factors.value) == (
            f"contraction magnitude {folded:.3e} exceeded cap 1.000e+50 at site 7"
        )
        assert seen == [(40, 48), (48, 56), (56, 64)] * 2  # 8 columns a site

    def test_a_coefficient_folds_a_class_wide_overflow_below_the_cap(self, monkeypatch):
        # At a cap of 5e79 the class-wide running product of site 7 (1e80)
        # fails, but the factor build's, scaled by sqrt(y (1 - y)) = 0.32,
        # does not: each pass checks the products it forms.
        model, X = self.overflow_chain()
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        J = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(X)))
        y = expit(mps.forward_batch(model, mps.embed(X)))
        want = (J * np.sqrt(y * (1.0 - y))[:, :, None]).reshape(len(X), -1)
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 5e79)
        got = laplace.ggn_factors(model, X).factors
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        U = RNG(88).normal(size=(4, model.shape.param_count))
        post = laplace.LaplacePosterior(model, factors_for(model, U), 1.0)
        with pytest.raises(NumericError, match="exceeded cap .* at site 7$"):
            laplace.predictive_batch(post, X)

    def test_overflow_of_the_class_stack_names_the_label_site(self):
        # A 5-site chain labelled at site 2, its label node at 1e120 and its
        # ring at 1e-40: on rows of 1s the logits and every environment stay
        # within the cap, but the class stack the Jacobian forms does not.
        mats = [np.eye(2) * 1e-40] * 5
        mats[2] = np.eye(2) * 1e120
        model = transfer_chain(mats, label_site=2)
        X = np.ones((3, 5))
        phi = mps.embed(X)
        assert np.all(np.abs(mps.forward_batch(model, phi)) < 1)
        U = RNG(87).normal(size=(4, model.shape.param_count))
        post = laplace.LaplacePosterior(model, factors_for(model, U), 1.0)
        runs = [
            lambda: laplace.ggn_factors(model, X),
            lambda: laplace.predictive_batch(post, X),
            lambda: mps.jacobian_from_env(mps.sweep_env(model, phi)),
            lambda: mps.weighted_grad_from_env(mps.sweep_env(model, phi), np.ones((3, 1))),
        ]
        for run in runs:
            with pytest.raises(NumericError, match="exceeded cap .* at site 2$"):
                run()

    def test_a_chunk_never_holds_its_whole_jacobian(self, monkeypatch):
        # 40 sites, bond 6, 10 classes: a 100-row chunk's Jacobian is 28 MB,
        # one chunk under the default budgets. The block budget takes the
        # share of it that it takes of a chunk filling mps.CHUNK_BYTES.
        rng = RNG(85)
        shape = mps.MpsShape(40, 2, 6, 10)
        model = random_model(rng, shape, scale=0.3)
        X = rng.uniform(0, 1, size=(100, 40))
        P = shape.param_count
        post = laplace.LaplacePosterior(model, factors_for(model, rng.normal(size=(20, P))), 1.0)
        assert mps.chunk_plan(100, mps.jacobian_row_bytes(shape))[0] > 100
        jac_bytes = 100 * 10 * P * 8
        share = jac_bytes * mps._JACOBIAN_BLOCK_BYTES // mps.CHUNK_BYTES
        monkeypatch.setattr(mps, "_JACOBIAN_BLOCK_BYTES", share)
        peak, _ = traced_peak(lambda: laplace.predictive_batch(post, X))
        assert peak < jac_bytes / 2

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_a_chunk_sweeps_once_for_logits_and_once_for_its_jacobian(
        self, monkeypatch, n_labels
    ):
        # a 7-site chain: its ring of 6 makes two groups of mps._GROUP; one
        # chunk of 5 rows runs the streamed grouped forward, then one
        # stacked sweep in one-site groups, and no grouped stacked sweep
        rng = RNG(86)
        model = random_model(rng, mps.MpsShape(7, 2, 3, n_labels, label_site=2), scale=0.6)
        X = rng.uniform(0, 1, size=(5, 7))
        post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
        calls = []
        sweep = mps._sweep

        def traced(model, phi, keep, reuse=None, group=None):
            calls.append((len(phi), keep, group))
            return sweep(model, phi, keep, reuse, group)

        monkeypatch.setattr(mps, "_sweep", traced)
        for run in (laplace.ggn_factors, lambda m, x: laplace.predictive_batch(post, x)):
            calls.clear()
            run(model, X)
            assert calls == [(5, False, None), (5, True, 1)]


class TestChunkedPasses:
    """The Jacobian passes under the chunk budget and the worker pool."""

    @staticmethod
    def plan(monkeypatch, model, rows, workers):
        """Chunks of ``rows`` rows mapped over ``workers`` threads."""
        row_bytes = mps.jacobian_row_bytes(model.shape)
        monkeypatch.setattr(mps, "CHUNK_BYTES", rows * row_bytes)
        monkeypatch.setattr(mps, "_usable_cores", lambda: workers)

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_bit_identical_for_every_split_and_worker_count(self, monkeypatch, n_labels):
        rng = RNG(60 + n_labels)
        model = small_model(rng, n_labels, boundary=("open", "cyclic")[n_labels % 2])
        X = rng.uniform(0, 1, size=(10, 4))
        fac = laplace.ggn_factors(model, X)
        post = laplace.LaplacePosterior(model, fac, 0.5)
        whole = laplace.predictive_batch(post, X)
        for rows in (1, 2, 3):
            serial = None
            for workers in (1, 2, 3):
                self.plan(monkeypatch, model, rows, workers)
                plan = mps.chunk_plan(10, mps.jacobian_row_bytes(model.shape))
                assert plan == (rows, workers)
                assert np.array_equal(laplace.ggn_factors(model, X).factors, fac.factors)
                got = laplace.predictive_batch(post, X)
                if serial is None:
                    serial = got
                # rows are contracted one by one
                assert np.array_equal(got.logits, whole.logits)
                assert np.array_equal(got.mu_prime, whole.mu_prime)
                # the variance's U @ J' GEMM picks its BLAS kernels by the
                # chunk's column count: any thread count gives the same
                # bits, any split the same values to round-off
                for f in fields(laplace.PredictiveBatch):
                    assert np.array_equal(getattr(got, f.name), getattr(serial, f.name))
                assert np.allclose(got.sigma2, whole.sigma2, rtol=1e-12, atol=1e-14)

    def test_overflow_in_one_chunk_raises_the_serial_error(self, monkeypatch):
        # phi(1) = [1, 0] picks the huge slice of every node, phi(0) the small
        # one: rows of 1s (the third of four 2-row chunks) overflow at site 5,
        # rows with 1s from site 16 on (the fourth chunk, in the second case)
        # only later in the sweep, at site 18
        shape = mps.MpsShape(30, 2, 2, 3, boundary="cyclic")
        nodes = []
        for i in range(30):
            node = np.full(shape.node_shape(i), 0.1)
            node[:, 0] = 1.0e4
            nodes.append(node)
        model = mps.MpsModel(shape, nodes)
        post = empty_posterior(model, 1.0)
        for fourth in (0.0, 1.0):
            X = np.zeros((8, 30))
            X[4:6] = 1.0
            X[6:8, 16:] = fourth
            calls = [
                lambda: laplace.ggn_factors(model, X),
                lambda: laplace.predictive_batch(post, X),
            ]
            for call in calls:
                monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e40)
                with pytest.raises(NumericError) as serial:
                    call()
                self.plan(monkeypatch, model, 2, 3)
                with pytest.raises(NumericError) as pooled:
                    call()
                monkeypatch.undo()
                assert str(serial.value).endswith("at site 5")
                assert str(pooled.value) == str(serial.value)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        rng = RNG(64)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(9, 4))
        before = threading.active_count()
        self.plan(monkeypatch, model, 2, 3)
        post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
        laplace.predictive_batch(post, X)
        with pytest.raises(DataError):  # a failing chunk stops the pool too
            laplace.predictive_batch(post, np.c_[X[:, :3], X[:, :1] + 2.0])
        assert threading.active_count() == before

    def test_concurrent_pooled_calls_run_one_blas_thread_and_restore_it(
        self, monkeypatch, blas_at_3
    ):
        # two callers' pools of two workers each: a barrier of four holds
        # every chunk until all four are in flight, so both guards overlap
        rng = RNG(65)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(4, 4))
        post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
        serial = laplace.predictive_batch(post, X)
        self.plan(monkeypatch, model, 1, 2)
        barrier, seen = threading.Barrier(4, timeout=30), []
        moderate = laplace._moderate

        def traced(post, xb):
            barrier.wait()
            seen.append(mps._blas_counts())
            return moderate(post, xb)

        monkeypatch.setattr(laplace, "_moderate", traced)
        results = [None, None]

        def call(i):
            results[i] = laplace.predictive_batch(post, X)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
        assert seen == [{path: 1 for path in blas_at_3}] * 8
        assert mps._blas_counts() == blas_at_3
        for got in results:
            for f in fields(laplace.PredictiveBatch):
                assert np.array_equal(getattr(got, f.name), getattr(serial, f.name))

    def test_no_blas_found_leaves_the_results(self, monkeypatch):
        rng = RNG(66)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(9, 4))
        self.plan(monkeypatch, model, 2, 2)
        runs = []
        for found in (mps._openblas, dict):
            monkeypatch.setattr(mps, "_openblas", found)
            fac = laplace.ggn_factors(model, X)
            post = laplace.LaplacePosterior(model, fac, 0.5)
            runs.append((fac.factors, laplace.predictive_batch(post, X)))
        (u0, p0), (u1, p1) = runs
        assert np.array_equal(u0, u1)
        for f in fields(laplace.PredictiveBatch):
            assert np.array_equal(getattr(p0, f.name), getattr(p1, f.name))

    def test_every_scipy_call_runs_one_blas_thread(self, monkeypatch, blas_at_3):
        # scipy ships its own OpenBLAS, whose idle worker spins after a
        # threaded call and takes a core from numpy's next product
        rng = RNG(67)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(9, 4))
        seen = []

        def traced(module, name):
            call = getattr(module, name)

            def counted(*args, **kwargs):
                seen.append((name, mps._blas_counts()))
                return call(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("cho_factor", "cho_solve", "solve_triangular"):
            traced(scipy.linalg, name)
        traced(scipy.linalg.blas, "dtrmv")
        post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
        post = laplace.posterior_from_bytes(laplace.posterior_to_bytes(post))
        assert mps.chunk_plan(len(X), mps.jacobian_row_bytes(model.shape))[1] == 1
        laplace.predictive_batch(post, X)
        post.solve_many(rng.normal(size=(2, model.shape.param_count)))
        names = ["cho_factor", "dtrmv", "dtrmv", "solve_triangular", "cho_solve"]
        assert [name for name, _ in seen] == names
        assert all(counts == {path: 1 for path in blas_at_3} for _, counts in seen)
        assert mps._blas_counts() == blas_at_3

    def test_the_core_factor_does_not_depend_on_the_thread_count(self, blas_at_3):
        # 240 factor rows: at this OpenBLAS numpy's U U' (a syrk, which keeps
        # the library's count) is bit-identical across thread counts only
        # where the rank is a multiple of 8
        rng = RNG(70)
        model = small_model(rng, 3, n_sites=6, bond=4)
        X = rng.uniform(0, 1, size=(80, 6))

        def fit():
            post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
            return post, laplace.predictive_batch(post, X)

        threaded, pb = fit()
        with mps._one_blas_thread:
            serial, pb1 = fit()
        assert threaded.factors.rank == 240
        assert np.array_equal(threaded._core, serial._core)
        assert np.array_equal(pb.sigma2, pb1.sigma2)
        assert np.array_equal(pb.probabilities, pb1.probabilities)

    def test_a_core_that_is_not_positive_definite_raises_and_restores(
        self, blas_at_3
    ):
        # at 1e150 the precision is lost in U U', which has rank 1
        rng = RNG(71)
        model = small_model(rng, 3)
        row = rng.normal(size=model.shape.param_count) * 1e150
        fac = factors_for(model, np.tile(row, (3, 1)))
        with pytest.raises(NumericError, match="factorization failed"):
            laplace.LaplacePosterior(model, fac, 1e-3)
        assert mps._blas_counts() == blas_at_3


def fitted_posterior(rng, n_labels=2, subsample=False):
    """A posterior around GGN factors of 9 random rows, and those rows."""
    model = small_model(rng, n_labels)
    X = rng.uniform(0, 1, size=(9, 4))
    cap = 8 if subsample else laplace.DEFAULT_RANK_CAP
    fac = laplace.ggn_factors(model, X, rank_cap=cap, seed=3)
    return laplace.LaplacePosterior(model, fac, 0.25), X


class TestPosteriorSerialization:

    def test_round_trip_file(self, tmp_path):
        rng = RNG(40)
        post, X = fitted_posterior(rng)
        path = tmp_path / "posterior.blap"
        laplace.save_posterior(post, path)
        loaded = laplace.load_posterior(path)
        assert loaded.prior_precision == post.prior_precision
        assert np.array_equal(loaded.factors.factors, post.factors.factors)
        assert loaded.factors.model_digest == post.factors.model_digest
        assert loaded.factors.sample_ids is None
        a = laplace.predictive_batch(post, X).probabilities
        b = laplace.predictive_batch(loaded, X).probabilities
        assert np.array_equal(a, b)

    def test_file_holds_the_byte_container(self, tmp_path):
        # save_posterior streams the factor rows; the bytes stay the same
        rng = RNG(47)
        post, _ = fitted_posterior(rng)
        path = tmp_path / "posterior.blap"
        for p in (post, empty_posterior(post.map_model, 0.5)):
            laplace.save_posterior(p, path)
            assert path.read_bytes() == laplace.posterior_to_bytes(p)
            loaded = laplace.load_posterior(path)
            assert np.array_equal(loaded.factors.factors, p.factors.factors)

    def test_round_trip_preserves_sample_ids(self):
        rng = RNG(41)
        post, _ = fitted_posterior(rng, subsample=True)
        loaded = laplace.posterior_from_bytes(laplace.posterior_to_bytes(post))
        assert np.array_equal(loaded.factors.sample_ids, post.factors.sample_ids)
        assert loaded.factors.n_samples == post.factors.n_samples

    def test_bad_magic(self):
        rng = RNG(42)
        post, _ = fitted_posterior(rng)
        blob = bytearray(laplace.posterior_to_bytes(post))
        blob[0] ^= 0xFF
        with pytest.raises(ParseError, match="magic"):
            laplace.posterior_from_bytes(bytes(blob))

    def test_truncated(self):
        rng = RNG(43)
        post, _ = fitted_posterior(rng)
        blob = laplace.posterior_to_bytes(post)
        core_bytes = post.factors.rank ** 2 * 8
        with pytest.raises(ParseError):
            laplace.posterior_from_bytes(blob[:20])
        with pytest.raises(ParseError):
            laplace.posterior_from_bytes(blob[:-7])
        # the factor rows whole, the core factor cut or missing
        for cut in (core_bytes // 2, core_bytes, core_bytes + 7):
            with pytest.raises(ParseError, match="core factor"):
                laplace.posterior_from_bytes(blob[:-cut])

    def test_trailing_garbage(self):
        rng = RNG(44)
        post, _ = fitted_posterior(rng)
        blob = laplace.posterior_to_bytes(post)
        with pytest.raises(ParseError, match="payload"):
            laplace.posterior_from_bytes(blob + b"x")
        # a second core factor's worth after the first
        with pytest.raises(ParseError, match="payload"):
            laplace.posterior_from_bytes(blob + blob[-post.factors.rank ** 2 * 8 :])

    def test_corrupted_model_blob_caught_by_digest(self):
        rng = RNG(45)
        post, _ = fitted_posterior(rng)
        blob = bytearray(laplace.posterior_to_bytes(post))
        # poke a byte well inside the embedded model block
        meta_len = laplace._HEADER.unpack_from(blob, len(laplace._MAGIC))[3]
        model_start = len(laplace._MAGIC) + laplace._HEADER.size + meta_len
        blob[model_start + 60] ^= 0x01
        with pytest.raises(ParseError, match="digest"):
            laplace.posterior_from_bytes(bytes(blob))

    def test_corrupted_metadata(self):
        rng = RNG(46)
        post, _ = fitted_posterior(rng)
        blob = bytearray(laplace.posterior_to_bytes(post))
        start = len(laplace._MAGIC) + laplace._HEADER.size
        blob[start] = ord("x")
        with pytest.raises(ParseError, match="JSON"):
            laplace.posterior_from_bytes(bytes(blob))

    def with_meta(self, post, meta):
        """The container of ``post`` with its metadata block replaced by ``meta``."""
        blob = laplace.posterior_to_bytes(post)
        start = len(laplace._MAGIC)
        head = list(laplace._HEADER.unpack_from(blob, start))
        rest = blob[start + laplace._HEADER.size + head[3] :]
        head[3] = len(meta)
        return blob[:start] + laplace._HEADER.pack(*head) + meta + rest

    def meta_json(self, post, **change):
        meta = {
            "model_digest": post.factors.model_digest,
            "n_samples": post.factors.n_samples,
            "sample_ids": None,
            **change,
        }
        return json.dumps(meta).encode()

    def test_metadata_not_an_object(self):
        post, _ = fitted_posterior(RNG(48))
        with pytest.raises(ParseError, match="not a JSON object"):
            laplace.posterior_from_bytes(self.with_meta(post, b"[1]"))

    @pytest.mark.parametrize("n_samples", [-1, 1.5, True, "9", None, 1 << 63])
    def test_metadata_n_samples_must_be_a_count(self, n_samples):
        post, _ = fitted_posterior(RNG(49))
        blob = self.with_meta(post, self.meta_json(post, n_samples=n_samples))
        with pytest.raises(ParseError, match="n_samples"):
            laplace.posterior_from_bytes(blob)

    @pytest.mark.parametrize(
        "sample_ids", ["0", 3, [1, "a"], [1.0], [True], [-1], [1 << 63]]
    )
    def test_metadata_sample_ids_must_be_integers(self, sample_ids):
        post, _ = fitted_posterior(RNG(50))
        blob = self.with_meta(post, self.meta_json(post, sample_ids=sample_ids))
        with pytest.raises(ParseError, match="sample_ids"):
            laplace.posterior_from_bytes(blob)


class TestStoredCore:
    """The core factor travels in the file and is checked, not recomputed."""

    def with_entry(self, post, i, j, fn):
        """The container of ``post`` with entry (i, j) of its stored core
        (the last section, in Fortran order) replaced by ``fn`` of itself."""
        blob = bytearray(laplace.posterior_to_bytes(post))
        R = post.factors.rank
        at = len(blob) - R * R * 8 + (j * R + i) * 8
        (value,) = struct.unpack_from("<d", blob, at)
        struct.pack_into("<d", blob, at, fn(value))
        return bytes(blob)

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_loaded_core_is_bit_identical(self, tmp_path, n_labels):
        post, X = fitted_posterior(RNG(60), n_labels)
        path = tmp_path / "posterior.blap"
        laplace.save_posterior(post, path)
        loaded = laplace.load_posterior(path)
        c = post._core
        assert loaded._core.flags.f_contiguous
        assert loaded._core.tobytes(order="F") == c.tobytes(order="F")
        assert loaded.log_det_precision == post.log_det_precision
        a, b = laplace.predictive_batch(post, X), laplace.predictive_batch(loaded, X)
        assert np.array_equal(a.sigma2, b.sigma2)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_file_grows_by_the_core(self):
        post, _ = fitted_posterior(RNG(61))
        R, P = post.factors.rank, post.factors.n_params
        blob = laplace.posterior_to_bytes(post)
        head = laplace._posterior_head(post)
        assert len(blob) == len(head) + R * P * 8 + R * R * 8
        assert blob[: len(laplace._MAGIC)] == b"BLAP2"

    def test_load_does_not_refactor(self, tmp_path, monkeypatch):
        rng = RNG(62)
        model = small_model(rng, 2)
        R = 300
        post = laplace.LaplacePosterior(
            model, factors_for(model, rng.normal(size=(R, model.shape.param_count))), 0.5
        )
        path = tmp_path / "posterior.blap"
        laplace.save_posterior(post, path)

        def refactor(*args, **kwargs):
            raise AssertionError("loading refactored the core")

        # laplace imports scipy.linalg's names when it first needs them
        monkeypatch.setattr(scipy.linalg, "cho_factor", refactor)
        peak, loaded = traced_peak(lambda: laplace.load_posterior(path))
        # U and the stored core, but no R x R product UU' beside them
        assert peak < post.factors.factors.nbytes + 1.5 * R * R * 8
        assert loaded.log_det_precision == post.log_det_precision

    def test_non_finite_entry(self):
        post, _ = fitted_posterior(RNG(63))
        blob = self.with_entry(post, 0, 1, lambda v: float("nan"))
        with pytest.raises(ParseError, match="core factor.*non-finite"):
            laplace.posterior_from_bytes(blob)

    def test_negated_diagonal(self):
        post, _ = fitted_posterior(RNG(64))
        blob = self.with_entry(post, 2, 2, lambda v: -v)
        with pytest.raises(ParseError, match="core factor.*diagonal"):
            laplace.posterior_from_bytes(blob)

    def test_scaled_upper_entry_fails_the_probe(self):
        post, _ = fitted_posterior(RNG(65))
        c = post._core
        upper = np.triu(np.abs(c), k=1)
        i, j = np.unravel_index(np.argmax(upper), c.shape)
        assert upper[i, j] > 0
        blob = self.with_entry(post, i, j, lambda v: 2.0 * v)
        with pytest.raises(ParseError, match="core factor does not match"):
            laplace.posterior_from_bytes(blob)

    def test_probe_holds_for_large_factor_rows(self):
        # rows of 1e100, the engine's magnitude cap, put the probe's squared
        # norms above the float range; it still tells a damaged core
        rng = RNG(72)
        model = small_model(rng, 2)
        U = 1e100 * rng.normal(size=(12, model.shape.param_count))
        post = laplace.LaplacePosterior(model, factors_for(model, U), 0.25)
        loaded = laplace.posterior_from_bytes(laplace.posterior_to_bytes(post))
        assert loaded._core.tobytes(order="F") == post._core.tobytes(order="F")
        blob = self.with_entry(post, 1, 3, lambda v: 2.0 * v)
        with pytest.raises(ParseError, match="core factor does not match"):
            laplace.posterior_from_bytes(blob)

    def with_factor(self, post, i, j, fn):
        """The container of ``post`` with entry (i, j) of its factor rows
        (the section after the head, in C order) replaced by ``fn`` of it."""
        blob = bytearray(laplace.posterior_to_bytes(post))
        at = len(laplace._posterior_head(post)) + (i * post.factors.n_params + j) * 8
        (value,) = struct.unpack_from("<d", blob, at)
        struct.pack_into("<d", blob, at, fn(value))
        return bytes(blob)

    @pytest.mark.parametrize(
        "damage", [lambda v: 2.0 * v, lambda v: 1e155, lambda v: 1e300],
        ids=["doubled", "1e155", "1e300"],
    )
    def test_damaged_factor_entry_fails_the_probe(self, damage):
        # entries of 1e155 and more overflow the probe U U' v to inf, against
        # a finite stored core
        post, _ = fitted_posterior(RNG(69))
        U = post.factors.factors
        i, j = np.unravel_index(np.argmax(np.abs(U)), U.shape)
        blob = self.with_factor(post, i, j, damage)
        with pytest.raises(ParseError, match="core factor does not match the factor rows"):
            laplace.posterior_from_bytes(blob)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_factor_entry_is_a_parse_error(self, bad):
        post, _ = fitted_posterior(RNG(71))
        blob = self.with_factor(post, 1, 2, lambda v: bad)
        with pytest.raises(ParseError, match="factor rows.*non-finite"):
            laplace.posterior_from_bytes(blob)
        # factor rows built in memory keep their NumericError
        U = post.factors.factors.copy()
        U[1, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            factors_for(post.map_model, U)

    def test_lower_triangle_is_not_read(self):
        # cho_factor leaves the lower triangle unused; the probe reads the upper
        post, X = fitted_posterior(RNG(66))
        blob = self.with_entry(post, 3, 1, lambda v: 7.0 * v + 1.0)
        loaded = laplace.posterior_from_bytes(blob)
        a, b = laplace.predictive_batch(post, X), laplace.predictive_batch(loaded, X)
        assert np.array_equal(a.sigma2, b.sigma2)

    def test_retired_format_asks_for_a_refit(self):
        post, _ = fitted_posterior(RNG(67))
        blob = b"BLAP1" + laplace.posterior_to_bytes(post)[len(laplace._MAGIC) :]
        with pytest.raises(ParseError, match="re-run laplace-fit"):
            laplace.posterior_from_bytes(blob)

    def test_rank_zero_round_trips_without_a_core(self, tmp_path):
        post = empty_posterior(small_model(RNG(68), 2), 0.5)
        path = tmp_path / "posterior.blap"
        laplace.save_posterior(post, path)
        assert path.stat().st_size == len(laplace._posterior_head(post))
        loaded = laplace.load_posterior(path)
        # the core is the empty factor cho_factor gives, and has no bytes
        assert loaded._core.shape == (0, 0) and loaded.factors.rank == 0
        assert loaded.log_det_precision == post.log_det_precision


class TestCheckOnce:
    """Each input is checked for finiteness once: the factor rows by the
    Jacobian stream that writes them or by the probe that reads them from a
    file, and the core where it is built or loaded."""

    @staticmethod
    def scanned(monkeypatch):
        """The sizes of the arrays ``mps._within`` scans from now on."""
        sizes, within = [], mps._within
        monkeypatch.setattr(mps, "_within", lambda arr, cap: sizes.append(arr.size) or within(arr, cap))
        return sizes

    def test_factor_rows_are_not_rescanned(self, monkeypatch):
        rng = RNG(90)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(9, 4))
        sizes = self.scanned(monkeypatch)
        fac = laplace.ggn_factors(model, X)
        assert sizes and max(sizes) < fac.factors.size
        post = laplace.LaplacePosterior(model, fac, 0.25)
        blob = laplace.posterior_to_bytes(post)
        sizes.clear()
        loaded = laplace.posterior_from_bytes(blob)
        assert np.array_equal(loaded.factors.factors, fac.factors)
        # the probe is the rows' one pass; only the R x R core is scanned
        assert max(sizes) < fac.factors.size
        # rows built by hand keep the scan and its NumericError
        U = fac.factors.copy()
        sizes.clear()
        factors_for(model, U)
        assert sizes == [U.size]
        U[2, 5] = np.nan
        with pytest.raises(NumericError, match="factors contain non-finite entries"):
            factors_for(model, U)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_only_a_failed_probe_rescans_the_rows(self, monkeypatch, bad):
        post, _ = fitted_posterior(RNG(91))
        U = post.factors.factors
        blob = bytearray(laplace.posterior_to_bytes(post))
        struct.pack_into("<d", blob, len(laplace._posterior_head(post)) + 8 * U.shape[1], bad)
        sizes = self.scanned(monkeypatch)
        with pytest.raises(ParseError, match=r"^factor rows: factors contain non-finite entries$"):
            laplace.posterior_from_bytes(bytes(blob))
        assert sizes.count(U.size) == 1

    def test_an_overflowing_variance_raises(self, monkeypatch):
        # With the cap lifted, the Jacobian of this chain reaches 1e160 at
        # site 3: A = U J' of factor rows at 1e150 overflows, as does |j|^2,
        # while the core U U' + I stays finite. The triangular solve no
        # longer checks A, so the variance check must catch it.
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        mats = [np.eye(2)] * 5
        mats[3], mats[1] = np.diag([1e160, 1.0]), np.diag([1e-160, 1.0])
        model = transfer_chain(mats, label_site=2)
        U = 1e150 * RNG(92).normal(size=(3, model.shape.param_count))
        post = laplace.LaplacePosterior(model, factors_for(model, U), 1.0)
        X = np.ones((2, 5))
        assert np.all(mps.forward_batch(model, mps.embed(X)) == 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="posterior variance is not finite"):
                laplace.predictive_batch(post, X)
