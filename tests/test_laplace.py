"""Tests for the low-rank posterior: curvature factors, solves, predictions."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit, softmax

from bmps import laplace, mps, trainer
from bmps.errors import DataError, NumericError, ParseError, ShapeError

from oracles import fd_hessian_from_grad, random_model

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
        g = mps.grad_logits(model, mps.embed(X[0])).flatten()[0]
        fac = laplace.ggn_factors(model, X)
        H = fac.factors.T @ fac.factors
        assert np.allclose(H, 0.25 * np.outer(g, g), rtol=1e-12, atol=1e-14)

    def test_multiclass_matches_direct_curvature(self):
        rng = RNG(1)
        model = small_model(rng, 3)
        X = rng.uniform(0, 1, size=(6, 4))
        fac = laplace.ggn_factors(model, X)
        H = fac.factors.T @ fac.factors
        jac = mps.jacobian_from_env(mps.sweep_env(model, X))  # (m, L, P)
        y = softmax(mps.forward_batch(model, X), axis=1)
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
        jac = mps.jacobian_from_env(mps.sweep_env(model, X))[:, 0, :]
        y = expit(mps.forward_batch(model, X)[:, 0])
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
        y = softmax(mps.forward_batch(saturated, X), axis=1)
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
        monkeypatch.setattr(mps, "CHUNK_ROWS", 2)
        chunked = laplace.ggn_factors(model, X)
        # chunk geometry changes the BLAS kernels, so agreement is to
        # round-off rather than bitwise
        assert np.allclose(whole.factors, chunked.factors, rtol=1e-12, atol=1e-14)

    def test_non_finite_factors_rejected(self):
        rng = RNG(10)
        model = small_model(rng, 1)
        U = np.full((2, model.shape.param_count), np.nan)
        with pytest.raises(NumericError):
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
        nodes[shape.label_site] /= np.std(mps.forward_batch(model, X))
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

        H_fd = fd_hessian_from_grad(grad_nll, mps.flatten_params(fit))
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
    def test_high_precision_rank_zero_recovers_softmax(self):
        rng = RNG(30)
        model = small_model(rng, 4)
        post = empty_posterior(model, 1e15)
        x = rng.uniform(0, 1, size=4)
        res = laplace.predictive(post, x)
        want = softmax(mps.forward(model, mps.embed(x)))
        assert np.allclose(res.probabilities, want, atol=1e-9)

    def test_high_precision_rank_zero_recovers_sigmoid(self):
        rng = RNG(31)
        model = small_model(rng, 1)
        post = empty_posterior(model, 1e15)
        x = rng.uniform(0, 1, size=4)
        res = laplace.predictive(post, x)
        z = mps.forward(model, mps.embed(x))[0]
        assert res.probabilities == pytest.approx([1 - expit(z), expit(z)], abs=1e-9)

    def test_binary_closed_form_variance_point(self):
        # Choose the precision so the posterior variance of the logit is
        # exactly 8/pi, where the moderation factor is 1/sqrt(2).
        rng = RNG(32)
        model = small_model(rng, 1)
        x = rng.uniform(0, 1, size=4)
        g = mps.grad_logits(model, mps.embed(x)).flatten()[0]
        lam = float(g @ g) / (8.0 / math.pi)
        post = empty_posterior(model, lam)
        res = laplace.predictive(post, x)
        assert res.sigma2[0] == pytest.approx(8.0 / math.pi, rel=1e-12)
        assert res.kappa[0] == pytest.approx(math.sqrt(0.5), rel=1e-12)
        z = mps.forward(model, mps.embed(x))[0]
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
        z = mps.forward_batch(model, X)[:, 0]
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
            z = mps.forward_batch(model, X)[:, 0]
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
        monkeypatch.setattr(mps, "CHUNK_ROWS", 3)
        for n_labels in (1, 3):
            model = small_model(rng, n_labels)
            X = rng.uniform(0, 1, size=(10, 4))
            post = laplace.LaplacePosterior(model, laplace.ggn_factors(model, X), 0.5)
            logits = laplace.predictive_batch(post, X).logits
            assert np.array_equal(logits, mps.forward_batch(model, X))

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


class TestPosteriorSerialization:
    def build(self, rng, n_labels=2, subsample=False):
        model = small_model(rng, n_labels)
        X = rng.uniform(0, 1, size=(9, 4))
        cap = 8 if subsample else laplace.DEFAULT_RANK_CAP
        fac = laplace.ggn_factors(model, X, rank_cap=cap, seed=3)
        return laplace.LaplacePosterior(model, fac, 0.25), X

    def test_round_trip_file(self, tmp_path):
        rng = RNG(40)
        post, X = self.build(rng)
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

    def test_round_trip_preserves_sample_ids(self):
        rng = RNG(41)
        post, _ = self.build(rng, subsample=True)
        loaded = laplace.posterior_from_bytes(laplace.posterior_to_bytes(post))
        assert np.array_equal(loaded.factors.sample_ids, post.factors.sample_ids)
        assert loaded.factors.n_samples == post.factors.n_samples

    def test_bad_magic(self):
        rng = RNG(42)
        post, _ = self.build(rng)
        blob = bytearray(laplace.posterior_to_bytes(post))
        blob[0] ^= 0xFF
        with pytest.raises(ParseError, match="magic"):
            laplace.posterior_from_bytes(bytes(blob))

    def test_truncated(self):
        rng = RNG(43)
        post, _ = self.build(rng)
        blob = laplace.posterior_to_bytes(post)
        with pytest.raises(ParseError):
            laplace.posterior_from_bytes(blob[:20])
        with pytest.raises(ParseError):
            laplace.posterior_from_bytes(blob[:-7])

    def test_trailing_garbage(self):
        rng = RNG(44)
        post, _ = self.build(rng)
        blob = laplace.posterior_to_bytes(post)
        with pytest.raises(ParseError, match="payload"):
            laplace.posterior_from_bytes(blob + b"x")

    def test_corrupted_model_blob_caught_by_digest(self):
        rng = RNG(45)
        post, _ = self.build(rng)
        blob = bytearray(laplace.posterior_to_bytes(post))
        # poke a byte well inside the embedded model block
        meta_len = laplace._HEADER.unpack_from(blob, len(laplace._MAGIC))[3]
        model_start = len(laplace._MAGIC) + laplace._HEADER.size + meta_len
        blob[model_start + 60] ^= 0x01
        with pytest.raises(ParseError, match="digest"):
            laplace.posterior_from_bytes(bytes(blob))

    def test_corrupted_metadata(self):
        rng = RNG(46)
        post, _ = self.build(rng)
        blob = bytearray(laplace.posterior_to_bytes(post))
        start = len(laplace._MAGIC) + laplace._HEADER.size
        blob[start] = ord("x")
        with pytest.raises(ParseError, match="JSON"):
            laplace.posterior_from_bytes(bytes(blob))
