"""Calibrated initialization: closed forms, seeding, response statistics."""

import numpy as np
import pytest

from bmps import initializer, mps
from bmps.initializer import InitSpec


class TestVarianceFormulas:
    # Frozen by hand from the closed forms:
    #   weight:   (2*3*(1/12))^(-4/3)            = 2**(4/3)
    #   gradient: 2**(-3/2) * (1/3) * 12**2       = 48/2**1.5
    #   asymptotic at s=2, alpha=4, var_x=1/12:   = 12/8
    def test_weight_form(self):
        sh = mps.MpsShape(4, 2, 3, 1)
        spec = InitSpec("calibrated_weight", var_x=1.0 / 12.0)
        assert initializer.init_variance(spec, sh) == pytest.approx(
            2.5198420997897464, rel=1e-14
        )

    def test_gradient_form(self):
        sh = mps.MpsShape(4, 2, 3, 1)
        spec = InitSpec("calibrated_gradient", var_x=1.0 / 12.0)
        assert initializer.init_variance(spec, sh) == pytest.approx(
            16.970562748477143, rel=1e-14
        )

    def test_asymptotic_form(self):
        sh = mps.MpsShape(7, 2, 4, 1)
        spec = InitSpec("calibrated_asymptotic", var_x=1.0 / 12.0)
        assert initializer.init_variance(spec, sh) == pytest.approx(1.5, rel=1e-14)

    def test_weight_converges_to_asymptotic(self):
        sh = mps.MpsShape(1000, 2, 4, 1)
        spec = InitSpec("calibrated_weight", var_x=1.0 / 12.0)
        v = initializer.init_variance(spec, sh)
        assert abs(v - 1.5) < 0.02

    def test_fan_based_forms(self):
        sh = mps.MpsShape(6, 2, 4, 10)
        assert initializer.init_variance(InitSpec("xavier"), sh) == pytest.approx(
            2.0 / 12.0
        )
        assert initializer.init_variance(
            InitSpec("xavier"), sh, label_node=True
        ) == pytest.approx(2.0 / 48.0)
        assert initializer.init_variance(InitSpec("he"), sh) == pytest.approx(0.25)
        assert initializer.init_variance(
            InitSpec("he"), sh, label_node=True
        ) == pytest.approx(0.25)

    def test_chain_length_domain(self):
        spec = InitSpec("calibrated_weight")
        with pytest.raises(ValueError, match="n_sites"):
            initializer.init_variance(spec, mps.MpsShape(1, 2, 2, 1))
        spec = InitSpec("calibrated_gradient")
        with pytest.raises(ValueError, match="n_sites"):
            initializer.init_variance(spec, mps.MpsShape(2, 2, 2, 1))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown init method"):
            InitSpec("glorot")
        with pytest.raises(ValueError, match="var_x"):
            InitSpec(var_x=0.0)
        with pytest.raises(ValueError, match="scale_factor"):
            InitSpec(scale_factor=-1.0)


class TestInitModel:
    def test_shapes_and_determinism(self):
        sh = mps.MpsShape(5, 2, 3, 4, boundary="open")
        spec = InitSpec("calibrated_weight", var_x=0.3, seed=9)
        a = initializer.init_model(sh, spec)
        b = initializer.init_model(sh, spec)
        for i, (na, nb) in enumerate(zip(a.nodes, b.nodes)):
            assert na.shape == sh.node_shape(i)
            assert np.array_equal(na, nb)
        c = initializer.init_model(sh, InitSpec("calibrated_weight", var_x=0.3, seed=10))
        assert not np.array_equal(a.nodes[0], c.nodes[0])

    def test_entry_statistics(self):
        sh = mps.MpsShape(2, 2, 40, 1)  # big nodes -> tight empirical std
        spec = InitSpec("calibrated_weight", var_x=0.25, seed=3)
        model = initializer.init_model(sh, spec)
        sigma = np.sqrt(initializer.init_variance(spec, sh))
        entries = model.params
        assert abs(entries.mean()) < 4 * sigma / np.sqrt(entries.size)
        assert entries.std() == pytest.approx(sigma, rel=0.05)

    def test_scale_factor_multiplies_std(self):
        sh = mps.MpsShape(3, 2, 4, 2)
        base = initializer.init_model(sh, InitSpec(seed=5))
        doubled = initializer.init_model(sh, InitSpec(seed=5, scale_factor=2.0))
        for a, b in zip(base.nodes, doubled.nodes):
            np.testing.assert_allclose(b, 2.0 * a, rtol=1e-15)

    def test_label_node_uses_label_fan_out(self):
        sh = mps.MpsShape(2, 2, 30, 12, label_site=1)
        model = initializer.init_model(sh, InitSpec("xavier", seed=1))
        plain_sigma = np.sqrt(initializer.init_variance(InitSpec("xavier"), sh))
        label_sigma = np.sqrt(
            initializer.init_variance(InitSpec("xavier"), sh, label_node=True)
        )
        assert model.nodes[0].std() == pytest.approx(plain_sigma, rel=0.1)
        assert model.nodes[1].std() == pytest.approx(label_sigma, rel=0.1)
        assert label_sigma < plain_sigma


class TestOutputStats:
    def test_deterministic_and_replica_seeded(self):
        sh = mps.MpsShape(3, 2, 2, 2)
        spec = InitSpec("calibrated_weight", var_x=0.25, seed=11)
        sample = np.full(3, 0.5)
        a = initializer.output_stats(sh, spec, 50, sample)
        b = initializer.output_stats(sh, spec, 50, sample)
        assert a == b
        # replica k uses seed + k, so shifting the base seed by one drops the
        # first replica and keeps the rest
        m2, v2 = initializer.output_stats(
            sh, InitSpec("calibrated_weight", var_x=0.25, seed=12), 49, sample
        )
        vals_a = []
        for k in range(50):
            model = initializer.init_model(
                sh, InitSpec("calibrated_weight", var_x=0.25, seed=11 + k)
            )
            vals_a.append(mps.forward_batch(model, mps.embed(sample[None]))[0, 0])
        assert np.mean(vals_a) == pytest.approx(a[0], abs=1e-15)
        assert np.mean(vals_a[1:]) == pytest.approx(m2, abs=1e-15)

    def test_mean_near_zero_and_variance_matches_law(self):
        # Constant sample x* = 0.5 makes the per-site embedded second moment
        # exactly (x*^2 + (1-x*)^2)/2 = 1/4, for which the closed form
        # (s*alpha*Var[A]*var_x)^n is exact under i.i.d. zero-mean entries.
        sh = mps.MpsShape(3, 2, 2, 1)
        var_a = 0.7
        sample = np.full(3, 0.5)
        n_models = 4000
        rows = np.empty(n_models)
        for k in range(n_models):
            rng = np.random.default_rng(1000 + k)
            nodes = [
                rng.normal(0.0, np.sqrt(var_a), size=sh.node_shape(i))
                for i in range(sh.n_sites)
            ]
            model = mps.MpsModel(sh, nodes)
            rows[k] = mps.forward_batch(model, mps.embed(sample[None]))[0, 0]
        want = initializer.response_variance_law(sh, var_a, 0.25)
        got = rows.var()
        m4 = ((rows - rows.mean()) ** 4).mean()
        se_var = np.sqrt(max(m4 - got**2, 0.0) / n_models)
        assert abs(got - want) <= 3 * se_var
        se_mean = rows.std() / np.sqrt(n_models)
        assert abs(rows.mean()) <= 4 * se_mean

    def test_n_models_domain(self):
        sh = mps.MpsShape(2, 2, 2, 1)
        with pytest.raises(ValueError, match="n_models"):
            initializer.output_stats(sh, InitSpec(), 1, np.full(2, 0.5))
