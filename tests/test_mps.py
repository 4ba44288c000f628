"""Chain contraction, gradients, and the binary model container."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmps import mps
from bmps.errors import DataError, NumericError, ParseError, ShapeError

import oracles


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / denom


class TestFeatureMap:
    def test_values(self):
        np.testing.assert_allclose(mps.feature_map(0.3), [0.3, 0.7], atol=0)
        np.testing.assert_allclose(mps.feature_map(0.0), [0.0, 1.0], atol=0)
        np.testing.assert_allclose(mps.feature_map(1.0), [1.0, 0.0], atol=0)

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, 17.0])
    def test_domain(self, bad):
        with pytest.raises(DataError, match=str(bad)):
            mps.feature_map(bad)

    def test_embed_components_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=25)
        emb = mps.embed(x)
        vecs = emb.site_vectors
        assert vecs.shape == (25, 2)
        np.testing.assert_allclose(vecs.sum(axis=1), 1.0, atol=1e-15)
        assert vecs.min() >= 0.0 and vecs.max() <= 1.0

    def test_embed_length_check(self):
        with pytest.raises(ShapeError):
            mps.embed([0.1, 0.2], n_sites=3)

    def test_embed_range_check(self):
        with pytest.raises(DataError):
            mps.embed([0.1, 1.7])


class TestShape:
    def test_label_site_default_is_middle(self):
        assert mps.MpsShape(9, 2, 3, 4).label_site == 4
        assert mps.MpsShape(2, 2, 3, 4).label_site == 1

    def test_node_shapes_cyclic(self):
        sh = mps.MpsShape(3, 2, 5, 4, label_site=1, boundary="cyclic")
        assert sh.node_shape(0) == (5, 2, 5)
        assert sh.node_shape(1) == (5, 2, 4, 5)
        assert sh.param_count == 2 * 50 + 200

    def test_node_shapes_open(self):
        sh = mps.MpsShape(3, 2, 5, 4, label_site=1, boundary="open")
        assert sh.node_shape(0) == (1, 2, 5)
        assert sh.node_shape(2) == (5, 2, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sites=0, phys_dim=2, bond_dim=2, n_labels=1),
            dict(n_sites=3, phys_dim=2, bond_dim=2, n_labels=1, label_site=3),
            dict(n_sites=3, phys_dim=2, bond_dim=2, n_labels=1, boundary="pbc"),
            dict(n_sites=3, phys_dim=-1, bond_dim=2, n_labels=1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            mps.MpsShape(**kwargs)

    def test_model_node_validation(self):
        sh = mps.MpsShape(2, 2, 2, 1)
        good = [np.zeros(sh.node_shape(i)) for i in range(2)]
        with pytest.raises(ShapeError):
            mps.MpsModel(sh, good[:1])
        bad = [np.zeros((3, 3, 3)), good[1]]
        with pytest.raises(ShapeError):
            mps.MpsModel(sh, bad)
        nan = [g.copy() for g in good]
        nan[0][0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            mps.MpsModel(sh, nan)


class TestContraction:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(14):
            shape = oracles.random_shape(rng)
            model = oracles.random_model(rng, shape)
            vecs = oracles.random_vectors(rng, shape)
            got = mps.forward(model, mps.FeatureEmbedding(vecs))
            want = oracles.oracle_contract(model, vecs)
            assert rel_err(got, want) <= 1e-10

    def test_single_site_cyclic_is_traced_label_node(self):
        # n=1: logits[l] = sum_{a,s} node[a, s, l, a] * vec[s]
        sh = mps.MpsShape(1, 2, 3, 2, label_site=0, boundary="cyclic")
        rng = np.random.default_rng(1)
        model = oracles.random_model(rng, sh)
        vecs = rng.uniform(0, 1, size=(1, 2))
        want = np.einsum("asla,s->l", model.nodes[0], vecs[0])
        got = mps.forward(model, mps.FeatureEmbedding(vecs))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        sh = mps.MpsShape(5, 2, 3, 4, boundary="open")
        model = oracles.random_model(rng, sh)
        X = rng.uniform(0, 1, size=(9, 5))
        batch = mps.forward_batch(model, X)
        for b in range(9):
            single = mps.forward(model, mps.embed(X[b]))
            assert np.array_equal(batch[b], single)

    def test_empty_batch(self):
        sh = mps.MpsShape(3, 2, 2, 2)
        model = oracles.random_model(np.random.default_rng(0), sh)
        out = mps.forward_batch(model, np.zeros((0, 3)))
        assert out.shape == (0, 2)

    def test_shape_mismatch(self):
        sh = mps.MpsShape(4, 2, 2, 1)
        model = oracles.random_model(np.random.default_rng(0), sh)
        with pytest.raises(ShapeError):
            mps.forward(model, mps.embed(np.full(3, 0.5)))
        with pytest.raises(ShapeError):
            mps.forward_batch(model, np.full((2, 5), 0.5))

    def test_feature_range_rejected(self):
        sh = mps.MpsShape(3, 2, 2, 1)
        model = oracles.random_model(np.random.default_rng(0), sh)
        with pytest.raises(DataError):
            mps.forward_batch(model, np.full((2, 3), 1.5))
        with pytest.raises(DataError):
            mps.forward_batch(model, np.array([[0.5, np.nan, 0.5]]))

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(-3, 3), site=st.integers(0, 3))
    def test_multilinearity_in_each_node(self, c, site):
        rng = np.random.default_rng(5)
        sh = mps.MpsShape(4, 2, 3, 2, boundary="cyclic")
        model = oracles.random_model(rng, sh)
        vecs = oracles.random_vectors(rng, sh, 0.0, 1.0)
        emb = mps.FeatureEmbedding(vecs)
        base = mps.forward(model, emb)
        scaled = model.copy()
        scaled.nodes[site] = scaled.nodes[site] * c
        np.testing.assert_allclose(
            mps.forward(scaled, emb), c * base, rtol=1e-12, atol=1e-12
        )

    def test_overflow_reports_site(self):
        sh = mps.MpsShape(30, 2, 2, 1, boundary="cyclic")
        nodes = [np.full(sh.node_shape(i), 1.0e4) for i in range(30)]
        model = mps.MpsModel(sh, nodes)
        X = np.full((1, 30), 0.5)
        with pytest.raises(NumericError, match="site"):
            mps.forward_batch(model, X)
        # a larger cap lets the same contraction through
        out = mps.forward_batch(model, X, magnitude_cap=1e300)
        assert np.all(np.isfinite(out))

    def test_nonfinite_intermediate_raises(self):
        sh = mps.MpsShape(4, 2, 2, 1, boundary="cyclic")
        nodes = [np.full(sh.node_shape(i), 1.0e200) for i in range(4)]
        model = mps.MpsModel(sh, nodes)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            mps.forward_batch(model, np.full((1, 4), 0.5), magnitude_cap=np.inf)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            shape = oracles.random_shape(rng, max_n=4, max_s=3, max_bond=3)
            model = oracles.random_model(rng, shape, scale=0.6)
            vecs = oracles.random_vectors(rng, shape)
            got = mps.grad_logits(model, mps.FeatureEmbedding(vecs)).flatten()
            want = oracles.fd_grad_logits(model, vecs)
            assert rel_err(got, want) <= 1e-6

    def test_matches_naive_recontraction(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            shape = oracles.random_shape(rng)
            model = oracles.random_model(rng, shape)
            vecs = oracles.random_vectors(rng, shape)
            got = mps.grad_logits(model, mps.FeatureEmbedding(vecs))
            want = oracles.naive_grad_logits(model, vecs)
            for gi, wi in zip(got.tensors, want.tensors):
                assert rel_err(gi, wi) <= 1e-12

    def test_directional_derivative(self):
        rng = np.random.default_rng(17)
        sh = mps.MpsShape(3, 2, 3, 2, boundary="cyclic")
        model = oracles.random_model(rng, sh)
        vecs = oracles.random_vectors(rng, sh, 0.0, 1.0)
        emb = mps.FeatureEmbedding(vecs)
        grad = mps.grad_logits(model, emb)
        eps = 1e-7
        for i in range(sh.n_sites):
            delta = rng.normal(size=sh.node_shape(i))
            bumped = model.copy()
            bumped.nodes[i] = bumped.nodes[i] + eps * delta
            lhs = (mps.forward(bumped, emb) - mps.forward(model, emb)) / eps
            rhs = np.tensordot(grad.tensors[i], delta, axes=delta.ndim)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-7)

    def test_label_node_cross_class_slices_vanish(self):
        rng = np.random.default_rng(19)
        sh = mps.MpsShape(3, 2, 2, 3, label_site=1)
        model = oracles.random_model(rng, sh)
        vecs = oracles.random_vectors(rng, sh)
        g = mps.grad_logits(model, mps.FeatureEmbedding(vecs)).tensors[1]
        for l in range(3):
            for l2 in range(3):
                if l != l2:
                    assert np.all(g[l, :, :, l2, :] == 0.0)

    def test_flatten_matches_batch_jacobian(self):
        rng = np.random.default_rng(23)
        sh = mps.MpsShape(4, 2, 3, 3, boundary="open")
        model = oracles.random_model(rng, sh)
        X = rng.uniform(0, 1, size=(5, 4))
        jac = mps.jacobian_from_env(mps.sweep_env(model, X))
        for b in range(5):
            single = mps.grad_logits(model, mps.embed(X[b])).flatten()
            np.testing.assert_allclose(jac[b], single, rtol=1e-12, atol=1e-14)

    def test_weighted_grad_is_coeff_contraction_of_jacobian(self):
        rng = np.random.default_rng(29)
        cases = set()
        for _ in range(40):
            # the raw-feature sweep embeds with phys_dim 2
            sh = dataclasses.replace(oracles.random_shape(rng, max_n=6), phys_dim=2)
            k, n = sh.label_site, sh.n_sites
            where = "first" if k == 0 else "last" if k == n - 1 else "middle"
            cases.add((sh.boundary, where, sh.n_labels > 1))
            model = oracles.random_model(rng, sh)
            X = rng.uniform(0, 1, size=(6, n))
            coeff = rng.normal(size=(6, sh.n_labels))
            env = mps.sweep_env(model, X)
            grads = mps.weighted_grad_from_env(env, coeff)
            flat = np.concatenate([g.ravel() for g in grads])
            jac = mps.jacobian_from_env(env)
            want = np.einsum("bl,blp->p", coeff, jac)
            np.testing.assert_allclose(flat, want, rtol=1e-11, atol=1e-12)
        assert {c[:2] for c in cases} == {
            (b, w) for b in ("open", "cyclic") for w in ("first", "middle", "last")
        }
        assert {c[2] for c in cases} == {False, True}

    @pytest.mark.parametrize("label_site", [0, 11, 23])
    def test_long_chain_against_oracles(self, label_site):
        # 24 sites: many matrices on each side of the label site
        rng = np.random.default_rng(31 + label_site)
        sh = mps.MpsShape(24, 2, 3, 3, label_site=label_site, boundary="cyclic")
        model = oracles.random_model(rng, sh, scale=0.5)
        X = rng.uniform(0, 1, size=(4, 24))
        env = mps.sweep_env(model, X)
        coeff = rng.normal(size=(4, 3))
        want_grad = 0.0
        for b in range(4):
            vecs = mps.embed(X[b]).site_vectors
            naive = oracles.naive_grad_logits(model, vecs)
            got = mps.grad_logits(model, mps.FeatureEmbedding(vecs))
            for gi, wi in zip(got.tensors, naive.tensors):
                assert rel_err(gi, wi) <= 1e-12
            # a logit is linear in each node: contract any node with its gradient
            want = np.tensordot(naive.tensors[5], model.nodes[5], axes=3)
            assert rel_err(env.logits[b], want) <= 1e-12
            want_grad = want_grad + np.einsum("l,lp->p", coeff[b], naive.flatten())
        grads = mps.weighted_grad_from_env(env, coeff)
        assert rel_err(np.concatenate([g.ravel() for g in grads]), want_grad) <= 1e-12

    def test_long_open_chain_against_exhaustive_oracle(self):
        rng = np.random.default_rng(37)
        for label_site in (0, 6, 12):
            sh = mps.MpsShape(13, 2, 2, 2, label_site=label_site, boundary="open")
            model = oracles.random_model(rng, sh)
            x = rng.uniform(0, 1, size=13)
            want = oracles.oracle_contract(model, mps.embed(x).site_vectors)
            assert rel_err(mps.forward_batch(model, x[None])[0], want) <= 1e-12


class TestParams:
    def test_flatten_roundtrip(self):
        rng = np.random.default_rng(31)
        sh = mps.MpsShape(4, 3, 2, 2, boundary="open")
        model = oracles.random_model(rng, sh)
        vec = mps.flatten_params(model)
        assert vec.size == sh.param_count
        back = mps.model_from_params(sh, vec)
        for a, b in zip(back.nodes, model.nodes):
            assert np.array_equal(a, b)

    def test_unflatten_size_check(self):
        sh = mps.MpsShape(2, 2, 2, 1)
        with pytest.raises(ShapeError):
            mps.unflatten_params(sh, np.zeros(sh.param_count + 1))

    def test_weight_norm_sq(self):
        sh = mps.MpsShape(2, 2, 2, 1)
        model = mps.MpsModel(sh, [np.full(sh.node_shape(i), 2.0) for i in range(2)])
        want = 4.0 * sum(np.prod(sh.node_shape(i)) for i in range(2))
        assert mps.weight_norm_sq(model) == want


class TestSerialization:
    def _model(self):
        rng = np.random.default_rng(37)
        sh = mps.MpsShape(5, 2, 3, 4, label_site=2, boundary="open")
        return oracles.random_model(rng, sh)

    def test_roundtrip_bit_identical(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.bmps"
        mps.save_model(model, path)
        back = mps.load_model(path)
        assert back.shape == model.shape
        for a, b in zip(back.nodes, model.nodes):
            assert a.tobytes() == b.tobytes()
        emb = mps.embed(np.linspace(0, 1, 5))
        assert mps.forward(back, emb).tobytes() == mps.forward(model, emb).tobytes()

    def test_bytes_roundtrip(self):
        model = self._model()
        blob = mps.model_to_bytes(model)
        again = mps.model_to_bytes(mps.model_from_bytes(blob))
        assert blob == again

    def test_bad_magic(self):
        blob = bytearray(mps.model_to_bytes(self._model()))
        blob[0] = ord("X")
        with pytest.raises(ParseError, match="magic"):
            mps.model_from_bytes(bytes(blob))

    def test_truncated(self):
        blob = mps.model_to_bytes(self._model())
        with pytest.raises(ParseError):
            mps.model_from_bytes(blob[: len(blob) // 2])
        with pytest.raises(ParseError):
            mps.model_from_bytes(blob[:10])

    def test_trailing_garbage(self):
        blob = mps.model_to_bytes(self._model())
        with pytest.raises(ParseError):
            mps.model_from_bytes(blob + b"\x00" * 8)

    def test_bad_boundary_flag(self):
        blob = bytearray(mps.model_to_bytes(self._model()))
        blob[len(b"BMPS1") + 40] = 7
        with pytest.raises(ParseError, match="boundary"):
            mps.model_from_bytes(bytes(blob))

    def test_invalid_header_fields(self):
        import struct as _struct

        model = self._model()
        blob = bytearray(mps.model_to_bytes(model))
        # corrupt label_site to n_sites + 3
        _struct.pack_into("<q", blob, 5 + 32, model.shape.n_sites + 3)
        with pytest.raises(ParseError):
            mps.model_from_bytes(bytes(blob))
