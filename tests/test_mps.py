"""Chain contraction, gradients, and the binary model container."""

import dataclasses
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmps import initializer, laplace, mps, trainer
from bmps.errors import DataError, NumericError, ParseError, ShapeError, TrainingDiverged

import oracles
from peaks import traced_peak


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / denom


def jacobian(model, vecs):
    """Flat (n_labels, param_count) logit Jacobian of one embedded row."""
    return mps.jacobian_from_env(mps.sweep_env(model, vecs[None]))[0]


def per_node(shape, jac):
    """The columns of a flat Jacobian, split by node and shaped
    ``(n_labels,) + node_shape(i)``."""
    sizes = [int(np.prod(shape.node_shape(i))) for i in range(shape.n_sites)]
    blocks = np.split(jac, np.cumsum(sizes)[:-1], axis=-1)
    return [b.reshape((-1,) + shape.node_shape(i)) for i, b in enumerate(blocks)]


def broadcast_jacobian(model, phi):
    """The Jacobian assembled site by site as one broadcast multiply of
    each site's environments with its ``phi``, and the label block as
    ``closure * phi`` on its class diagonal."""
    sh = model.shape
    B, L, k = len(phi), sh.n_labels, sh.label_site
    env = mps._sweep(model, phi, keep=True, group=1)
    node = np.append(model.params, 0.0)[mps._layout(sh).label]
    stack = np.matmul(phi[:, k, None], node.reshape(sh.phys_dim, -1))
    stack = stack.reshape((B, L) + node.shape[2:])
    passes = mps._environments(env, stack)
    envs = [e.copy() for _, block in passes for e in block]  # blocks reuse buffers
    blocks = {}
    for i, e in zip(mps._ring(sh), envs):
        left, right = sh.bond_dims(i)
        e = e.swapaxes(2, 3)[:, :, :left, None, :right]
        blocks[i] = np.multiply(e, phi[:, i, None, None, :, None])
    left, right = sh.bond_dims(k)
    label = np.zeros((B, L) + sh.node_shape(k))
    diag = np.einsum("bar,bs->basr", env.closure[:, :left, :right], phi[:, k])
    for l in range(L):
        label[:, l, :, :, l] = diag
    blocks[k] = label
    return np.concatenate([blocks[i].reshape(B, L, -1) for i in range(sh.n_sites)], 2)


class TestFeatureMap:
    def test_values(self):
        want = [[0.3, 0.7], [0.0, 1.0], [1.0, 0.0]]
        np.testing.assert_allclose(mps.embed([[0.3, 0.0, 1.0]])[0], want, atol=0)

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, 17.0, np.nan])
    def test_domain(self, bad):
        with pytest.raises(DataError, match=str(bad)):
            mps.embed([[0.5, bad]])

    def test_embed_components_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=25)
        phi = mps.embed(x[None])
        assert phi.shape == (1, 25, 2)
        vecs = phi[0]
        np.testing.assert_allclose(vecs.sum(axis=1), 1.0, atol=1e-15)
        assert vecs.min() >= 0.0 and vecs.max() <= 1.0

    def test_embed_length_check(self):
        # a row of the wrong length is caught where it enters the engine
        model = oracles.random_model(np.random.default_rng(0), mps.MpsShape(3, 2, 2, 1))
        with pytest.raises(ShapeError):
            mps.forward_batch(model, mps.embed([[0.1, 0.2]]))

    def test_embed_range_check(self):
        with pytest.raises(DataError):
            mps.embed([[0.1, 1.7]])

    def test_embed_takes_rows(self):
        with pytest.raises(ShapeError, match="2-D"):
            mps.embed([0.1, 0.2])


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
            got = mps.forward_batch(model, vecs[None])[0]
            want = oracles.oracle_contract(model, vecs)
            assert rel_err(got, want) <= 1e-10

    def test_single_site_cyclic_is_traced_label_node(self):
        # n=1: logits[l] = sum_{a,s} node[a, s, l, a] * vec[s]
        sh = mps.MpsShape(1, 2, 3, 2, label_site=0, boundary="cyclic")
        rng = np.random.default_rng(1)
        model = oracles.random_model(rng, sh)
        vecs = rng.uniform(0, 1, size=(1, 2))
        want = np.einsum("asla,s->l", model.nodes[0], vecs[0])
        got = mps.forward_batch(model, vecs[None])[0]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        sh = mps.MpsShape(5, 2, 3, 4, boundary="open")
        model = oracles.random_model(rng, sh)
        phi = mps.embed(rng.uniform(0, 1, size=(9, 5)))
        batch = mps.forward_batch(model, phi)
        for b in range(9):
            single = mps.forward_batch(model, phi[b : b + 1])[0]
            assert np.array_equal(batch[b], single)

    def test_empty_batch(self):
        sh = mps.MpsShape(3, 2, 2, 2)
        model = oracles.random_model(np.random.default_rng(0), sh)
        out = mps.forward_batch(model, mps.embed(np.zeros((0, 3))))
        assert out.shape == (0, 2)

    def test_shape_mismatch(self):
        sh = mps.MpsShape(4, 2, 2, 1)
        model = oracles.random_model(np.random.default_rng(0), sh)
        with pytest.raises(ShapeError):
            mps.forward_batch(model, mps.embed(np.full((1, 3), 0.5)))
        with pytest.raises(ShapeError):
            mps.forward_batch(model, mps.embed(np.full((2, 5), 0.5)))

    @pytest.mark.parametrize("run", [mps.forward_batch, mps.sweep_env])
    def test_phi_shape_rejected(self, run):
        sh = mps.MpsShape(4, 3, 2, 2)
        model = oracles.random_model(np.random.default_rng(0), sh)
        assert run(model, np.full((2, 4, 3), 0.5)) is not None
        bad = {
            "ndim": np.full((4, 3), 0.5),
            "n_sites": np.full((2, 5, 3), 0.5),
            "phys_dim": np.full((2, 4, 2), 0.5),
        }
        for phi in bad.values():
            with pytest.raises(ShapeError, match=r"\(batch, 4, 3\)"):
                run(model, phi)

    def test_feature_range_rejected(self):
        sh = mps.MpsShape(3, 2, 2, 1)
        model = oracles.random_model(np.random.default_rng(0), sh)
        with pytest.raises(DataError):
            mps.forward_batch(model, mps.embed(np.full((2, 3), 1.5)))
        with pytest.raises(DataError):
            mps.forward_batch(model, mps.embed(np.array([[0.5, np.nan, 0.5]])))

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(-3, 3), site=st.integers(0, 3))
    def test_multilinearity_in_each_node(self, c, site):
        rng = np.random.default_rng(5)
        sh = mps.MpsShape(4, 2, 3, 2, boundary="cyclic")
        model = oracles.random_model(rng, sh)
        phi = oracles.random_vectors(rng, sh, 0.0, 1.0)[None]
        base = mps.forward_batch(model, phi)[0]
        scaled = model.copy()
        scaled.nodes[site][...] *= c
        np.testing.assert_allclose(
            mps.forward_batch(scaled, phi)[0], c * base, rtol=1e-12, atol=1e-12
        )

    def test_overflow_reports_site(self, monkeypatch):
        sh = mps.MpsShape(30, 2, 2, 1, boundary="cyclic")
        nodes = [np.full(sh.node_shape(i), 1.0e4) for i in range(30)]
        model = mps.MpsModel(sh, nodes)
        phi = mps.embed(np.full((1, 30), 0.5))
        with pytest.raises(NumericError, match="site"):
            mps.forward_batch(model, phi)
        # a larger cap lets the same contraction through
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e300)
        out = mps.forward_batch(model, phi)
        assert np.all(np.isfinite(out))

    def test_nonfinite_intermediate_raises(self, monkeypatch):
        sh = mps.MpsShape(4, 2, 2, 1, boundary="cyclic")
        nodes = [np.full(sh.node_shape(i), 1.0e200) for i in range(4)]
        model = mps.MpsModel(sh, nodes)
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            mps.forward_batch(model, mps.embed(np.full((1, 4), 0.5)))


def swept(run, model, X):
    """Run one engine pass by name on feature rows, for the magnitude-check
    tests, which set the cap by monkeypatching ``mps.MAGNITUDE_CAP``."""
    if run == "forward_batch":
        return mps.forward_batch(model, mps.embed(X))
    env = mps.sweep_env(model, mps.embed(X))
    if run == "weighted_grad_from_env":
        return mps.weighted_grad_from_env(env, np.ones(env.logits.shape))
    if run == "jacobian_from_env":
        return mps.jacobian_from_env(env)
    return env


def traced_sweeps(monkeypatch):
    """The ``(keep, group)`` of every ``mps._sweep`` call from now on."""
    calls = []
    sweep = mps._sweep

    def traced(model, phi, keep, reuse=None, group=None):
        calls.append((keep, group))
        return sweep(model, phi, keep, reuse, group)

    monkeypatch.setattr(mps, "_sweep", traced)
    return calls


class TestMagnitudeChecks:
    """Every product the engine forms is checked, not only the logits, and a
    failure names the site of the first offending product.

    A 9-site chain labelled at site 4 has the ring 5 6 7 8 0 1 2 3: the sweep
    forms its partial products from site 3 backwards, the environment pass
    its running products from site 5 on.
    """

    STREAMED_AND_STACKED = ["forward_batch", "sweep_env"]
    GRADIENT_PASSES = ["weighted_grad_from_env", "jacobian_from_env"]

    @pytest.mark.parametrize("run", STREAMED_AND_STACKED)
    def test_single_negative_inf_names_its_site(self, monkeypatch, run):
        # diag(1e200, 1) @ diag(-1e200, 1) holds one non-finite entry, -inf,
        # which a scan of maxima alone would miss
        eye = np.eye(2)
        mats = [eye, eye, np.diag([1e200, 1.0]), np.diag([-1e200, 1.0]), eye, eye]
        model = oracles.transfer_chain(mats, label_site=0)
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="at site 2$"):
                swept(run, model, np.ones((1, 6)))

    @pytest.mark.parametrize("run", STREAMED_AND_STACKED)
    def test_single_nan_names_its_site(self, run):
        # bond 1: each product is one number. Node 2 is given a NaN after
        # construction, as an optimizer step writes one into the iterate.
        model = oracles.transfer_chain([[[1.0]]] * 6, label_site=0)
        model.nodes[2][...] = [[[np.nan], [0.0]]]
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="at site 2$"):
                swept(run, model, np.ones((1, 6)))

    @pytest.mark.parametrize("run", GRADIENT_PASSES)
    def test_negative_inf_in_gradient_pass_names_its_site(self, monkeypatch, run):
        # the sweep's products from the right underflow to 0, but the running
        # product label @ M1 @ M2 reaches -inf at site 2
        eye = np.eye(2)
        mats = [eye, np.diag([1e200, 1.0]), np.diag([-1e200, 1.0]),
                np.diag([1e-200, 1.0]), np.diag([1e-200, 1.0]), eye]
        model = oracles.transfer_chain(mats, label_site=0)
        X = np.ones((2, 6))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        assert np.all(np.isfinite(swept("sweep_env", model, X).logits))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="at site 2$"):
                swept(run, model, X)

    @staticmethod
    def excursion_chain(scales):
        """Site ``i`` scales one bond direction by ``scales[i]``; the scales
        multiply to 1, so the logits stay near 1 however large the partial
        products get on the way."""
        mats = [np.eye(2)] * 9
        for i, c in scales.items():
            mats[i] = np.diag([c, 1.0])
        return oracles.transfer_chain(mats, label_site=4)

    def test_sweep_scans_every_partial_product(self, monkeypatch):
        # the sweep meets site 1 (1e60) before site 7 (1e-60)
        model = self.excursion_chain({1: 1e60, 7: 1e-60})
        X = np.ones((3, 9))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e70)
        assert np.all(np.abs(swept("forward_batch", model, X)) < 10)
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        for run in self.STREAMED_AND_STACKED:
            with pytest.raises(NumericError, match="at site 1$"):
                swept(run, model, X)
        config = trainer.TrainConfig(epochs=1)
        data = SimpleNamespace(train_x=X, train_y=np.eye(2)[[0, 1, 0]])
        with pytest.raises(TrainingDiverged, match="at site 1$") as exc_info:
            trainer.train_map(model, data, config)
        assert exc_info.value.epoch == 0

    def test_gradient_pass_scans_every_running_product(self, monkeypatch):
        # The environment pass meets sites 6 and 7 (1e40 each) before sites
        # 1 and 2 (1e-40 each), so its running products reach 1e80 at site 7;
        # every environment leaves one site out and stays within 1e40, and
        # the sweep's partial products within 1.
        model = self.excursion_chain({6: 1e40, 7: 1e40, 1: 1e-40, 2: 1e-40})
        X = np.ones((3, 9))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        assert np.all(np.abs(swept("forward_batch", model, X)) < 10)
        assert np.all(np.abs(swept("sweep_env", model, X).logits) < 10)
        for run in self.GRADIENT_PASSES:
            with pytest.raises(NumericError, match="at site 7$"):
                swept(run, model, X)
        config = trainer.TrainConfig(epochs=1)
        data = SimpleNamespace(train_x=X, train_y=np.eye(2)[[0, 1, 0]])
        with pytest.raises(TrainingDiverged, match="at site 7$") as exc_info:
            trainer.train_map(model, data, config)
        assert (exc_info.value.epoch, exc_info.value.batch) == (1, 0)


    def test_environments_over_a_grouped_sweep_yield_none_where_a_scan_fails(
        self, monkeypatch
    ):
        # The chain of the test above, in blocks of one unit: ring 5 6 7 |
        # 8 0 1 | 2 | 3 as groups, ring 5 | 6 | .. | 3 as sites. The running
        # product through the first group (or through site 7) is 1e80.
        model = self.excursion_chain({6: 1e40, 7: 1e40, 1: 1e-40, 2: 1e-40})
        phi = mps.embed(np.ones((3, 9)))
        label = np.tile(np.eye(2), (3, 1, 1, 1))  # the label site's matrix
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        monkeypatch.setattr(mps, "_BLOCK_BYTES", label.nbytes)
        grouped = mps.sweep_env(model, phi)
        blocks = [(j0, envs is None) for j0, envs in mps._environments(grouped, label)]
        assert blocks == [(0, False), (1, True)]
        one_site = mps._sweep(model, phi, keep=True, group=1)
        with pytest.raises(NumericError, match="at site 7$"):
            list(mps._environments(one_site, label))
        # the gradient pass then runs once more over one such one-site sweep
        calls = traced_sweeps(monkeypatch)
        with pytest.raises(NumericError, match="at site 7$"):
            mps.weighted_grad_from_env(grouped, np.ones((3, 1)))
        assert calls == [(True, 1)]

    # Ring 5 6 7 | 8 0 1 | 2 | 3 under a cap of 1e50: the first product
    # above it, in formation order, and the text that names its site
    RERUNS = {
        "leftover site": (
            {3: 3.7e30, 2: 1.9e31, 5: 1e-60},
            "contraction magnitude 7.030e+61 exceeded cap 1.000e+50 at site 2",
        ),
        "inside a group": (
            {1: 2.3e30, 0: 7.1e31, 8: 1e-3, 6: 1e-60},
            "contraction magnitude 1.633e+62 exceeded cap 1.000e+50 at site 0",
        ),
    }

    @pytest.mark.parametrize("keep", [False, True], ids=["streamed", "stacked"])
    @pytest.mark.parametrize("chain", ["zero-weighted merged slice", *RERUNS])
    def test_a_failed_grouped_sweep_reruns_as_a_one_site_sweep(
        self, monkeypatch, keep, chain
    ):
        if chain in self.RERUNS:
            scales, text = self.RERUNS[chain]
            model = self.excursion_chain(scales)
            monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        else:  # as in TestGroupedForward: ring 1 2 3 | 4 5 6
            n, eye = 2 * mps._GROUP + 1, np.eye(2)
            model = oracles.transfer_chain([eye] * n, label_site=0)
            for i in (mps._GROUP - 1, mps._GROUP):
                model.nodes[i][:, 1] = 1e200 * eye
            text = None
        phi = mps.embed(np.ones((3, model.shape.n_sites)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if text is None:
                one_site = mps._sweep(model, phi, keep, group=1)
                assert np.array_equal(
                    mps.forward_batch(model, phi), mps.sweep_env(model, phi).logits
                )
                calls = traced_sweeps(monkeypatch)
                env = mps._sweep(model, phi, keep)
                assert env.group == 1
                assert np.array_equal(env.logits, one_site.logits)
                assert np.array_equal(env.logits, np.full((3, 1), 2.0))
            else:
                calls = traced_sweeps(monkeypatch)
                with pytest.raises(NumericError) as info:
                    mps._sweep(model, phi, keep)
                assert str(info.value) == text
        assert calls == [(keep, None), (keep, 1)]

    def test_a_rerun_names_the_excursion_the_jacobian_names(self, monkeypatch):
        # The group 8 0 1 passes (site 0's 1e60 is undone by site 8), and
        # the group 5 6 7 fails at site 7; the one-site rerun meets site 0
        # first, as the Jacobian's one-site sweep does.
        model = self.excursion_chain({0: 1e60, 8: 1e-60, 7: 1e60})
        phi = mps.embed(np.ones((2, 9)))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        for run in (mps.forward_batch, mps.sweep_env):
            with pytest.raises(NumericError, match="at site 0$"):
                run(model, phi)
        with pytest.raises(NumericError, match="at site 0$"):
            next(mps.jacobian_blocks(model, phi))

    def test_gradient_pass_scans_every_environment(self, monkeypatch):
        # Site 0 (1e-70) sits between sites 6 and 2 (1e35 each): no partial
        # or running product leaves [1e-35, 1e35], but site 0's environment,
        # everything else, is 1e70.
        model = self.excursion_chain({6: 1e35, 0: 1e-70, 2: 1e35})
        X = np.ones((3, 9))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        assert np.all(np.abs(swept("sweep_env", model, X).logits) < 10)
        for run in self.GRADIENT_PASSES:
            with pytest.raises(NumericError, match="at site 0$"):
                swept(run, model, X)

    def test_a_non_finite_gradient_of_the_rerun_names_its_site(self, monkeypatch):
        # Under an infinite cap, site 0 at 1e-300 and site 2 at 1.7e308 keep
        # every product finite and the logits near 1e7, but site 0's
        # gradient, the product of the others, overflows: the grouped pass
        # and its one-site rerun both end with an infinite gradient there.
        shape = mps.MpsShape(9, 2, 2, 3, label_site=4)
        nodes = list(oracles.random_model(np.random.default_rng(0), shape).nodes)
        nodes[0] = nodes[0] * 1e-300
        nodes[2] = nodes[2] * (1.7e308 / np.abs(nodes[2]).max())
        model = mps.MpsModel(shape, nodes)
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        X = np.ones((2, 9))
        env = swept("sweep_env", model, X)
        assert np.all(np.isfinite(env.logits)) and np.abs(env.logits).max() > 1e6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite gradient at site 0$"):
                swept("weighted_grad_from_env", model, X)
        # the label node's gradient alone: a closure of 1.2e308 a row,
        # summed over two rows, against a label node of 1e-300
        mats = [np.diag([1.2e308**0.25, 1.0])] * 5
        mats[2] = np.eye(2) * 1e-300
        model = oracles.transfer_chain(mats, label_site=2)
        assert np.all(np.isfinite(swept("sweep_env", model, np.ones((2, 5))).logits))
        with pytest.raises(NumericError, match="non-finite gradient at site 2$"):
            swept("weighted_grad_from_env", model, np.ones((2, 5)))


def site_loop_logits(model, phi):
    """Per-site reference logits (see ``oracles.site_loop``)."""
    return oracles.site_loop(model, phi, np.zeros((len(phi), model.shape.n_labels)))[0]


def norm_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestGroupedForward:
    """The forward stream merges groups of ``mps._GROUP`` ring sites into
    one node tensor; the ring sites that fill no group stream one at a time.
    The stacked sweep forms the same products in the same order, so its
    logits are the stream's bit for bit; ``oracles.site_loop`` is the
    per-site reference."""

    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("phys", [2, 3])
    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_matches_the_stacked_sweep(self, boundary, phys, n_labels):
        rng = np.random.default_rng(phys * 10 + n_labels)
        # rings of 1 to 9 sites: below one group, on a multiple, off one
        for n in range(2, 11):
            for k in sorted({0, n // 2, n - 1}):
                sh = mps.MpsShape(n, phys, 3, n_labels, label_site=k, boundary=boundary)
                model = oracles.random_model(rng, sh)
                phi = rng.uniform(0, 1, size=(5, n, phys))
                got = mps.forward_batch(model, phi)
                assert np.array_equal(got, mps.sweep_env(model, phi).logits)
                assert norm_err(got, site_loop_logits(model, phi)) <= 1e-12

    def test_matches_the_stacked_sweep_at_digit_scale(self):
        rng = np.random.default_rng(3)
        sh = mps.MpsShape(196, 2, 8, 10)
        spec = initializer.InitSpec(var_x=0.461, seed=3)
        model = initializer.init_model(sh, spec)
        # digit-shaped rows: mostly blank, a few strokes
        X = np.where(rng.uniform(size=(40, 196)) < 0.7, 0.0, rng.uniform(size=(40, 196)))
        phi = mps.embed(X)
        got = mps.forward_batch(model, phi)
        assert np.array_equal(got, mps.sweep_env(model, phi).logits)
        want = site_loop_logits(model, phi)
        assert np.all(want != 0)
        assert norm_err(got, want) <= 1e-12

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(9)
        n = 2 * mps._GROUP + 2  # a ring of two groups and a leftover site
        sh = mps.MpsShape(n, 2, 4, 3, boundary="cyclic")
        model = oracles.random_model(rng, sh)
        for size in (1, 2, 7):
            phi = mps.embed(rng.uniform(0, 1, size=(size, n)))
            batch = mps.forward_batch(model, phi)
            for b in range(size):
                single = mps.forward_batch(model, phi[b : b + 1])[0]
                assert np.array_equal(batch[b], single)

    @pytest.mark.parametrize("K", [2, 8, 20])
    def test_one_row_runs_as_a_gemm_row(self, K):
        # numpy sends a one-row product to gemv, whose bits differ from a
        # gemm row's; _rows_by gives a row the same bits alone as in a batch,
        # with the batch fastest (as psi) or each row contiguous (as phi)
        rng = np.random.default_rng(K)
        node = rng.standard_normal((K, 64))
        for rows in (rng.standard_normal((K, 40)).T, rng.standard_normal((40, K))):
            batch = mps._rows_by(rows, node)
            for b in (0, 17, 39):
                assert np.array_equal(mps._rows_by(rows[b : b + 1], node), batch[b : b + 1])
                out = np.full((1, 64), np.nan)
                assert mps._rows_by(rows[b : b + 1], node, out=out) is out
                assert np.array_equal(out, batch[b : b + 1])
        assert mps._rows_by(np.zeros((0, K)), node).shape == (0, 64)

    def test_overflowing_merged_slice_weighted_zero_is_recomputed(self):
        # Slice 1 of sites 2 and 3 (one group) is 1e200 I, so their merged
        # slice (1, 1) overflows to inf; a row of ones weights slice 1 by 0,
        # and 0 * inf is NaN in the group's product only. The sweep runs
        # again in one-site groups, which give the exact identity product.
        n, eye = 2 * mps._GROUP + 1, np.eye(2)
        model = oracles.transfer_chain([eye] * n, label_site=0)
        for i in (mps._GROUP - 1, mps._GROUP):
            model.nodes[i][:, 1] = 1e200 * eye
        X = np.ones((2, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = swept("forward_batch", model, X)
        assert np.array_equal(got, swept("sweep_env", model, X).logits)
        assert np.array_equal(got, np.full((2, 1), 2.0))

    def test_excursion_inside_a_group_is_not_checked(self, monkeypatch):
        # Ring positions 0 .. _GROUP-1 (sites 1 .. _GROUP) form one group.
        # Going from the right, site _GROUP (1e60) comes before site
        # _GROUP-1 (1e-60): the partial product between them exceeds the
        # cap, but the group's product does not, and neither the sweeps nor
        # the gradient pass form it. The Jacobian, which needs every site's
        # partial product, names the site.
        g = mps._GROUP
        mats = [np.eye(2)] * (2 * g + 1)
        mats[g], mats[g - 1] = np.diag([1e60, 1.0]), np.diag([1e-60, 1.0])
        model = oracles.transfer_chain(mats, label_site=0)
        X = np.ones((3, 2 * g + 1))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        assert np.all(np.abs(swept("forward_batch", model, X)) < 10)
        assert np.all(np.abs(swept("sweep_env", model, X).logits) < 10)
        assert np.all(np.isfinite(swept("weighted_grad_from_env", model, X)))
        with pytest.raises(NumericError, match=f"at site {g}$"):
            swept("jacobian_from_env", model, X)
        # steps too small to move the excursion out of the group
        config = trainer.TrainConfig(epochs=1, learning_rate=1e-70)
        data = SimpleNamespace(train_x=X, train_y=np.eye(2)[[0, 1, 0]])
        _, history = trainer.train_map(model, data, config)
        assert len(history.records) == 1


class TestBatchIndependenceAtDigitScale:
    """Each product of a batch against a tensor every row shares is one GEMM
    with the batch as its rows, a one-row batch run as two rows, and the
    rest are per-row products; so at the digit scale (196 sites, bond 8,
    10 classes) a row's results are bit-identical in 1-, 2-, 17- and 63-row
    batches and in offset slices of a 400-row batch, and the forward's in a
    whole chunk (:data:`mps.CHUNK_ROWS` rows, whose GEMMs may take more
    than one BLAS thread)."""

    SIZES = (1, 2, 17, 63)
    # (start, size) within a 63-row batch, one Laplace chunk at this scale
    PARTS = ((0, 1), (5, 2), (40, 17), (62, 1))

    @pytest.fixture(scope="class")
    def digits(self):
        rng = np.random.default_rng(25)
        sh = mps.MpsShape(196, 2, 8, 10)
        model = initializer.init_model(sh, initializer.InitSpec(var_x=0.461, seed=25))
        size = (mps.CHUNK_ROWS, 196)
        X = np.where(rng.uniform(size=size) < 0.7, 0.0, rng.uniform(size=size))
        return model, X

    def batches(self):  # (start, size): at the front, inside and at the end
        return [(a, n) for n in self.SIZES for a in (0, 150, 400 - n)]

    def test_forward_and_sweep(self, digits):
        model, X = digits
        phi = mps.embed(X[:400])
        logits = mps.forward_batch(model, phi)
        env = mps.sweep_env(model, phi)
        assert np.array_equal(env.logits, logits)
        assert np.array_equal(mps.forward_batch(model, mps.embed(X))[:400], logits)
        # each group's weights are laid out batch fastest, which BLAS reads
        # as its transposed operand, so the GEMMs copy nothing
        assert env.psi.shape == (65, 400, 8) and env.psi.strides[1:] == (8, 8 * 400)
        for a, n in self.batches():
            for part in (phi[a : a + n], phi[a : a + n].copy()):
                assert np.array_equal(mps.forward_batch(model, part), logits[a : a + n])
                got = mps.sweep_env(model, part)
                assert np.array_equal(got.mats, env.mats[:, a : a + n])
                assert np.array_equal(got.tails, env.tails[:, a : a + n])
                assert np.array_equal(got.logits, logits[a : a + n])

    def test_jacobian_blocks(self, digits):
        model, X = digits
        phi = mps.embed(X[150:213])
        P = model.shape.param_count
        outs = []
        for a, n in self.PARTS:
            outs.append(np.empty((n, 10, P)))
            for _ in mps.jacobian_blocks(model, phi[a : a + n], out=outs[-1]):
                pass
        for c0, c1, J in mps.jacobian_blocks(model, phi):
            for (a, n), out in zip(self.PARTS, outs):
                assert np.array_equal(out[:, :, c0:c1], J[a : a + n])

    def test_ggn_factors(self, digits):
        model, X = digits
        rows = laplace.ggn_factors(model, X[150:213]).factors.reshape(63, 10, -1)
        for a, n in self.PARTS:
            got = laplace.ggn_factors(model, X[150 + a : 150 + a + n]).factors
            assert np.array_equal(got.reshape(n, 10, -1), rows[a : a + n])


class TestLabelReadOff:
    """Both sweeps read the logits off the label node: each row's flattened
    closure against the node viewed as (phys * n_labels, bond^2), then the
    phys-weighted sum, with no (batch, n_labels, bond, bond) class stack."""

    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("label_site", ["first", "last"])
    def test_matches_the_exhaustive_oracle(self, boundary, label_site):
        rng = np.random.default_rng(11)
        for n in (2, 4, 5):
            k = 0 if label_site == "first" else n - 1
            sh = mps.MpsShape(n, 3, 2, 3, label_site=k, boundary=boundary)
            model = oracles.random_model(rng, sh)
            phi = rng.uniform(0, 1, size=(4, n, 3))
            want = np.array([oracles.oracle_contract(model, row) for row in phi])
            got = mps.forward_batch(model, phi)
            assert norm_err(got, want) <= 1e-12
            assert np.array_equal(got, mps.sweep_env(model, phi).logits)

    @pytest.mark.parametrize("run", ["forward_batch", "sweep_env"])
    def test_overflowing_read_off_names_the_label_site(self, monkeypatch, run):
        # Every slice of every node is the identity but the label node's
        # slice 0, 1e60 I. Rows of zeros (phi = [0, 1]) weight that slice by
        # 0: the ring's products and the closure stay at I, the logits at 2,
        # and only the read-off product of slice 0 exceeds the cap.
        eye = np.eye(2)
        model = oracles.transfer_chain([eye] * 5, label_site=3)
        for node in model.nodes:
            node[:, 1] = node[:, 0]
        model.nodes[3][:, 0] *= 1e60
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        with pytest.raises(NumericError, match="at site 3$"):
            swept(run, model, np.zeros((2, 5)))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e70)
        assert np.array_equal(swept("forward_batch", model, np.zeros((2, 5))), [[2.0]] * 2)
        # under an infinite cap, a closure of 1e200 against a label slice of
        # 1e200 overflows to inf, while every ring product stays at 1e200
        model.nodes[3][:, 0] *= 1e140
        model.nodes[0][...] *= 1e200
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="at site 3$"):
            swept(run, model, np.ones((2, 5)))

    def test_logits_above_the_cap_name_the_label_site(self, monkeypatch):
        # each read-off entry is 0.6 * cap, but a row weighting both
        # physical slices by 1 sums them to 1.2 * cap
        eye = np.eye(2)
        model = oracles.transfer_chain([eye] * 4, label_site=1)
        model.nodes[1][:, 1] = model.nodes[1][:, 0]
        model.nodes[1][...] *= 0.3e50
        phi = np.ones((1, 4, 2))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        for run in (mps.forward_batch, mps.sweep_env):
            with pytest.raises(NumericError, match="at site 1$"):
                run(model, phi)
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 2e50)
        np.testing.assert_allclose(mps.forward_batch(model, phi), [[1.2e50]], rtol=1e-15)

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(13)
        sh = mps.MpsShape(2 * mps._GROUP + 3, 2, 4, 5, label_site=2)
        model = oracles.random_model(rng, sh)
        phi = mps.embed(rng.uniform(0, 1, size=(512, sh.n_sites)))
        batch = mps.forward_batch(model, phi)
        assert np.array_equal(batch, mps.sweep_env(model, phi).logits)
        for b in range(512):
            assert np.array_equal(mps.forward_batch(model, phi[b : b + 1])[0], batch[b])

    def test_forward_forms_no_class_stack(self):
        # A 512-row digit-scale chunk (196 sites, bond 8, 10 classes) peaks
        # below its per-row measure, 5.3 MB. One (512, 10, 8, 8) class stack
        # on top of what it holds would not fit under that bound; a class
        # stack and its product with the closure took 5.2 MB.
        sh = mps.MpsShape(196, 2, 8, 10)
        model = initializer.init_model(sh, initializer.InitSpec(var_x=0.461, seed=3))
        rng = np.random.default_rng(3)
        X = np.where(rng.uniform(size=(512, 196)) < 0.7, 0.0, rng.uniform(size=(512, 196)))
        phi = mps.embed(X)
        bound = 512 * mps.forward_row_bytes(sh)
        stack = 512 * sh.n_labels * sh.bond_dim**2 * 8
        peak, logits = traced_peak(lambda: mps.forward_batch(model, phi))
        assert logits.shape == (512, 10)
        assert peak <= bound < peak + stack
        assert "label" not in {f.name for f in dataclasses.fields(mps.BatchEnv)}


class TestGroupedTrainingStep:
    """The stacked sweep and the class-free gradient pass run over the same
    groups as the forward stream and take each group's gradient back to its
    nodes once per batch; ``oracles.site_loop`` is their per-site
    reference."""

    @staticmethod
    def check(model, phi, coeff):
        env = mps.sweep_env(model, phi)
        grad = mps.weighted_grad_from_env(env, coeff, out=np.empty(model.shape.param_count))
        logits, want = oracles.site_loop(model, phi, coeff)
        assert norm_err(env.logits, logits) <= 1e-12
        assert norm_err(grad, want) <= 1e-12
        return env, grad

    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("phys", [2, 3])
    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_matches_the_per_site_loop(self, boundary, phys, n_labels):
        rng = np.random.default_rng(phys * 10 + n_labels + 100)
        # rings of 1 to 9 sites: below one group, on a multiple, off one
        for n in range(2, 11):
            for k in sorted({0, n // 2, n - 1}):
                sh = mps.MpsShape(n, phys, 3, n_labels, label_site=k, boundary=boundary)
                model = oracles.random_model(rng, sh)
                phi = rng.uniform(0, 1, size=(5, n, phys))
                self.check(model, phi, rng.normal(size=(5, n_labels)))

    def test_matches_the_per_site_loop_at_digit_scale(self):
        rng = np.random.default_rng(4)
        sh = mps.MpsShape(196, 2, 8, 10)
        model = initializer.init_model(sh, initializer.InitSpec(var_x=0.461, seed=4))
        X = np.where(rng.uniform(size=(12, 196)) < 0.7, 0.0, rng.uniform(size=(12, 196)))
        self.check(model, mps.embed(X), rng.normal(size=(12, 10)))

    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_other_group_sizes_match_the_per_site_loop(self, monkeypatch, group):
        monkeypatch.setattr(mps, "_GROUP", group)
        rng = np.random.default_rng(group)
        for n, k in ((2, 1), (7, 3), (10, 0), (11, 10)):
            sh = mps.MpsShape(n, 2, 3, 3, label_site=k, boundary="open")
            model = oracles.random_model(rng, sh)
            phi = rng.uniform(0, 1, size=(4, n, 2))
            self.check(model, phi, rng.normal(size=(4, 3)))

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(10)
        n = 2 * mps._GROUP + 2  # a ring of two groups and a leftover site
        sh = mps.MpsShape(n, 2, 4, 3, boundary="cyclic")
        model = oracles.random_model(rng, sh)
        for size in (1, 2, 7):
            phi = mps.embed(rng.uniform(0, 1, size=(size, n)))
            coeff = rng.normal(size=(size, 3))
            env, _ = self.check(model, phi, coeff)
            for b in range(size):
                single = mps.sweep_env(model, phi[b : b + 1]).logits[0]
                assert np.array_equal(env.logits[b], single)

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_jacobian_rows_do_not_depend_on_their_batch(self, n_labels):
        rng = np.random.default_rng(20 + n_labels)
        n = 2 * mps._GROUP + 2  # a ring of two groups and a leftover site
        sh = mps.MpsShape(n, 2, 4, n_labels, boundary="cyclic")
        model = oracles.random_model(rng, sh)
        for size in (1, 2, 7):
            phi = mps.embed(rng.uniform(0, 1, size=(size, n)))
            jac = mps.jacobian_from_env(mps.sweep_env(model, phi))
            for b in range(size):
                single = mps.jacobian_from_env(mps.sweep_env(model, phi[b : b + 1]))
                assert np.array_equal(jac[b], single[0])

    @pytest.mark.parametrize("label_site", [0, 4, 8])
    def test_blocks_of_groups_and_leftover_sites_are_invisible(self, monkeypatch, label_site):
        # a ring of two groups and two leftover sites, in blocks of 1 to 3
        # units (the default holds them all)
        rng = np.random.default_rng(50 + label_site)
        B, bond = 4, 3
        sh = mps.MpsShape(2 * mps._GROUP + 3, 2, bond, 2, label_site=label_site)
        model = oracles.random_model(rng, sh)
        phi = mps.embed(rng.uniform(0, 1, size=(B, sh.n_sites)))
        coeff = rng.normal(size=(B, 2))
        env, whole = self.check(model, phi, coeff)
        for units in (1, 2, 3):
            monkeypatch.setattr(mps, "_BLOCK_BYTES", units * B * bond * bond * 8)
            got = mps.weighted_grad_from_env(env, coeff, out=np.empty(sh.param_count))
            assert np.array_equal(got, whole)

    def test_running_product_excursion_inside_a_group_is_not_checked(self, monkeypatch):
        # Ring 5 6 7 | 8 0 1 | 2 3. The running products from the label site
        # reach 1e40 at site 5 and 1e60 at site 8, back to 1e40 at site 0, so
        # only a product inside the second group exceeds the cap; every
        # group's running product and environment stays within it.
        model = TestMagnitudeChecks.excursion_chain({5: 1e40, 8: 1e20, 0: 1e-20})
        X = np.ones((3, 9))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", 1e50)
        assert np.all(np.isfinite(swept("weighted_grad_from_env", model, X)))
        with pytest.raises(NumericError, match="at site 8$"):
            swept("jacobian_from_env", model, X)

    def test_overflow_inside_the_back_propagation_names_the_per_site_site(self, monkeypatch):
        # Ring 5 6 7 | 8 0 1 | 2 3. The second group's product is finite, so
        # the sweep and every group's running product pass; the slice
        # product of sites 8 and 0 that its back-propagation forms is -inf,
        # and the per-site pass names the site whose running product is.
        model = TestMagnitudeChecks.excursion_chain({8: 1e200, 0: -1e200, 1: 1e-200, 2: 1e-200})
        X = np.ones((2, 9))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        env = swept("sweep_env", model, X)
        assert np.all(np.isfinite(env.logits))
        with np.errstate(over="ignore", invalid="ignore"):
            for run in ("weighted_grad_from_env", "jacobian_from_env"):
                with pytest.raises(NumericError, match="at site 0$"):
                    swept(run, model, X)

    def test_non_finite_gradient_falls_back_to_the_per_site_pass(self, monkeypatch):
        # Ring 5 6 7 | 8 0 1 | 2 3. Every product of the sweep and of the
        # groups' running products stays finite, but the first group's
        # gradient at site 5, its environment (1e200) times sites 6 and 7
        # (1e100 each), is inf; the per-site pass names site 6, whose
        # partial product is.
        model = TestMagnitudeChecks.excursion_chain({5: 1e-200, 6: 1e100, 7: 1e100, 8: 1e200})
        X = np.ones((2, 9))
        monkeypatch.setattr(mps, "MAGNITUDE_CAP", np.inf)
        env = swept("sweep_env", model, X)
        assert np.all(np.isfinite(env.logits))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="at site 6$"):
                swept("weighted_grad_from_env", model, X)

    def test_overflowing_merged_slice_weighted_zero_gives_the_per_site_step(
        self, monkeypatch
    ):
        # As in the forward stream's test: the first group's merged slice
        # (.., 1, 1) is inf and weighted by 0, so the group's matrix is NaN
        # and the sweep runs again in one-site groups; the gradient pass
        # runs once, over that sweep. Neither warns.
        n, eye = 2 * mps._GROUP + 1, np.eye(2)
        model = oracles.transfer_chain([eye] * n, label_site=0)
        for i in (mps._GROUP - 1, mps._GROUP):
            model.nodes[i][:, 1] = 1e200 * eye
        phi = mps.embed(np.ones((2, n)))
        coeff = np.array([[1.0], [-0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env, _ = self.check(model, phi, coeff)
        assert np.array_equal(env.logits, np.full((2, 1), 2.0))
        # the one-site pass runs the grouped pass's own code: psi is phi and
        # the back-propagation a copy
        assert env.group == 1
        grouped = mps._grouped_grad
        passes = []

        def counted(env, folded, ring_grad):
            passes.append(env.group)
            return grouped(env, folded, ring_grad)

        monkeypatch.setattr(mps, "_grouped_grad", counted)
        mps.weighted_grad_from_env(env, coeff)
        assert passes == [1]


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            shape = oracles.random_shape(rng, max_n=4, max_s=3, max_bond=3)
            model = oracles.random_model(rng, shape, scale=0.6)
            vecs = oracles.random_vectors(rng, shape)
            got = jacobian(model, vecs)
            want = oracles.fd_grad_logits(model, vecs)
            assert rel_err(got, want) <= 1e-6

    def test_matches_naive_recontraction(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            shape = oracles.random_shape(rng)
            model = oracles.random_model(rng, shape)
            vecs = oracles.random_vectors(rng, shape)
            got = per_node(shape, jacobian(model, vecs))
            want = per_node(shape, oracles.naive_grad_logits(model, vecs))
            for gi, wi in zip(got, want):
                assert rel_err(gi, wi) <= 1e-12

    def test_directional_derivative(self):
        rng = np.random.default_rng(17)
        sh = mps.MpsShape(3, 2, 3, 2, boundary="cyclic")
        model = oracles.random_model(rng, sh)
        vecs = oracles.random_vectors(rng, sh, 0.0, 1.0)
        phi = vecs[None]
        grad = per_node(sh, jacobian(model, vecs))
        eps = 1e-7
        for i in range(sh.n_sites):
            delta = rng.normal(size=sh.node_shape(i))
            bumped = model.copy()
            bumped.nodes[i][...] += eps * delta
            lhs = (mps.forward_batch(bumped, phi) - mps.forward_batch(model, phi))[0] / eps
            rhs = np.tensordot(grad[i], delta, axes=delta.ndim)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-7)

    def test_label_node_cross_class_slices_vanish(self):
        rng = np.random.default_rng(19)
        sh = mps.MpsShape(3, 2, 2, 3, label_site=1)
        model = oracles.random_model(rng, sh)
        vecs = oracles.random_vectors(rng, sh)
        g = per_node(sh, jacobian(model, vecs))[1]
        for l in range(3):
            for l2 in range(3):
                if l != l2:
                    assert np.all(g[l, :, :, l2, :] == 0.0)

    def test_flatten_matches_batch_jacobian(self):
        rng = np.random.default_rng(23)
        sh = mps.MpsShape(4, 2, 3, 3, boundary="open")
        model = oracles.random_model(rng, sh)
        phi = mps.embed(rng.uniform(0, 1, size=(5, 4)))
        jac = mps.jacobian_from_env(mps.sweep_env(model, phi))
        for b in range(5):
            single = jacobian(model, phi[b])
            np.testing.assert_allclose(jac[b], single, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("sites", [1, 2])
    @pytest.mark.parametrize("label_site", [0, 3, 6])
    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_jacobian_blocks_are_runs_of_its_columns(
        self, monkeypatch, n_labels, boundary, label_site, sites
    ):
        # a budget of `sites` bond-3 sites' columns (18 each); the ring is
        # label_site + 1 .. 6, 0 .. label_site - 1, then the label site
        rng = np.random.default_rng(27)
        sh = mps.MpsShape(7, 2, 3, n_labels, label_site=label_site, boundary=boundary)
        model = oracles.random_model(rng, sh)
        env = mps.sweep_env(model, mps.embed(rng.uniform(0, 1, size=(4, 7))))
        width = 18 * sites
        monkeypatch.setattr(mps, "_JACOBIAN_BLOCK_BYTES", 4 * n_labels * 8 * width)
        jac = mps.jacobian_from_env(env)
        starts = mps._layout(sh).starts
        blocks = list(mps.jacobian_blocks(model, env.phi))
        order = []
        for c0, c1, J in blocks:
            run = [i for i in range(7) if c0 <= starts[i] < c1]
            assert starts[run[0]] == c0 and starts[run[-1] + 1] == c1
            assert c1 - c0 <= width or len(run) == 1
            order += run
            # one buffer serves every run
            assert np.shares_memory(J, blocks[0][2]) and J.flags.c_contiguous
        assert order == [*mps._ring(sh), label_site]
        for c0, c1, J in mps.jacobian_blocks(model, env.phi):
            assert np.array_equal(J, jac[:, :, c0:c1])

    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_jacobian_is_environment_times_phi(self, monkeypatch, boundary, n_labels):
        # every entry is one product of an environment entry and a phi
        # entry, so the Jacobian equals the broadcast assembly exactly: in
        # runs of one buffer, two sites a run, or written straight into a
        # caller's array, and whatever the batch
        rng = np.random.default_rng(26)
        for phys, label_site in [(2, 0), (2, 2), (2, 5), (3, 0), (3, 5)]:
            sh = mps.MpsShape(6, phys, 3, n_labels, label_site=label_site, boundary=boundary)
            model = oracles.random_model(rng, sh)
            phi = rng.uniform(-1, 1, size=(4, 6, phys))
            want = broadcast_jacobian(model, phi)
            for c0, c1, J in mps.jacobian_blocks(model, phi):
                assert np.array_equal(J, want[:, :, c0:c1])
            out = np.full(want.shape, np.nan)
            for c0, c1, J in mps.jacobian_blocks(model, phi, out=out):
                assert np.shares_memory(J, out) and np.array_equal(J, want[:, :, c0:c1])
            assert np.array_equal(out, want)
            with monkeypatch.context() as m:
                m.setattr(mps, "_JACOBIAN_BLOCK_BYTES", 4 * n_labels * 8 * 2 * phys * 9)
                for c0, c1, J in mps.jacobian_blocks(model, phi):
                    assert np.array_equal(J, want[:, :, c0:c1])
            for b in range(4):
                one = mps.jacobian_from_env(mps.sweep_env(model, phi[b : b + 1]))
                assert np.array_equal(one[0], want[b])

    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_coefficients_combine_the_jacobian_rows(self, boundary, n_labels):
        rng = np.random.default_rng(30)
        sh = mps.MpsShape(7, 2, 3, n_labels, label_site=3, boundary=boundary)
        model = oracles.random_model(rng, sh)
        phi = mps.embed(rng.uniform(0, 1, size=(5, 7)))
        jac = mps.jacobian_from_env(mps.sweep_env(model, phi))
        for rows in (1, 2, 4):
            coeff = rng.normal(size=(5, rows, n_labels))
            want = np.einsum("bcl,blp->bcp", coeff, jac)
            out = np.empty_like(want)
            for c0, c1, J in mps.jacobian_blocks(model, phi, coeff):
                assert J.shape == (5, rows, c1 - c0)
                out[:, :, c0:c1] = J
            assert rel_err(out, want) <= 1e-14
            # the same bits written straight into a caller's array
            into = np.full_like(want, np.nan)
            for *_, J in mps.jacobian_blocks(model, phi, coeff, out=into):
                assert np.shares_memory(J, into)
            assert np.array_equal(into, out)
        wide = np.empty((5, n_labels, sh.param_count + 1))
        with pytest.raises(ShapeError):
            next(mps.jacobian_blocks(model, phi, np.ones((5, 2, n_labels + 1))))
        with pytest.raises(ShapeError):
            next(mps.jacobian_blocks(model, phi, out=wide))

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_jacobian_of_empty_batch(self, n_labels):
        sh = mps.MpsShape(4, 2, 3, n_labels, boundary="open")
        model = oracles.random_model(np.random.default_rng(24), sh)
        jac = mps.jacobian_from_env(mps.sweep_env(model, mps.embed(np.zeros((0, 4)))))
        assert jac.shape == (0, n_labels, sh.param_count)

    def test_weighted_grad_is_coeff_contraction_of_jacobian(self):
        rng = np.random.default_rng(29)
        cases = set()
        for _ in range(40):
            # embedded feature rows have phys_dim 2
            sh = dataclasses.replace(oracles.random_shape(rng, max_n=6), phys_dim=2)
            k, n = sh.label_site, sh.n_sites
            where = "first" if k == 0 else "last" if k == n - 1 else "middle"
            cases.add((sh.boundary, where, sh.n_labels > 1))
            model = oracles.random_model(rng, sh)
            X = rng.uniform(0, 1, size=(6, n))
            coeff = rng.normal(size=(6, sh.n_labels))
            env = mps.sweep_env(model, mps.embed(X))
            flat = mps.weighted_grad_from_env(env, coeff)
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
        phi = mps.embed(rng.uniform(0, 1, size=(4, 24)))
        env = mps.sweep_env(model, phi)
        coeff = rng.normal(size=(4, 3))
        want_grad = 0.0
        for b in range(4):
            naive = oracles.naive_grad_logits(model, phi[b])
            got = per_node(sh, jacobian(model, phi[b]))
            for gi, wi in zip(got, per_node(sh, naive)):
                assert rel_err(gi, wi) <= 1e-12
            # a logit is linear in each node: contract any node with its gradient
            want = np.tensordot(per_node(sh, naive)[5], model.nodes[5], axes=3)
            assert rel_err(env.logits[b], want) <= 1e-12
            want_grad = want_grad + np.einsum("l,lp->p", coeff[b], naive)
        grad = mps.weighted_grad_from_env(env, coeff)
        assert rel_err(grad, want_grad) <= 1e-12

    @pytest.mark.parametrize("boundary", ["open", "cyclic"])
    @pytest.mark.parametrize("label_site", [0, 3, 6])
    def test_block_boundaries_are_invisible(self, monkeypatch, boundary, label_site):
        # The environment pass works in blocks of ring sites sized by
        # mps._BLOCK_BYTES; by default one block holds this whole ring.
        rng = np.random.default_rng(41 + label_site)
        B, bond = 5, 3
        per_site = B * bond * bond * 8  # one class-free site's running products
        default = mps._BLOCK_BYTES
        for n_labels in (1, 3):
            sh = mps.MpsShape(7, 2, bond, n_labels, label_site=label_site, boundary=boundary)
            model = oracles.random_model(rng, sh)
            X = rng.uniform(0, 1, size=(B, 7))
            coeff = rng.normal(size=(B, n_labels))

            def run():
                env = mps.sweep_env(model, mps.embed(X))
                grad = mps.weighted_grad_from_env(env, coeff)
                return [env.logits, grad, mps.jacobian_from_env(env)]

            monkeypatch.setattr(mps, "_BLOCK_BYTES", default)
            assert default >= 6 * n_labels * per_site
            whole = run()
            # 1, 2 or 4 sites a block (4 + 2 for this ring of 6), fewer for
            # the class-wide Jacobian
            for sites in (1, 2, 4):
                monkeypatch.setattr(mps, "_BLOCK_BYTES", sites * per_site)
                for got, want in zip(run(), whole, strict=True):
                    assert np.array_equal(got, want)

    def test_long_open_chain_against_exhaustive_oracle(self):
        rng = np.random.default_rng(37)
        for label_site in (0, 6, 12):
            sh = mps.MpsShape(13, 2, 2, 2, label_site=label_site, boundary="open")
            model = oracles.random_model(rng, sh)
            phi = mps.embed(rng.uniform(0, 1, size=(1, 13)))
            want = oracles.oracle_contract(model, phi[0])
            assert rel_err(mps.forward_batch(model, phi)[0], want) <= 1e-12


class TestChunkPlan:
    def test_budget_bounds_a_784_site_jacobian_chunk(self, monkeypatch):
        # arithmetic only: no contraction runs
        monkeypatch.setattr(mps, "_usable_cores", lambda: 2)
        shape = mps.MpsShape(784, 2, 8, 10)
        row_bytes = mps.jacobian_row_bytes(shape)
        assert row_bytes == 10 * 101_504 * 8
        rows, workers = mps.chunk_plan(2000, row_bytes)
        assert rows == 16 and rows * row_bytes <= mps.CHUNK_BYTES
        assert 1 <= workers <= mps._usable_cores()
        digits = mps.MpsShape(196, 2, 8, 10)
        assert mps.chunk_plan(200, mps.jacobian_row_bytes(digits))[0] == 50
        # the forward pass stays row-capped, so serial, at both scales
        for sh in (shape, digits):
            assert mps.chunk_plan(2000, mps.forward_row_bytes(sh)) == (mps.CHUNK_ROWS, 1)

    def test_workers_never_exceed_chunks(self, monkeypatch):
        monkeypatch.setattr(mps, "_usable_cores", lambda: 8)
        assert mps.chunk_plan(3, mps.CHUNK_BYTES // 2) == (2, 2)
        assert mps.chunk_plan(0, mps.CHUNK_BYTES) == (1, 1)

    def test_pooled_chunks_balance_the_workers(self, monkeypatch):
        # the digit budget's 63 rows: 200 rows as 63/63/63/11 gave one of
        # two workers 126 rows, 400 rows as 6 x 63 + 22 one 211
        monkeypatch.setattr(mps, "_usable_cores", lambda: 2)
        digits = mps.jacobian_row_bytes(mps.MpsShape(196, 2, 8, 10))
        assert mps.CHUNK_BYTES // digits == 63
        assert mps.chunk_plan(200, digits) == (50, 2)
        assert mps.chunk_plan(400, digits) == (50, 2)
        assert mps.chunk_plan(63, digits) == (63, 1)
        wide = mps.jacobian_row_bytes(mps.MpsShape(784, 2, 8, 10))
        assert mps.chunk_plan(2000, wide) == (16, 2)
        # where even chunks leave the busiest worker as many rows, the
        # budget's wider chunks stay: 10 rows as 4, 4, 2 or 3, 3, 3, 1 give
        # two workers 6 and 4 rows either way, and on three workers 3, 3,
        # 3, 1 or five chunks of 2 give the busiest 4
        assert mps.chunk_plan(10, mps.CHUNK_BYTES // 4) == (4, 2)
        monkeypatch.setattr(mps, "_usable_cores", lambda: 3)
        assert mps.chunk_plan(10, mps.CHUNK_BYTES // 3) == (3, 3)
        assert mps.chunk_plan(11, mps.CHUNK_BYTES // 3) == (2, 3)


class TestOneBlasThread:
    """Pooled chunks run single-threaded BLAS, and the count is restored."""

    @staticmethod
    def pooled(monkeypatch):
        """``map_chunks`` over 4 rows runs 2-row chunks on 2 threads."""
        monkeypatch.setattr(mps, "_usable_cores", lambda: 2)
        return lambda fn: mps.map_chunks(fn, 4, mps.CHUNK_BYTES // 2)

    def test_a_pooled_chunk_reads_one_thread_and_the_count_returns(
        self, monkeypatch, blas_at_3
    ):
        seen = self.pooled(monkeypatch)(lambda rows: mps._blas_counts())
        assert seen == [{path: 1 for path in blas_at_3}] * 2
        assert mps._blas_counts() == blas_at_3

    def test_the_count_returns_after_a_chunk_raises(self, monkeypatch, blas_at_3):
        def fn(rows):
            if rows.start:
                raise NumericError("chunk failed")
            return mps._blas_counts()

        with pytest.raises(NumericError, match="chunk failed"):
            self.pooled(monkeypatch)(fn)
        assert mps._blas_counts() == blas_at_3

    def test_a_nested_guard_restores_once(self, blas_at_3):
        ones = {path: 1 for path in blas_at_3}
        with mps._one_blas_thread:
            with mps._one_blas_thread:
                assert mps._blas_counts() == ones
            assert mps._blas_counts() == ones
        assert mps._blas_counts() == blas_at_3

    def test_many_overlapping_guards_restore_once(self, blas_at_3):
        # more threads than cores, switching often: a lost update of the
        # depth would restore a count while another pass is inside, or
        # leave a library at 1
        ones = {path: 1 for path in blas_at_3}
        seen = []

        def passes():
            for _ in range(50):
                with mps._one_blas_thread:
                    seen.append(mps._blas_counts() == ones)

        threads = [threading.Thread(target=passes) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [True] * 400
        assert mps._blas_counts() == blas_at_3

    def test_serial_passes_never_enter_the_guard(self, monkeypatch):
        found = []
        monkeypatch.setattr(mps, "_openblas", lambda: found.append(1) or {})
        monkeypatch.setattr(mps, "_usable_cores", lambda: 2)
        model = oracles.random_model(np.random.default_rng(5), mps.MpsShape(6, 2, 3, 2))
        X = np.random.default_rng(6).uniform(0, 1, size=(40, 6))
        trainer.predict_logits(model, X)  # row-capped: one 40-row chunk
        mps.map_chunks(lambda rows: None, 4, mps.CHUNK_BYTES // 4)  # one chunk
        monkeypatch.setattr(mps, "_usable_cores", lambda: 1)
        mps.map_chunks(lambda rows: None, 4, mps.CHUNK_BYTES // 2)  # one core
        assert found == []
        self.pooled(monkeypatch)(lambda rows: None)
        assert found == [1]


class TestParams:
    def test_flatten_roundtrip(self):
        rng = np.random.default_rng(31)
        sh = mps.MpsShape(4, 3, 2, 2, boundary="open")
        model = oracles.random_model(rng, sh)
        vec = model.params.copy()
        assert vec.size == sh.param_count
        back = mps.model_from_params(sh, vec)
        for a, b in zip(back.nodes, model.nodes):
            assert np.array_equal(a, b)

    def test_params_is_every_node_entry_in_site_order(self):
        rng = np.random.default_rng(41)
        sh = mps.MpsShape(4, 2, 3, 2, label_site=1, boundary="open")
        nodes = [rng.normal(size=sh.node_shape(i)) for i in range(sh.n_sites)]
        model = mps.MpsModel(sh, nodes)
        assert model.params.dtype == np.float64
        assert model.params.tobytes() == b"".join(n.tobytes() for n in nodes)
        assert all(np.shares_memory(n, model.params) for n in model.nodes)

    def test_writes_through_a_node_and_through_params_are_shared(self):
        rng = np.random.default_rng(43)
        sh = mps.MpsShape(4, 2, 3, 2, boundary="cyclic")
        model = oracles.random_model(rng, sh)
        phi = mps.embed(rng.uniform(size=(3, 4)))
        base = mps.forward_batch(model, phi)
        model.nodes[2][...] *= 2.0
        start = sum(np.prod(sh.node_shape(i)) for i in range(2))
        np.testing.assert_array_equal(
            model.params[start : start + model.nodes[2].size], model.nodes[2].ravel()
        )
        np.testing.assert_allclose(mps.forward_batch(model, phi), 2.0 * base, rtol=1e-13)
        model.params[:] = 0.0
        assert all(not n.any() for n in model.nodes)
        assert not mps.forward_batch(model, phi).any()

    def test_nodes_cannot_be_replaced(self):
        model = oracles.random_model(np.random.default_rng(47), mps.MpsShape(3, 2, 2, 1))
        with pytest.raises(TypeError):
            model.nodes[0] = np.zeros(model.shape.node_shape(0))

    def test_copy_and_model_from_params_own_their_vector(self):
        rng = np.random.default_rng(53)
        sh = mps.MpsShape(3, 2, 2, 2)
        model = oracles.random_model(rng, sh)
        vec = model.params.copy()
        copied = model.copy()
        built = mps.model_from_params(sh, vec)
        model.params[:] = 1.0
        vec[:] = 2.0
        assert not np.shares_memory(copied.params, model.params)
        assert not np.shares_memory(built.params, vec)
        np.testing.assert_array_equal(copied.params, built.params)
        assert not np.isin(copied.params, [1.0, 2.0]).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_refused_naming_its_node(self, bad):
        sh = mps.MpsShape(4, 2, 2, 1)
        nodes = [np.ones(sh.node_shape(i)) for i in range(4)]
        nodes[3][0, 1, 0] = bad
        with pytest.raises(ValueError, match="node 3 contains non-finite"):
            mps.MpsModel(sh, nodes)
        vec = mps.MpsModel(sh, [np.ones(sh.node_shape(i)) for i in range(4)]).params
        vec[-1] = bad
        with pytest.raises(ValueError, match="node 3 contains non-finite"):
            mps.model_from_params(sh, vec)

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
        phi = mps.embed(np.linspace(0, 1, 5)[None])
        assert mps.forward_batch(back, phi).tobytes() == mps.forward_batch(model, phi).tobytes()

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

    def test_huge_site_count_is_refused_at_once(self):
        # a flipped high bit in n_sites: the parameter count would take a
        # step for each of 2**40 sites before the payload size is compared
        import struct as _struct
        import time

        blob = bytearray(mps.model_to_bytes(self._model()))
        _struct.pack_into("<q", blob, 5, 1 << 40)
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="too few for 1099511627776 sites"):
            mps.model_from_bytes(bytes(blob))
        assert time.perf_counter() - t0 < 1.0
