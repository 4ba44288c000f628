"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``C## PASS/FAIL`` line with the measured numbers
so a log scan shows the whole scorecard. Tolerances are the contract, not
aspirations: loosening one here is an API change.

The checks marked as trend reproductions (C09-C11) run the full pipeline
at desk scale with frozen seeds; the digit-image check (C10) skips with an
explanation when the IDX files are not on disk, since they cannot be
bundled or downloaded here.
"""

import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit, softmax

from oracles import (
    fd_grad_logits,
    fd_grad_scalar,
    fd_hessian_from_grad,
    oracle_contract,
    random_model,
    random_shape,
    random_vectors,
)

from bmps import data, initializer, laplace, mps, trainer
from bmps.errors import NumericError


def report(tag, ok, detail):
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def factors_for(model, U):
    return laplace.GgnFactors(
        factors=U,
        n_samples=U.shape[0],
        sample_ids=None,
        model_digest=laplace.model_digest(model),
    )


def onehot(labels, width):
    out = np.zeros((len(labels), width))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def test_c01_contraction_matches_exhaustive_sum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(50):
        shape = random_shape(rng, max_n=4, max_s=4, max_bond=4, max_labels=3)
        model = random_model(rng, shape, scale=0.8)
        vecs = random_vectors(rng, shape)
        got = mps.forward_batch(model, vecs[None])[0]
        want = oracle_contract(model, vecs)
        worst = max(worst, rel_err(got, want))
    dt = time.perf_counter() - t0
    report(
        "C01",
        worst <= 1e-10 and dt < 60,
        f"forward vs exhaustive index sum on 50 shapes: worst rel err "
        f"{worst:.3e} (<=1e-10), {dt:.1f}s (<60s)",
    )


def test_c02_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_logit = worst_loss = 0.0
    for _ in range(20):
        shape = random_shape(rng, max_n=4, max_s=3, max_bond=3, max_labels=3)
        model = random_model(rng, shape, scale=0.7)
        vecs = random_vectors(rng, shape, lo=0.0, hi=1.0)
        analytic = mps.jacobian_from_env(mps.sweep_env(model, vecs[None]))[0]
        fd = fd_grad_logits(model, vecs, h=1e-5)
        worst_logit = max(worst_logit, rel_err(fd, analytic))

        lshape = mps.MpsShape(
            n_sites=int(rng.integers(2, 5)),
            phys_dim=2,
            bond_dim=int(rng.integers(1, 4)),
            n_labels=int(rng.integers(1, 4)),
            boundary=["cyclic", "open"][int(rng.integers(2))],
        )
        lmodel = random_model(rng, lshape, scale=0.7)
        X = rng.uniform(0, 1, size=(4, lshape.n_sites))
        width = 2 if lshape.n_labels == 1 else lshape.n_labels
        Y = onehot(rng.integers(0, width, size=4), width)
        prior = trainer.PriorSpec(0.3)
        analytic_loss = np.concatenate(
            [g.ravel() for g in trainer.grad_loss(lmodel, X, Y, prior)]
        )
        fd_loss = fd_grad_scalar(
            lambda v: trainer.loss(mps.model_from_params(lshape, v), X, Y, prior),
            lmodel.params.copy(),
            h=1e-5,
        )
        worst_loss = max(worst_loss, rel_err(fd_loss, analytic_loss))
    worst = max(worst_logit, worst_loss)
    dt = time.perf_counter() - t0
    report(
        "C02",
        worst <= 1e-6 and dt < 60,
        f"logit/loss gradients vs central differences on 20 instances: worst "
        f"rel err {worst:.3e} (<=1e-6), {dt:.1f}s (<60s)",
    )


def test_c03_response_variance_law():
    t0 = time.perf_counter()
    worst_z = 0.0
    for n in (4, 8, 12):
        for alpha in (2, 3):
            shape = mps.MpsShape(n_sites=n, phys_dim=2, bond_dim=alpha, n_labels=1)
            sample = np.full(n, 0.25)
            var_x = 0.3125  # second moment of the (x, 1-x) channels at x=0.25
            var_a = 1.05**2 / (2 * alpha * var_x)  # law becomes 1.05^(2n)
            law = initializer.response_variance_law(shape, var_a, var_x)
            rng = np.random.default_rng(100 + n + alpha)
            phi = mps.embed(sample[None])
            vals = np.empty(5000)
            for k in range(5000):
                nodes = [
                    rng.normal(0.0, np.sqrt(var_a), size=shape.node_shape(i))
                    for i in range(n)
                ]
                vals[k] = mps.forward_batch(mps.MpsModel(shape, nodes), phi)[0, 0]
            centered = vals - vals.mean()
            v_hat = float(np.mean(centered**2))
            m4 = float(np.mean(centered**4))
            se = np.sqrt(max(m4 - v_hat**2, 0.0) / vals.size)
            worst_z = max(worst_z, abs(v_hat - law) / se)
    dt = time.perf_counter() - t0
    report(
        "C03",
        worst_z <= 3.0 and dt < 300,
        f"variance over 5000 inits vs closed form, n<=12, bond in {{2,3}}: "
        f"worst |z| {worst_z:.2f} (<=3 MC SE), {dt:.1f}s (<300s)",
    )


def _mc_log10_var(shape, sigma, n_inits, seed):
    rng = np.random.default_rng(seed)
    phi = mps.embed(np.full((1, shape.n_sites), 0.5))
    vals = np.empty(n_inits)
    for k in range(n_inits):
        nodes = [
            rng.normal(0.0, sigma, size=shape.node_shape(i))
            for i in range(shape.n_sites)
        ]
        vals[k] = mps.forward_batch(mps.MpsModel(shape, nodes), phi)[0, 0]
    return float(np.log10(vals.var()))


def test_c04_calibrated_init_is_stable_and_unit_variance_blows_up():
    # Bond 16 keeps the Monte-Carlo variance estimate honest at depth 100;
    # thinner chains concentrate too slowly for 2000 replicas to see the
    # rare large responses that carry the variance.
    t0 = time.perf_counter()
    alpha, var_x = 16, 0.25  # all features fixed at 0.5
    stable = {}
    for n in (20, 50, 100):
        shape = mps.MpsShape(n_sites=n, phys_dim=2, bond_dim=alpha, n_labels=1)
        spec = initializer.InitSpec(method="calibrated_weight", var_x=var_x)
        sigma = np.sqrt(initializer.init_variance(spec, shape))
        stable[n] = _mc_log10_var(shape, sigma, 2000, seed=7 * n + alpha)
    shape50 = mps.MpsShape(n_sites=50, phys_dim=2, bond_dim=alpha, n_labels=1)
    try:
        blown = _mc_log10_var(shape50, 1.0, 400, seed=115)
        blown_ok = blown >= 10.0
        blown_text = f"log10 Var {blown:.1f} (>=10)"
    except NumericError:
        blown_ok = True
        blown_text = "overflow"
    worst = max(abs(v) for v in stable.values())
    dt = time.perf_counter() - t0
    report(
        "C04",
        worst <= 2.0 and blown_ok and dt < 300,
        f"calibrated log10 Var at n=20/50/100: "
        f"{stable[20]:.2f}/{stable[50]:.2f}/{stable[100]:.2f} (|.|<=2); "
        f"unit-variance init at n=50: {blown_text}; {dt:.1f}s",
    )


def test_c05_calibrated_variance_approaches_asymptotic_form():
    shape = mps.MpsShape(n_sites=1000, phys_dim=2, bond_dim=4, n_labels=1)
    var_x = 1.0 / 12.0
    exact = initializer.init_variance(
        initializer.InitSpec(method="calibrated_weight", var_x=var_x), shape
    )
    asymptotic = initializer.init_variance(
        initializer.InitSpec(method="calibrated_asymptotic", var_x=var_x), shape
    )
    rel = abs(exact - asymptotic) / asymptotic
    report(
        "C05",
        rel <= 0.02,
        f"per-entry variance at n=1000 vs asymptotic form: rel gap "
        f"{rel:.2e} (<=2e-2)",
    )


def test_c06_ggn_is_psd_and_matches_hessian_near_map():
    # Imbalanced node norms (large plain nodes, tiny label node) make the
    # dropped second-derivative term negligible once the fit saturates;
    # plain gradient descent preserves the imbalance while fitting.
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n, L, m = 3, 3, 5
    shape = mps.MpsShape(n, 2, 2, L, boundary="cyclic")
    nodes = []
    for i in range(n):
        scale = 1.0 if i == shape.label_site else 25.0
        nodes.append(rng.normal(0, scale, size=shape.node_shape(i)))
    model = mps.MpsModel(shape, nodes)
    X = rng.uniform(0, 1, size=(m, n))
    Y = onehot(np.array([0, 1, 2, 0, 1]), L)
    nodes[shape.label_site] /= np.std(mps.forward_batch(model, mps.embed(X)))
    model = mps.MpsModel(shape, nodes)

    dataset = SimpleNamespace(
        train_x=X, train_y=Y, test_x=np.zeros((0, n)), test_y=np.zeros((0, L))
    )
    config = trainer.TrainConfig(
        epochs=4000, batch_size=m, learning_rate=5e-6, optimizer="sgd",
        shuffle=False,
    )
    fit, _ = trainer.train_map(model, dataset, config)
    mean_ce = trainer.loss(fit, X, Y) / m

    U = laplace.ggn_factors(fit, X).factors
    H_ggn = U.T @ U
    eigs = np.linalg.eigvalsh(H_ggn)
    psd_ok = eigs.min() >= -1e-8 * eigs.max()

    def grad_nll(vec):
        grads = trainer.grad_loss(mps.model_from_params(shape, vec), X, Y)
        return np.concatenate([g.ravel() for g in grads])

    H_fd = fd_hessian_from_grad(grad_nll, fit.params.copy())
    rel = np.linalg.norm(H_fd - H_ggn) / np.linalg.norm(H_fd)
    dt = time.perf_counter() - t0
    report(
        "C06",
        psd_ok and rel <= 1e-3 and mean_ce < 2e-2 and dt < 120,
        f"outer-product curvature: min eig {eigs.min():.2e} vs max "
        f"{eigs.max():.2e} (PSD), rel err vs FD Hessian {rel:.2e} (<=1e-3) "
        f"at mean CE {mean_ce:.2e}, {dt:.1f}s (<120s)",
    )


def _solve_case(n_sites, rng, rank=40):
    shape = mps.MpsShape(
        n_sites=n_sites, phys_dim=2, bond_dim=1, n_labels=1, boundary="open"
    )
    flat = rng.normal(0.0, 0.5, size=2 * n_sites)
    nodes = [
        flat[2 * i : 2 * i + 2].reshape(shape.node_shape(i))
        for i in range(n_sites)
    ]
    model = mps.MpsModel(shape, nodes)
    P = shape.param_count
    U = rng.normal(0.0, 0.3, size=(rank, P))
    post = laplace.LaplacePosterior(model, factors_for(model, U), 0.5)
    v = rng.normal(size=P)
    return post, v, P


def _timed_solve(post, v):
    t0 = time.perf_counter()
    post.solve(v)
    return time.perf_counter() - t0


def test_c07_low_rank_solver_matches_dense_and_scales_linearly():
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(20):
        shape = random_shape(rng, max_n=5, max_s=2, max_bond=3, max_labels=3)
        model = random_model(rng, shape, scale=0.6)
        P = shape.param_count
        assert P <= 200
        R = int(rng.integers(0, 51))
        U = rng.normal(0.0, 0.7, size=(R, P))
        lam = float(10 ** rng.uniform(-3, 1))
        post = laplace.LaplacePosterior(model, factors_for(model, U), lam)
        v = rng.normal(size=P)
        dense = np.linalg.solve(U.T @ U + lam * np.eye(P), v)
        worst = max(worst, rel_err(post.solve(v), dense))

    # Sizes chosen past the cache knee where the measured ratio sits stably
    # near 2. The two sizes are timed in turn, small then big, and the gate
    # reads the median of the per-repetition ratios, so a machine speed
    # change between repetitions moves one ratio, not the whole comparison.
    post_small, v_small, p_small = _solve_case(400_000, rng)
    post_big, v_big, p_big = _solve_case(800_000, rng)
    ratios = []
    for _ in range(11):
        t_small = _timed_solve(post_small, v_small)
        t_big = _timed_solve(post_big, v_big)
        ratios.append(t_big / t_small)
    ratio = float(np.median(ratios))
    report(
        "C07",
        worst <= 1e-8 and 1.5 <= ratio <= 3.0,
        f"solver vs dense on 20 cases (P<=200, R<=50): worst rel err "
        f"{worst:.2e} (<=1e-8); doubling P {p_small}->{p_big} at rank 40 "
        f"scaled wall time x{ratio:.2f} (in [1.5, 3.0])",
    )


def test_c08_moderation_limits_and_no_argmax_flips():
    kappa_zero = laplace.kappa(0.0)
    exact_one = kappa_zero == 1.0

    # Huge precision with no curvature rows collapses onto the point estimate.
    rng = np.random.default_rng(800)
    shape = mps.MpsShape(n_sites=4, phys_dim=2, bond_dim=3, n_labels=4)
    model = random_model(rng, shape, scale=0.5)
    X = rng.uniform(0, 1, size=(50, 4))
    P = shape.param_count
    post = laplace.LaplacePosterior(model, factors_for(model, np.zeros((0, P))), 1e12)
    moderated = laplace.predictive_batch(post, X).probabilities
    point = softmax(mps.forward_batch(model, mps.embed(X)), axis=1)
    gap_multi = float(np.abs(moderated - point).max())

    bshape = mps.MpsShape(n_sites=4, phys_dim=2, bond_dim=3, n_labels=1)
    bmodel = random_model(rng, bshape, scale=0.5)
    bpost = laplace.LaplacePosterior(
        bmodel, factors_for(bmodel, np.zeros((0, bshape.param_count))), 1e12
    )
    bmod = laplace.predictive_batch(bpost, X).probabilities
    bpoint = expit(mps.forward_batch(bmodel, mps.embed(X))[:, 0])
    gap_binary = float(np.abs(bmod[:, 1] - bpoint).max())
    degenerate_ok = gap_multi <= 1e-6 and gap_binary <= 1e-6

    flips = 0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        shape_i = mps.MpsShape(
            n_sites=n, phys_dim=2,
            bond_dim=int(rng.integers(1, 4)), n_labels=1,
            boundary=["cyclic", "open"][int(rng.integers(2))],
        )
        model_i = random_model(rng, shape_i, scale=0.6)
        P_i = shape_i.param_count
        R = int(rng.integers(0, 9))
        U = rng.normal(0.0, 0.8, size=(R, P_i))
        lam = float(10 ** rng.uniform(-3, 3))
        post_i = laplace.LaplacePosterior(model_i, factors_for(model_i, U), lam)
        x = rng.uniform(0, 1, size=n)
        mod_probs = laplace.predictive(post_i, x).probabilities
        map_probs = trainer.predict_proba(model_i, x[None])[0]
        if np.argmax(mod_probs) != np.argmax(map_probs):
            flips += 1
    report(
        "C08",
        exact_one and degenerate_ok and flips == 0,
        f"kappa(0)={kappa_zero!r} (==1); rank-0 precision-1e12 predictive vs "
        f"point estimate: max abs gap {max(gap_multi, gap_binary):.2e} "
        f"(<=1e-6); argmax flips under binary moderation: {flips}/1000 (==0)",
    )


def _grid_crossings(model, grid=200):
    axis = np.linspace(0.0, 1.0, grid)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    labels = trainer.predict_labels(
        model, np.column_stack([xx.ravel(), yy.ravel()])
    ).reshape(grid, grid)
    return int(
        np.sum(labels[:, 1:] != labels[:, :-1]) + np.sum(labels[1:, :] != labels[:-1, :])
    )


def test_c09_blobs_fit_shrinkage_and_boundary_smoothing():
    t0 = time.perf_counter()
    ds = data.split(data.make_blobs(200, std=1.0, seed=0), 0.25, seed=0)
    shape = mps.MpsShape(n_sites=2, phys_dim=2, bond_dim=4, n_labels=1)
    spec = initializer.InitSpec(
        method="calibrated_weight", var_x=ds.init_var_x(), seed=0
    )
    config = trainer.TrainConfig(
        epochs=200, batch_size=32, learning_rate=0.02, seed=0
    )
    best_acc, stds, crossings = 0.0, [], []
    for lam in (0.0, 1e-4, 1e-3):
        fit, history = trainer.train_map(
            initializer.init_model(shape, spec), ds, config, trainer.PriorSpec(lam)
        )
        if lam == 0.0:
            best_acc = max(r.train_acc for r in history.records)
        stds.append(float(fit.params.std()))
        crossings.append(_grid_crossings(fit))
    shrinkage_ok = stds[0] >= stds[1] >= stds[2]
    smoothing_ok = crossings[0] >= crossings[1] >= crossings[2]
    dt = time.perf_counter() - t0
    report(
        "C09",
        best_acc >= 0.95 and shrinkage_ok and smoothing_ok and dt < 120,
        f"200-sample blobs, bond 4: train acc {best_acc:.3f} (>=0.95 in 200 "
        f"epochs); weight std over precisions 0/1e-4/1e-3: "
        f"{stds[0]:.4f}/{stds[1]:.4f}/{stds[2]:.4f} (non-increasing); "
        f"boundary crossings {crossings[0]}/{crossings[1]}/{crossings[2]} "
        f"(non-increasing); {dt:.1f}s (<120s)",
    )


def _find_mnist():
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    for base in (data.data_dir() / "mnist", Path(__file__).parent / "data" / "mnist"):
        paths = [base / name for name in names]
        if all(p.exists() for p in paths):
            return paths
    return None


def test_c10_digit_image_init_ordering():
    paths = _find_mnist()
    if paths is None:
        line = (
            "C10 SKIP: digit-image IDX files not found under "
            f"{data.data_dir() / 'mnist'} or tests/data/mnist; place the four "
            "ubyte files there to run the initializer-ordering trend"
        )
        print(line)
        pytest.skip(line)
    t0 = time.perf_counter()
    train = data.load_mnist(paths[0], paths[1], subset_size=10_000, downsample="pool_to_14x14")
    held = data.load_mnist(paths[2], paths[3], subset_size=2_000, downsample="pool_to_14x14")
    ds = train.with_test(held)
    shape = mps.MpsShape(n_sites=196, phys_dim=2, bond_dim=8, n_labels=10)

    def run(method, seed, epochs):
        spec = initializer.InitSpec(method=method, var_x=ds.init_var_x(), seed=seed)
        config = trainer.TrainConfig(
            epochs=epochs, batch_size=32, learning_rate=1e-3, seed=seed
        )
        _, history = trainer.train_map(
            initializer.init_model(shape, spec), ds, config
        )
        return history

    epoch5 = {}
    for method in ("calibrated_weight", "xavier", "he"):
        accs = [run(method, seed, 5).records[-1].test_acc for seed in (0, 1, 2)]
        epoch5[method] = float(np.median(accs))
    long_run = run("calibrated_weight", 0, 30)
    floor = max(r.test_acc for r in long_run.records)
    dt = time.perf_counter() - t0
    ordered = (
        epoch5["calibrated_weight"] > epoch5["xavier"]
        and epoch5["calibrated_weight"] > epoch5["he"]
    )
    report(
        "C10",
        ordered and floor >= 0.90 and dt < 1800,
        f"median epoch-5 test acc calibrated/xavier/he: "
        f"{epoch5['calibrated_weight']:.4f}/{epoch5['xavier']:.4f}/"
        f"{epoch5['he']:.4f} (calibrated highest); best test acc by epoch 30: "
        f"{floor:.4f} (>=0.90); {dt:.0f}s (<1800s)",
    )


def test_c11_cancer_screening_bond_sweep():
    sklearn_data = pytest.importorskip("sklearn.datasets")
    t0 = time.perf_counter()
    raw = sklearn_data.load_breast_cancer()
    X = data.minmax_scale(raw.data.astype(np.float64))
    Y = onehot(raw.target.astype(np.int64), 2)
    full = data.DatasetSplit(
        train_x=X,
        train_y=Y,
        test_x=np.zeros((0, X.shape[1])),
        test_y=np.zeros((0, 2)),
    )
    ds = data.split(full, 0.25, seed=0)
    medians = []
    for bond in (2, 4, 8):
        shape = mps.MpsShape(n_sites=30, phys_dim=2, bond_dim=bond, n_labels=1)
        accs = []
        for seed in (0, 1, 2):
            spec = initializer.InitSpec(
                method="calibrated_weight", var_x=ds.init_var_x(), seed=seed
            )
            config = trainer.TrainConfig(
                epochs=40, batch_size=32, learning_rate=0.01, seed=seed
            )
            fit, _ = trainer.train_map(
                initializer.init_model(shape, spec), ds, config
            )
            accs.append(trainer.accuracy(fit, ds.test_x, ds.test_y))
        medians.append(float(np.median(accs)))
    monotone = medians[0] <= medians[1] <= medians[2]
    dt = time.perf_counter() - t0
    report(
        "C11",
        monotone and medians[1] >= 0.90 and dt < 300,
        f"cancer-screening median test acc at bonds 2/4/8: "
        f"{medians[0]:.4f}/{medians[1]:.4f}/{medians[2]:.4f} "
        f"(non-decreasing, bond-4 >= 0.90); {dt:.1f}s (<300s)",
    )
