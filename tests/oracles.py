"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, literal way (explicit index
enumeration, finite differences, dense linear algebra) so that agreement with
the production code is meaningful.
"""

import itertools

import numpy as np

from bmps import mps


def oracle_contract(model, site_vectors, full_phys_limit=200_000):
    """Exhaustive chain contraction by explicit index-assignment enumeration.

    Enumerates every bond-index assignment with ``itertools.product``. When the
    total assignment count (bonds x physical x labels) stays under
    ``full_phys_limit`` the physical indices are enumerated too; otherwise each
    site's physical index is contracted with an explicit scalar loop. Either
    way, no matrix products are involved.
    """
    shape = model.shape
    n, L, s_dim = shape.n_sites, shape.n_labels, shape.phys_dim
    vectors = np.asarray(site_vectors, dtype=np.float64)
    lefts = [shape.bond_dims(i)[0] for i in range(n)]
    n_bond_paths = int(np.prod(lefts))
    full = n_bond_paths * (s_dim**n) * L <= full_phys_limit

    out = np.zeros(L)
    for l in range(L):
        total = 0.0
        for bonds in itertools.product(*[range(d) for d in lefts]):
            if full:
                for phys in itertools.product(range(s_dim), repeat=n):
                    prod = 1.0
                    for i in range(n):
                        a, b = bonds[i], bonds[(i + 1) % n]
                        s = phys[i]
                        node = model.nodes[i]
                        entry = (
                            node[a, s, l, b] if i == shape.label_site else node[a, s, b]
                        )
                        prod *= entry * vectors[i, s]
                    total += prod
            else:
                prod = 1.0
                for i in range(n):
                    a, b = bonds[i], bonds[(i + 1) % n]
                    node = model.nodes[i]
                    acc = 0.0
                    for s in range(s_dim):
                        entry = (
                            node[a, s, l, b] if i == shape.label_site else node[a, s, b]
                        )
                        acc += entry * vectors[i, s]
                    prod *= acc
                total += prod
        out[l] = total
    return out


def fd_grad_logits(model, site_vectors, h=1e-6):
    """Central finite differences of the logits w.r.t. every parameter.

    Returns an (n_labels, param_count) array in ``model.params`` order.
    """
    shape = model.shape
    phi = np.asarray(site_vectors, dtype=np.float64)[None]
    base = model.params.copy()
    out = np.zeros((shape.n_labels, base.size))
    for p in range(base.size):
        vp = base.copy()
        vp[p] += h
        vm = base.copy()
        vm[p] -= h
        fp = mps.forward_batch(mps.model_from_params(shape, vp), phi)[0]
        fm = mps.forward_batch(mps.model_from_params(shape, vm), phi)[0]
        out[:, p] = (fp - fm) / (2.0 * h)
    return out


def fd_grad_scalar(f, vec, h=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    vec = np.asarray(vec, dtype=np.float64)
    g = np.zeros_like(vec)
    for p in range(vec.size):
        vp = vec.copy()
        vp[p] += h
        vm = vec.copy()
        vm[p] -= h
        g[p] = (f(vp) - f(vm)) / (2.0 * h)
    return g


def fd_hessian_from_grad(grad_fn, vec, h=1e-5):
    """Central finite differences of an analytic gradient: the (P, P) Hessian."""
    vec = np.asarray(vec, dtype=np.float64)
    P = vec.size
    H = np.zeros((P, P))
    for p in range(P):
        vp = vec.copy()
        vp[p] += h
        vm = vec.copy()
        vm[p] -= h
        H[:, p] = (grad_fn(vp) - grad_fn(vm)) / (2.0 * h)
    return 0.5 * (H + H.T)


def naive_grad_logits(model, site_vectors):
    """Per-node environments recomputed from scratch for every node (no caching).

    Same mathematical object as one row of ``mps.jacobian_from_env``, the
    flat (n_labels, param_count) Jacobian, but O(n^2): for node i the partial
    products left and right of i are rebuilt with fresh einsum chains.
    """
    shape = model.shape
    n, L = shape.n_sites, shape.n_labels
    vectors = np.asarray(site_vectors, dtype=np.float64)

    def site_mat(i):
        node = model.nodes[i]
        if i == shape.label_site:
            return np.einsum("s,aslr->lar", vectors[i], node)
        return np.einsum("s,asr->ar", vectors[i], node)[None]  # (1, a, r)

    tensors = []
    for i in range(n):
        e0 = shape.bond_dims(0)[0]
        pre = np.eye(e0)[None]
        for k in range(i):
            pre = _pair_product(pre, site_mat(k))
        e_last = shape.bond_dims(n - 1)[1]
        suf = np.eye(e_last)[None]
        for k in range(n - 1, i, -1):
            suf = _pair_product(site_mat(k), suf)
        env = np.swapaxes(_pair_product(suf, pre), 1, 2)  # (c, a, r)
        if i == shape.label_site:
            g = np.zeros((L,) + shape.node_shape(i))
            for l in range(L):
                g[l, :, :, l, :] = np.einsum("ar,s->asr", env[0], vectors[i])
        else:
            if env.shape[0] == 1 and L > 1:
                env = np.broadcast_to(env, (L,) + env.shape[1:])
            g = np.einsum("lar,s->lasr", env, vectors[i])
        tensors.append(np.asarray(g))
    return np.concatenate([t.reshape(L, -1) for t in tensors], axis=1)


def site_loop(model, phi, coeff):
    """Logits and coefficient-weighted gradient of a batch, one row and one
    site at a time.

    For each row, plain loops multiply the transfer matrices round the ring
    from the label site and keep every partial product from both ends, so
    each site's environment is one product of two cached partial products.
    Returns ``(logits, grad)``: (batch, n_labels), and ``sum_b sum_l
    coeff[b, l] * d logits[b, l] / d params`` flat in ``model.params``
    order.
    """
    shape = model.shape
    n, k = shape.n_sites, shape.label_site
    phi = np.asarray(phi, dtype=np.float64)
    coeff = np.asarray(coeff, dtype=np.float64)
    ring = [*range(k + 1, n), *range(k)]
    logits = np.zeros((phi.shape[0], shape.n_labels))
    grads = [np.zeros(shape.node_shape(i)) for i in range(n)]
    for b, vecs in enumerate(phi):
        mats = {i: np.einsum("s,asr->ar", vecs[i], model.nodes[i]) for i in ring}
        label = np.einsum("s,aslr->lar", vecs[k], model.nodes[k])
        right = shape.bond_dims(k)[1]
        # before[j] = M_ring[0] .. M_ring[j-1]; after[j] = M_ring[j] .. M_ring[-1]
        before = [np.eye(right)]
        for i in ring:
            before.append(before[-1] @ mats[i])
        after = [np.eye(shape.bond_dims(k)[0])]
        for i in reversed(ring):
            after.insert(0, mats[i] @ after[0])
        closure = before[-1]  # (right of k, left of k)
        for l in range(shape.n_labels):
            logits[b, l] = np.trace(label[l] @ closure)
        folded = np.einsum("l,lar->ar", coeff[b], label)
        grads[k] += np.einsum("l,ra,s->aslr", coeff[b], closure, vecs[k])
        for j, i in enumerate(ring):
            # d trace(folded @ before[j] @ M_i @ after[j + 1]) / d M_i
            env = (after[j + 1] @ folded @ before[j]).T
            grads[i] += np.einsum("ar,s->asr", env, vecs[i])
    return logits, np.concatenate([g.ravel() for g in grads])


def _pair_product(a, b):
    c = max(a.shape[0], b.shape[0])
    a = np.broadcast_to(a, (c,) + a.shape[1:])
    b = np.broadcast_to(b, (c,) + b.shape[1:])
    return np.einsum("cae,cer->car", a, b)


def transfer_chain(mats, label_site):
    """A cyclic one-logit chain whose transfer matrices on an all-ones row
    (phi = [1, 0]) are exactly ``mats[i]``."""
    sh = mps.MpsShape(len(mats), 2, len(mats[0]), 1, label_site=label_site)
    nodes = []
    for i, m in enumerate(mats):
        node = np.zeros(sh.node_shape(i))
        if i == label_site:
            node[:, 0] = np.asarray(m)[:, None, :]
        else:
            node[:, 0] = m
        nodes.append(node)
    return mps.MpsModel(sh, nodes)


def random_shape(rng, max_n=4, max_s=4, max_bond=4, max_labels=3, boundary=None):
    n = int(rng.integers(1, max_n + 1))
    if boundary is None:
        boundary = ["cyclic", "open"][int(rng.integers(2))]
    return mps.MpsShape(
        n_sites=n,
        phys_dim=int(rng.integers(1, max_s + 1)),
        bond_dim=int(rng.integers(1, max_bond + 1)),
        n_labels=int(rng.integers(1, max_labels + 1)),
        label_site=int(rng.integers(n)),
        boundary=boundary,
    )


def random_model(rng, shape, scale=0.8):
    nodes = [
        rng.normal(0.0, scale, size=shape.node_shape(i))
        for i in range(shape.n_sites)
    ]
    return mps.MpsModel(shape, nodes)


def random_vectors(rng, shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=(shape.n_sites, shape.phys_dim))


def awkward_logits(rng, width, n=60):
    """Logit rows that reach the edge cases of softmax and logsumexp: random
    rows, tied maxima, entries near ``mps.MAGNITUDE_CAP``, ``-inf`` entries
    and rows of ``-inf`` only."""
    rows = rng.normal(scale=30.0, size=(n, width))
    rows[:15] = rng.integers(-2, 3, size=(15, width))  # small integers tie
    rows[15:25] *= mps.MAGNITUDE_CAP / 300.0
    hole = rng.random((n, width)) < 0.2
    hole[30:] = False
    rows[hole] = -np.inf
    rows[-3:] = -np.inf
    return rows
