"""Variance-calibrated Gaussian initialization for chain classifiers.

The response of a chain with i.i.d. zero-mean entries has a closed-form
variance: for a cyclic chain of n sites with bond dimension alpha, physical
dimension s, entry variance Var[A], and per-feature embedded second moment
``var_x`` (the mean of the squared feature-map components; equals the feature
variance when the embedded features are zero-mean),

    Var[response] = (s * alpha * Var[A] * var_x) ** n.

Each calibrated method inverts that law from a different anchor:

* ``calibrated_weight``      response variance matches the entry variance,
                             sigma^2 = (s * alpha * var_x) ** (-n / (n - 1))
* ``calibrated_gradient``    gradient variance matches the entry variance,
                             sigma^2 = s**(-(n-1)/(n-2)) / alpha * var_x**(-n/(n-2))
* ``calibrated_asymptotic``  large-n limit of both,
                             sigma^2 = 1 / (s * alpha * var_x)

``xavier`` (2 / (fan_in + fan_out)) and ``he`` (2 / fan_in) are included for
comparison, with fan_in = s * alpha and fan_out = alpha (the label node's
fan_out is alpha * n_labels). Those two are blind to the chain length, which
is exactly what the comparison experiments probe.

Draws come from ``numpy.random.default_rng`` (PCG64) normals, so runs are
bit-reproducible within this implementation for a fixed seed. Monte-Carlo
replicas use seeds ``seed + k`` for k = 0 .. n_models-1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mps

METHODS = (
    "calibrated_weight",
    "calibrated_gradient",
    "calibrated_asymptotic",
    "xavier",
    "he",
)


@dataclass(frozen=True)
class InitSpec:
    """How to draw a fresh model: method, data scale, seed, spread multiplier."""

    method: str = "calibrated_weight"
    var_x: float = 1.0 / 3.0
    seed: int = 0
    scale_factor: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown init method {self.method!r}; expected one of {METHODS}"
            )
        if not self.var_x > 0:
            raise ValueError(f"var_x must be positive, got {self.var_x}")
        if not self.scale_factor > 0:
            raise ValueError(f"scale_factor must be positive, got {self.scale_factor}")


def init_variance(spec, shape, label_node=False):
    """Entry variance sigma^2 for one node under the given spec.

    ``label_node`` only matters for the fan-based methods, whose fan_out picks
    up the class axis. The ``scale_factor`` is applied by :func:`init_model`
    (it multiplies the standard deviation, not this variance).
    """
    n = shape.n_sites
    s = float(shape.phys_dim)
    alpha = float(shape.bond_dim)
    vx = spec.var_x
    if spec.method == "calibrated_weight":
        if n < 2:
            raise ValueError("calibrated_weight needs n_sites >= 2")
        return float((s * alpha * vx) ** (-n / (n - 1.0)))
    if spec.method == "calibrated_gradient":
        if n < 3:
            raise ValueError("calibrated_gradient needs n_sites >= 3")
        return float(
            s ** (-(n - 1.0) / (n - 2.0)) / alpha * vx ** (-n / (n - 2.0))
        )
    if spec.method == "calibrated_asymptotic":
        return float(1.0 / (s * alpha * vx))
    fan_in = s * alpha
    fan_out = alpha * shape.n_labels if label_node else alpha
    if spec.method == "xavier":
        return float(2.0 / (fan_in + fan_out))
    if spec.method == "he":
        return float(2.0 / fan_in)
    raise ValueError(f"unknown init method {spec.method!r}")


def init_model(shape, spec):
    """Draw a model with i.i.d. N(0, (scale_factor * sigma)^2) entries."""
    rng = np.random.default_rng(spec.seed)
    nodes = []
    for i in range(shape.n_sites):
        sigma = np.sqrt(init_variance(spec, shape, label_node=i == shape.label_site))
        nodes.append(
            rng.normal(0.0, spec.scale_factor * sigma, size=shape.node_shape(i))
        )
    return mps.MpsModel(shape, nodes)


def output_stats(shape, spec, n_models, sample):
    """Monte-Carlo mean and variance of the response over fresh inits.

    Replica k is drawn with seed ``spec.seed + k``; the statistics are taken
    on logit component 0 (components are exchangeable under the i.i.d. draw).
    Overflow inside any replica propagates as NumericError.
    """
    if n_models < 2:
        raise ValueError(f"n_models must be >= 2, got {n_models}")
    phi = mps.embed(np.reshape(sample, (1, -1)))
    values = np.empty(n_models)
    for k in range(n_models):
        model = init_model(shape, replace(spec, seed=spec.seed + k))
        values[k] = mps.forward_batch(model, phi)[0, 0]
    return float(values.mean()), float(values.var())


def response_variance_law(shape, entry_variance, var_x):
    """Closed-form Var[response] = (s * alpha * Var[A] * var_x) ** n."""
    return float(
        (shape.phys_dim * shape.bond_dim * entry_variance * var_x) ** shape.n_sites
    )
