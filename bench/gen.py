"""Seeded synthetic inputs for the benchmark; nothing is downloaded.

Two tasks:

* ``digits``: a digit-shaped 10-class image task. Each class has a smooth
  prototype on a 14x14 grid (a sum of Gaussian strokes); a row is its class
  prototype plus independent pixel noise, clipped to [0, 1]. This is the
  paper's 196-site, 10-class scale.
* ``screening``: a 30-feature binary task written as a CSV with a declared
  range schema (every feature has a fixed [min, max]) and a 2x2 utility
  table that makes a missed positive costly.

The same seed always gives the same arrays and the same file bytes.
"""

from __future__ import annotations

import csv
import json

import numpy as np

SIDE = 14
N_CLASSES = 10
N_FEATURES = 30
LABEL_COLUMN = "diagnosis"
CLASSES = ("B", "M")
# Entry [action][truth]: answering "B" for a true "M" is the expensive miss.
UTILITY = ((1.0, -10.0), (-1.0, 1.0))


def _onehot(labels, n_classes):
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def digits(seed, n_train=2000, n_test=400, noise=0.2):
    """Return (train_x, train_y, test_x, test_y); labels are one-hot rows.

    Prototypes span [-0.3, 1.3] before noise and clipping, so most pixels
    end up exactly 0 (background) or 1 (stroke), as in pooled digit scans.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE] / (SIDE - 1.0)
    protos = np.empty((N_CLASSES, SIDE * SIDE))
    for c in range(N_CLASSES):
        img = np.zeros((SIDE, SIDE))
        for _ in range(4):
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            width = rng.uniform(0.06, 0.15)
            img += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * width**2))
        protos[c] = (1.6 * img / img.max() - 0.3).ravel()

    def rows(n):
        labels = rng.permutation(np.arange(n) % N_CLASSES)
        x = protos[labels] + rng.normal(0.0, noise, size=(n, SIDE * SIDE))
        return np.clip(x, 0.0, 1.0), _onehot(labels, N_CLASSES)

    train_x, train_y = rows(n_train)
    test_x, test_y = rows(n_test)
    return train_x, train_y, test_x, test_y


def write_screening(seed, out_dir, n_negative=1200, n_positive=800):
    """Write ``screening.csv``, ``schema.json`` and ``utility.csv`` into out_dir.

    Class counts are multiples of 4, so the CLI's stratified 25% split gives
    exactly 1,500 training and 500 test rows. Returns the three paths.
    """
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, 50, size=N_FEATURES).astype(np.float64)
    hi = lo + rng.integers(1, 200, size=N_FEATURES)
    shift = rng.uniform(0.0, 0.1, size=N_FEATURES)
    labels = rng.permutation(np.r_[np.zeros(n_negative, int), np.ones(n_positive, int)])
    sign = np.where(labels == 1, 1.0, -1.0)[:, None]
    latent = 0.5 + sign * shift + rng.normal(0.0, 0.15, size=(labels.size, N_FEATURES))
    values = lo + (hi - lo) * np.clip(latent, 0.0, 1.0)

    names = [f"f{j:02d}" for j in range(N_FEATURES)]
    csv_path = out_dir / "screening.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names + [LABEL_COLUMN])
        for row, label in zip(values, labels):
            writer.writerow([f"{v:.6f}" for v in row] + [CLASSES[label]])
    schema = {
        name: {"kind": "range", "min": float(a), "max": float(b)}
        for name, a, b in zip(names, lo, hi)
    }
    schema_path = out_dir / "schema.json"
    schema_path.write_text(json.dumps(schema, indent=1) + "\n")
    utility_path = out_dir / "utility.csv"
    utility_path.write_text("".join(f"{a},{b}\n" for a, b in UTILITY))
    return csv_path, schema_path, utility_path
