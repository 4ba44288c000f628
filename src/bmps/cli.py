"""Command-line experiment runner and model lifecycle tools.

Subcommands fall in two groups. Lifecycle: ``train`` (fit and save a
model), ``laplace-fit`` (attach a low-rank posterior), ``predict`` (write
per-sample probabilities and labels). Experiments: ``init-compare``,
``std-perturb``, ``boundary-grid``, ``param-hist``, and ``bond-sweep``,
each of which writes machine-readable CSV plot data rather than images.

Every command writes its CSVs plus a ``<name>.meta.json`` sidecar carrying
the fully merged configuration, the package version, and the wall time.
Options may come from a JSON config file (``--config``); explicit
command-line flags win over the file, which wins over built-in defaults.

Multi-seed sweeps use seeds {base, base+1, ..., base+n_seeds-1} so that
orderings are reproducible. Exit codes: 0 success, 2 usage or data errors,
3 numeric failures (overflow, divergence).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import kurtosis

from . import __version__, data, decision, initializer, laplace, mps, trainer
from .baseline import LogisticBaseline
from .errors import DataError, NumericError, ParseError, TrainingDiverged

_DATA_DEFAULTS = {
    "dataset": "blobs",
    "n_samples": 200,
    "std": 1.0,
    "data_seed": 0,
    "test_fraction": 0.25,
    "images": None,
    "labels": None,
    "test_images": None,
    "test_labels": None,
    "subset_size": None,
    "test_subset_size": None,
    "downsample": "pool_to_14x14",
    "csv": None,
    "label_column": None,
    "schema": None,
    "classes": None,
}

_MODEL_DEFAULTS = {
    "bond": 4,
    "boundary": "cyclic",
    "channels": "auto",
    "init": "calibrated_weight",
    "scale_factor": 1.0,
    "var_x": None,
    "epochs": 20,
    "batch_size": 32,
    "learning_rate": 1e-3,
    "optimizer": "adam",
    "reg": 0.0,
    "seed": 0,
    "out": "bmps-out",
}


def _defaults(*extra):
    cfg = dict(_DATA_DEFAULTS)
    cfg.update(_MODEL_DEFAULTS)
    for d in extra:
        cfg.update(d)
    return cfg


_COMMAND_DEFAULTS = {
    "train": _defaults(),
    "predict": _defaults({"model": None, "posterior": None, "utility": None, "on": "auto"}),
    "laplace-fit": _defaults({"model": None, "rank_cap": laplace.DEFAULT_RANK_CAP}),
    "init-compare": _defaults({"methods": "calibrated_weight,xavier,he", "n_seeds": 3}),
    "std-perturb": _defaults({"scales": "1,0.25,4", "n_seeds": 3}),
    "boundary-grid": _defaults({"grid": 200, "rank_cap": laplace.DEFAULT_RANK_CAP}),
    "param-hist": _defaults({"regs": "0,1e-4,1e-3"}),
    "bond-sweep": _defaults({"bonds": "2,4,8", "n_seeds": 3}),
}


def _add_option(parser, flag, **kwargs):
    parser.add_argument(flag, default=argparse.SUPPRESS, **kwargs)


def _add_common_options(parser):
    _add_option(parser, "--config", help="JSON file of option overrides")
    _add_option(parser, "--out", help="output directory")
    _add_option(parser, "--seed", type=int, help="base random seed")
    # dataset selection
    _add_option(parser, "--dataset", choices=("blobs", "mnist", "csv"))
    _add_option(parser, "--n-samples", dest="n_samples", type=int)
    _add_option(parser, "--std", type=float, help="blob standard deviation")
    _add_option(parser, "--data-seed", dest="data_seed", type=int)
    _add_option(parser, "--test-fraction", dest="test_fraction", type=float)
    _add_option(parser, "--images", help="IDX image file (mnist)")
    _add_option(parser, "--labels", help="IDX label file (mnist)")
    _add_option(parser, "--test-images", dest="test_images")
    _add_option(parser, "--test-labels", dest="test_labels")
    _add_option(parser, "--subset-size", dest="subset_size", type=int)
    _add_option(parser, "--test-subset-size", dest="test_subset_size", type=int)
    _add_option(parser, "--downsample", choices=("none", "pool_to_14x14"))
    _add_option(parser, "--csv", help="CSV dataset path")
    _add_option(parser, "--label-column", dest="label_column")
    _add_option(parser, "--schema", help="JSON schema file for --csv")
    _add_option(parser, "--classes", help="comma-separated label order for --csv")
    # model and training
    _add_option(parser, "--bond", type=int)
    _add_option(parser, "--boundary", choices=("cyclic", "open"))
    _add_option(parser, "--channels", choices=("auto", "binary", "multi"))
    _add_option(parser, "--init", choices=initializer.METHODS)
    _add_option(parser, "--scale-factor", dest="scale_factor", type=float)
    _add_option(parser, "--var-x", dest="var_x", type=float)
    _add_option(parser, "--epochs", type=int)
    _add_option(parser, "--batch-size", dest="batch_size", type=int)
    _add_option(parser, "--learning-rate", dest="learning_rate", type=float)
    _add_option(parser, "--optimizer", choices=trainer.OPTIMIZERS)
    _add_option(parser, "--reg", type=float, help="prior precision")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bmps",
        description="Tensor-network classifier experiments and model tools",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "train": "fit a model and write it with its training history",
        "predict": "write per-sample probabilities and labels",
        "laplace-fit": "fit a low-rank posterior around a saved model",
        "init-compare": "accuracy-vs-epoch for several initializers",
        "std-perturb": "accuracy-vs-epoch for perturbed init scales",
        "boundary-grid": "class-1 probability on a grid over [0,1]^2",
        "param-hist": "trained weight values per regularization",
        "bond-sweep": "final test accuracy per bond dimension",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_options(p)
        if name == "predict":
            _add_option(p, "--model", help="model file to load")
            _add_option(p, "--posterior", help="posterior file to load")
            _add_option(p, "--utility", help="CSV utility matrix")
            _add_option(p, "--on", choices=("auto", "train", "test"))
        elif name == "laplace-fit":
            _add_option(p, "--model", help="model file to load")
            _add_option(p, "--rank-cap", dest="rank_cap", type=int)
        elif name == "init-compare":
            _add_option(p, "--methods", help="comma-separated initializer names")
            _add_option(p, "--n-seeds", dest="n_seeds", type=int)
        elif name == "std-perturb":
            _add_option(p, "--scales", help="comma-separated scale factors")
            _add_option(p, "--n-seeds", dest="n_seeds", type=int)
        elif name == "boundary-grid":
            _add_option(p, "--grid", type=int, help="grid resolution per axis")
            _add_option(p, "--rank-cap", dest="rank_cap", type=int)
        elif name == "param-hist":
            _add_option(p, "--regs", help="comma-separated prior precisions")
        elif name == "bond-sweep":
            _add_option(p, "--bonds", help="comma-separated bond dimensions")
            _add_option(p, "--n-seeds", dest="n_seeds", type=int)
    return parser


def _merge_config(command, args):
    cfg = dict(_COMMAND_DEFAULTS[command])
    given = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = given.pop("config", None)
    if config_path:
        try:
            overrides = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{config_path}: invalid JSON ({exc})") from exc
        if not isinstance(overrides, dict):
            raise ParseError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(overrides) - set(cfg))
        if unknown:
            raise DataError(f"unknown config keys {unknown} in {config_path}")
        cfg.update(overrides)
    cfg.update(given)
    cfg["command"] = command
    return cfg


def _float_list(text, flag):
    try:
        values = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError as exc:
        raise DataError(f"{flag} must be comma-separated numbers, got {text!r}") from exc
    if not values:
        raise DataError(f"{flag} must list at least one value")
    return values


def _int_list(text, flag):
    return [int(v) for v in _float_list(text, flag)]


def _load_dataset(cfg):
    kind = cfg["dataset"]
    if kind == "blobs":
        ds = data.make_blobs(
            cfg["n_samples"], std=cfg["std"], seed=cfg["data_seed"]
        )
    elif kind == "mnist":
        base = data.data_dir() / "mnist"
        images = cfg["images"] or base / "train-images-idx3-ubyte"
        labels = cfg["labels"] or base / "train-labels-idx1-ubyte"
        ds = data.load_mnist(
            images,
            labels,
            subset_size=cfg["subset_size"],
            downsample=cfg["downsample"],
            seed=cfg["data_seed"],
        )
        test_images = cfg["test_images"] or base / "t10k-images-idx3-ubyte"
        test_labels = cfg["test_labels"] or base / "t10k-labels-idx1-ubyte"
        if Path(test_images).exists() and Path(test_labels).exists():
            held_out = data.load_mnist(
                test_images,
                test_labels,
                subset_size=cfg["test_subset_size"],
                downsample=cfg["downsample"],
                seed=cfg["data_seed"] + 1,
            )
            return ds.with_test(held_out)
    elif kind == "csv":
        if not cfg["csv"] or not cfg["label_column"] or not cfg["schema"]:
            raise DataError("--csv, --label-column and --schema are required")
        schema = json.loads(Path(cfg["schema"]).read_text())
        classes = cfg["classes"].split(",") if cfg["classes"] else None
        ds = data.load_csv(cfg["csv"], cfg["label_column"], schema, classes=classes)
    else:
        raise DataError(f"unknown dataset kind {kind!r}")
    return data.split(ds, cfg["test_fraction"], seed=cfg["data_seed"])


def _build_shape(dataset, cfg):
    channels = cfg["channels"]
    if channels == "binary" or (channels == "auto" and dataset.n_classes == 2):
        if dataset.n_classes != 2:
            raise DataError("binary channel mode needs a two-class dataset")
        n_labels = 1
    else:
        n_labels = dataset.n_classes
    return mps.MpsShape(
        n_sites=dataset.n_features,
        phys_dim=2,
        bond_dim=cfg["bond"],
        n_labels=n_labels,
        boundary=cfg["boundary"],
    )


def _fit(dataset, shape, cfg, seed):
    """Initialize a model with ``seed`` and train it; returns ``(fit, history)``."""
    var_x = cfg["var_x"] if cfg["var_x"] is not None else dataset.init_var_x()
    spec = initializer.InitSpec(
        method=cfg["init"], var_x=var_x, seed=seed, scale_factor=cfg["scale_factor"]
    )
    model = initializer.init_model(shape, spec)
    config = trainer.TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        optimizer=cfg["optimizer"],
        seed=seed,
    )
    return trainer.train_map(model, dataset, config, trainer.PriorSpec(cfg["reg"]))


def _seed_sweep(cfg, dataset, variants, cell_cfg, ok_rows, diverged_row):
    """Train one model per (variant, seed) cell, seeds base, base+1, ...

    ``cell_cfg(variant)`` is the cell's configuration. A trained cell adds
    the rows ``ok_rows(fit, history, cell_start)``; a diverged cell adds the
    one row ``diverged_row(exc, cell_start)``, so divergence is recorded,
    never raised. ``cell_start`` is the cell's ``time.perf_counter()`` start.
    Each row is prefixed with the variant and seed and ends with its status.
    """
    rows = []
    for variant in variants:
        variant_cfg = cell_cfg(variant)
        shape = _build_shape(dataset, variant_cfg)
        for seed in range(cfg["seed"], cfg["seed"] + cfg["n_seeds"]):
            cell_start = time.perf_counter()
            try:
                fit, history = _fit(dataset, shape, variant_cfg, seed)
            except TrainingDiverged as exc:
                rows.append([variant, seed, *diverged_row(exc, cell_start), "diverged"])
                continue
            cell_rows = ok_rows(fit, history, cell_start)
            rows.extend([variant, seed, *r, "ok"] for r in cell_rows)
    return rows


def _out_dir(cfg):
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def _write_meta(out, name, cfg, started):
    payload = {
        "command": cfg["command"],
        "config": {k: _jsonable(v) for k, v in cfg.items()},
        "version": __version__,
        "wall_time_seconds": time.perf_counter() - started,
    }
    with open(out / f"{name}.meta.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(out, name, fieldnames, rows):
    path = out / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
    return path


def cmd_train(cfg):
    started = time.perf_counter()
    dataset = _load_dataset(cfg)
    shape = _build_shape(dataset, cfg)
    fit, history = _fit(dataset, shape, cfg, cfg["seed"])
    out = _out_dir(cfg)
    mps.save_model(fit, out / "model.bmps")
    history.to_csv(out / "history.csv")
    history.to_json(out / "history.json")
    _write_meta(out, "train", cfg, started)
    test_acc = (
        trainer.accuracy(fit, dataset.test_x, dataset.test_y)
        if dataset.test_x.shape[0]
        else float("nan")
    )
    print(
        f"trained {shape.n_sites} sites, bond {shape.bond_dim}: "
        f"best epoch {history.best_epoch}, test accuracy {test_acc:.4f}"
    )
    return 0


def cmd_laplace_fit(cfg):
    started = time.perf_counter()
    if not cfg["model"]:
        raise DataError("--model is required")
    if cfg["reg"] <= 0:
        raise DataError("--reg must be > 0 for a posterior")
    model = mps.load_model(cfg["model"])
    dataset = _load_dataset(cfg)
    factors = laplace.ggn_factors(
        model, dataset.train_x, rank_cap=cfg["rank_cap"], seed=cfg["seed"]
    )
    post = laplace.LaplacePosterior(model, factors, cfg["reg"])
    out = _out_dir(cfg)
    laplace.save_posterior(post, out / "posterior.blap")
    _write_meta(out, "laplace-fit", cfg, started)
    print(f"posterior rank {factors.rank} over {factors.n_params} parameters")
    return 0


def cmd_predict(cfg):
    started = time.perf_counter()
    if not cfg["model"]:
        raise DataError("--model is required")
    model = mps.load_model(cfg["model"])
    dataset = _load_dataset(cfg)
    use_test = cfg["on"] == "test" or (cfg["on"] == "auto" and dataset.test_x.shape[0])
    X = dataset.test_x if use_test else dataset.train_x
    Y = dataset.test_y if use_test else dataset.train_y
    if X.shape[0] == 0:
        raise DataError("selected partition has no rows")

    if cfg["posterior"]:
        post = laplace.load_posterior(cfg["posterior"])
        if laplace.model_digest(model) != post.factors.model_digest:
            raise DataError("posterior was fit for a different model")
        # the moderated batch carries the point-estimate logits too
        batch = laplace.predictive_batch(post, X)
        probs, map_probs = batch.probabilities, trainer.probabilities(batch.logits)
        mode = "moderated"
    else:
        print(
            "warning: no posterior provided; falling back to point-estimate probabilities",
            file=sys.stderr,
        )
        probs = map_probs = trainer.predict_proba(model, X)
        mode = "map"

    util = decision.UtilityMatrix.from_csv(cfg["utility"]) if cfg["utility"] else None
    truth = np.argmax(Y, axis=1)
    fields = ["index", "truth", "map_label", "moderated_label"]
    moderated = decision.classify_map(probs)
    labels = [np.arange(X.shape[0]), truth, decision.classify_map(map_probs), moderated]
    if util is not None:
        fields.append("utility_label")
        labels.append(decision.classify_utility(probs, util))
    fields += [f"prob_{j}" for j in range(probs.shape[1])]
    rows = [a + b for a, b in zip(np.column_stack(labels).tolist(), probs.tolist())]
    out = _out_dir(cfg)
    _write_csv(out, "predictions", fields, rows)
    _write_meta(out, "predictions", dict(cfg, mode=mode), started)
    acc = float(np.mean(moderated == truth))
    print(f"wrote {len(rows)} predictions ({mode}); accuracy {acc:.4f}")
    return 0


_EPOCH_FIELDS = ["seed", "epoch", "train_acc", "test_acc", "status"]


def _epoch_rows(fit, history, cell_start):
    return [[rec.epoch, rec.train_acc, rec.test_acc] for rec in history.records]


def _diverged_epoch_row(exc, cell_start):
    return [exc.epoch or 0, "", ""]


def cmd_init_compare(cfg):
    started = time.perf_counter()
    methods = [m.strip() for m in cfg["methods"].split(",") if m.strip()]
    if not methods:
        raise DataError("--methods must list at least one initializer")
    for m in methods:
        if m not in initializer.METHODS:
            raise DataError(f"unknown initializer {m!r} (choose from {initializer.METHODS})")
    dataset = _load_dataset(cfg)
    rows = _seed_sweep(
        cfg,
        dataset,
        methods,
        lambda method: dict(cfg, init=method),
        _epoch_rows,
        _diverged_epoch_row,
    )
    out = _out_dir(cfg)
    _write_csv(out, "init-compare", ["method", *_EPOCH_FIELDS], rows)
    _write_meta(out, "init-compare", cfg, started)
    print(f"wrote {len(rows)} rows for {len(methods)} methods")
    return 0


def cmd_std_perturb(cfg):
    started = time.perf_counter()
    scales = _float_list(cfg["scales"], "--scales")
    dataset = _load_dataset(cfg)
    rows = _seed_sweep(
        cfg,
        dataset,
        scales,
        lambda scale: dict(cfg, scale_factor=scale),
        _epoch_rows,
        _diverged_epoch_row,
    )
    out = _out_dir(cfg)
    _write_csv(out, "std-perturb", ["scale_factor", *_EPOCH_FIELDS], rows)
    _write_meta(out, "std-perturb", cfg, started)
    print(f"wrote {len(rows)} rows for scales {scales}")
    return 0


def cmd_boundary_grid(cfg):
    started = time.perf_counter()
    dataset = _load_dataset(cfg)
    if dataset.n_features != 2:
        raise DataError(
            f"boundary grid needs a 2-feature dataset, got {dataset.n_features}"
        )
    shape = _build_shape(dataset, cfg)
    fit, _ = _fit(dataset, shape, cfg, cfg["seed"])
    if cfg["reg"] > 0:
        factors = laplace.ggn_factors(
            fit, dataset.train_x, rank_cap=cfg["rank_cap"], seed=cfg["seed"]
        )
        post = laplace.LaplacePosterior(fit, factors, cfg["reg"])
        mode = "moderated"
    else:
        post = None
        mode = "map"

    grid = cfg["grid"]
    if grid < 2:
        raise DataError(f"--grid must be >= 2, got {grid}")
    axis = np.linspace(0.0, 1.0, grid)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([xx.ravel(), yy.ravel()])
    if post is not None:
        probs = laplace.predictive_batch(post, points).probabilities
    else:
        probs = trainer.predict_proba(fit, points)
    labels = np.argmax(probs, axis=1)
    rows = [
        [float(points[i, 0]), float(points[i, 1]), float(probs[i, 1]), int(labels[i])]
        for i in range(points.shape[0])
    ]
    out = _out_dir(cfg)
    _write_csv(out, "boundary-grid", ["x1", "x2", "p_class1", "label"], rows)
    _write_meta(out, "boundary-grid", dict(cfg, mode=mode), started)
    print(f"wrote {grid}x{grid} grid ({mode})")
    return 0


def cmd_param_hist(cfg):
    started = time.perf_counter()
    regs = _float_list(cfg["regs"], "--regs")
    dataset = _load_dataset(cfg)
    shape = _build_shape(dataset, cfg)
    param_rows, summary_rows = [], []
    for reg in regs:
        fit, _ = _fit(dataset, shape, dict(cfg, reg=reg), cfg["seed"])
        values = mps.flatten_params(fit)
        param_rows.extend(["mps", reg, float(v)] for v in values)
        summary_rows.append(
            [
                "mps",
                reg,
                values.size,
                float(values.std()),
                float(kurtosis(values, fisher=True)),
            ]
        )
        ref = LogisticBaseline(l2=reg).fit(dataset.train_x, dataset.train_y)
        ref_values = ref.weights_.ravel()
        param_rows.extend(["logistic", reg, float(v)] for v in ref_values)
        summary_rows.append(
            [
                "logistic",
                reg,
                ref_values.size,
                float(ref_values.std()),
                float(kurtosis(ref_values, fisher=True)),
            ]
        )
    out = _out_dir(cfg)
    _write_csv(out, "params", ["model", "reg", "value"], param_rows)
    _write_csv(
        out,
        "params-summary",
        ["model", "reg", "n_params", "std", "excess_kurtosis"],
        summary_rows,
    )
    _write_meta(out, "param-hist", cfg, started)
    print(f"wrote parameter values for regs {regs}")
    return 0


def cmd_bond_sweep(cfg):
    started = time.perf_counter()
    bonds = _int_list(cfg["bonds"], "--bonds")
    if any(b < 1 for b in bonds):
        raise DataError("bond dimensions must be >= 1")
    dataset = _load_dataset(cfg)

    def trained(fit, history, cell_start):
        acc = trainer.accuracy(fit, dataset.test_x, dataset.test_y)
        return [[acc, time.perf_counter() - cell_start]]

    rows = _seed_sweep(
        cfg,
        dataset,
        bonds,
        lambda bond: dict(cfg, bond=bond),
        trained,
        lambda exc, cell_start: ["", time.perf_counter() - cell_start],
    )
    out = _out_dir(cfg)
    _write_csv(out, "bond-sweep", ["bond", "seed", "test_acc", "wall_time", "status"], rows)
    _write_meta(out, "bond-sweep", cfg, started)
    print(f"wrote {len(rows)} cells for bonds {bonds}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "laplace-fit": cmd_laplace_fit,
    "init-compare": cmd_init_compare,
    "std-perturb": cmd_std_perturb,
    "boundary-grid": cmd_boundary_grid,
    "param-hist": cmd_param_hist,
    "bond-sweep": cmd_bond_sweep,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
