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
Each command and option is declared once, in the tables near the end of
this module: the parser, the defaults and the config-file check read them.

The multi-seed sweeps (``init-compare``, ``std-perturb``, ``bond-sweep``)
are rows of one table run by one handler, which checks every value before
the first cell trains. They use seeds {base, base+1, ..., base+n_seeds-1}
so that orderings are reproducible. Exit codes: 0 success, 2 usage or data
errors, 3 numeric failures (overflow, divergence).
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, data, decision, initializer, laplace, mps, trainer
from .baseline import LogisticBaseline
from .errors import DataError, NumericError, ParseError, ShapeError, TrainingDiverged


def _comma_list(text, flag, kind=float):
    """The comma-separated ``kind`` values of ``flag``, blank entries
    dropped; at least one."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise DataError(f"{flag} must be comma-separated {noun}, got {text!r}") from exc
    if not values:
        raise DataError(f"{flag} must list at least one value")
    return values


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


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
        schema = _read_json(cfg["schema"])
        classes = None
        if cfg["classes"]:
            classes = _comma_list(cfg["classes"], "--classes", str.strip)
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


def _init_spec(dataset, cfg):
    """The initializer spec of ``cfg`` at its base seed, checked as it is built."""
    var_x = cfg["var_x"] if cfg["var_x"] is not None else dataset.init_var_x()
    return initializer.InitSpec(
        method=cfg["init"], var_x=var_x, seed=cfg["seed"], scale_factor=cfg["scale_factor"]
    )


def _fit(dataset, shape, spec, cfg):
    """Initialize a model from ``spec`` and train it with ``spec.seed``;
    returns ``(fit, history)``."""
    model = initializer.init_model(shape, spec)
    config = trainer.TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        optimizer=cfg["optimizer"],
        seed=spec.seed,
    )
    return trainer.train_map(model, dataset, config, trainer.PriorSpec(cfg["reg"]))


def _test_accuracy(dataset, fit, history):
    """Test accuracy of the model ``train_map`` kept (nan without test rows).

    A kept epoch recorded it at its end, on the same parameters, so only the
    initial model (best epoch 0) is evaluated again.
    """
    if history.best_epoch:
        return history.records[history.best_epoch - 1].test_acc
    if dataset.test_x.shape[0]:
        return trainer.accuracy(fit, dataset.test_x, dataset.test_y)
    return float("nan")


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


def _write_meta(out, name, cfg, started, **extra):
    payload = {
        "command": cfg["command"],
        "config": {k: _jsonable(v) for k, v in cfg.items()},
        "version": __version__,
        "wall_time_seconds": time.perf_counter() - started,
        "peak_rss_mib": _peak_rss_mib(),
        **extra,
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


def _peak_rss_mib():
    """Peak resident memory of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _training_summary(dataset, history):
    """Size, time and throughput of one ``train_map`` run, read off its
    history and the process (no extra pass over the data)."""
    rows, epochs = int(dataset.train_x.shape[0]), len(history.records)
    seconds = sum(rec.seconds for rec in history.records)
    return {
        "rows": rows,
        "epochs": epochs,
        "best_epoch": history.best_epoch,
        "train_seconds": seconds,
        "eval_seconds": sum(rec.eval_seconds for rec in history.records),
        "samples_per_s": rows * epochs / seconds if seconds > 0 else None,
        "peak_rss_mib": _peak_rss_mib(),
    }


def cmd_train(cfg):
    started = time.perf_counter()
    dataset = _load_dataset(cfg)
    seconds = {"load_dataset": time.perf_counter() - started}
    shape = _build_shape(dataset, cfg)
    fit, history = _fit(dataset, shape, _init_spec(dataset, cfg), cfg)
    out = _out_dir(cfg)
    mps.save_model(fit, out / "model.bmps")
    history.to_csv(out / "history.csv")
    history.to_json(out / "history.json")
    training = _training_summary(dataset, history)
    _write_meta(out, "train", cfg, started, training=training, seconds=seconds)
    test_acc = _test_accuracy(dataset, fit, history)
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
    t0 = time.perf_counter()
    dataset = _load_dataset(cfg)
    t1 = time.perf_counter()
    factors = laplace.ggn_factors(
        model, dataset.train_x, rank_cap=cfg["rank_cap"], seed=cfg["seed"]
    )
    t2 = time.perf_counter()
    post = laplace.LaplacePosterior(model, factors, cfg["reg"])
    t3 = time.perf_counter()
    out = _out_dir(cfg)
    laplace.save_posterior(post, out / "posterior.blap")
    save_s = time.perf_counter() - t3
    seconds = {"load_dataset": t1 - t0, "factors": t2 - t1, "core": t3 - t2, "save": save_s}
    chunk_rows, workers = mps.chunk_plan(
        factors.n_samples, mps.jacobian_row_bytes(model.shape)
    )
    summary = {
        "rank": factors.rank,
        "n_params": factors.n_params,
        "n_samples": factors.n_samples,
        "subsampled": factors.sample_ids is not None,
        "log_det_precision": post.log_det_precision,
        "chunk_rows": chunk_rows,
        "workers": workers,
        "blas_threads": mps.blas_threads(workers),
    }
    _write_meta(out, "laplace-fit", cfg, started, posterior=summary, seconds=seconds)
    print(f"posterior rank {factors.rank} over {factors.n_params} parameters")
    return 0


def cmd_predict(cfg):
    started = time.perf_counter()
    if not cfg["model"]:
        raise DataError("--model is required")
    model = mps.load_model(cfg["model"])
    # read and sized before any row is predicted
    util = decision.UtilityMatrix.from_csv(cfg["utility"]) if cfg["utility"] else None
    n_classes = max(model.shape.n_labels, 2)
    if util is not None and util.n_labels != n_classes:
        raise ShapeError(
            f"utility matrix is {util.n_labels}x{util.n_labels} but the model "
            f"has {n_classes} classes"
        )
    t0 = time.perf_counter()
    dataset = _load_dataset(cfg)
    seconds = {"load_dataset": time.perf_counter() - t0, "load_posterior": None}
    use_test = cfg["on"] == "test" or (cfg["on"] == "auto" and dataset.test_x.shape[0])
    X = dataset.test_x if use_test else dataset.train_x
    Y = dataset.test_y if use_test else dataset.train_y
    if X.shape[0] == 0:
        raise DataError("selected partition has no rows")

    if cfg["posterior"]:
        t0 = time.perf_counter()
        post = laplace.load_posterior(cfg["posterior"])
        seconds["load_posterior"] = time.perf_counter() - t0
        if laplace.model_digest(model) != post.factors.model_digest:
            raise DataError("posterior was fit for a different model")
        row_bytes = mps.jacobian_row_bytes(model.shape)
        chunk_rows, workers = mps.chunk_plan(X.shape[0], row_bytes)
        t0 = time.perf_counter()
        # the moderated batch carries the point-estimate logits too
        batch = laplace.predictive_batch(post, X)
        probs, map_probs = batch.probabilities, trainer.probabilities(batch.logits)
        mode = "moderated"
    else:
        print(
            "warning: no posterior provided; falling back to point-estimate probabilities",
            file=sys.stderr,
        )
        # the MAP forward streams row-capped chunks, serially
        chunk_rows, workers = mps.CHUNK_ROWS, 1
        t0 = time.perf_counter()
        probs = map_probs = trainer.predict_proba(model, X)
        mode = "map"
    seconds["predict"] = time.perf_counter() - t0

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
    _write_meta(
        out, "predictions", dict(cfg, mode=mode), started,
        chunk_rows=chunk_rows, workers=workers,
        blas_threads=mps.blas_threads(workers), seconds=seconds,
    )
    acc = float(np.mean(moderated == truth))
    print(f"wrote {len(rows)} predictions ({mode}); accuracy {acc:.4f}")
    return 0


def cmd_boundary_grid(cfg):
    started = time.perf_counter()
    grid = cfg["grid"]
    if grid < 2:
        raise DataError(f"--grid must be >= 2, got {grid}")
    dataset = _load_dataset(cfg)
    if dataset.n_features != 2:
        raise DataError(
            f"boundary grid needs a 2-feature dataset, got {dataset.n_features}"
        )
    shape = _build_shape(dataset, cfg)
    fit, _ = _fit(dataset, shape, _init_spec(dataset, cfg), cfg)
    if cfg["reg"] > 0:
        factors = laplace.ggn_factors(
            fit, dataset.train_x, rank_cap=cfg["rank_cap"], seed=cfg["seed"]
        )
        post = laplace.LaplacePosterior(fit, factors, cfg["reg"])
        mode = "moderated"
    else:
        post = None
        mode = "map"

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
    from scipy.stats import kurtosis

    started = time.perf_counter()
    regs = _comma_list(cfg["regs"], "--regs")
    dataset = _load_dataset(cfg)
    shape, spec = _build_shape(dataset, cfg), _init_spec(dataset, cfg)
    param_rows, summary_rows = [], []
    for reg in regs:
        fit, _ = _fit(dataset, shape, spec, dict(cfg, reg=reg))
        ref = LogisticBaseline(l2=reg).fit(dataset.train_x, dataset.train_y)
        for name, values in (("mps", fit.params), ("logistic", ref.weights_.ravel())):
            param_rows.extend([name, reg, float(v)] for v in values)
            summary_rows.append(
                [name, reg, values.size, float(values.std()), float(kurtosis(values, fisher=True))]
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


# A seed sweep's row style: the CSV columns between the seed and the status,
# the rows of a trained cell from (dataset, fit, history, start), and a
# diverged cell's one row from (exception, start); start is the cell's
# time.perf_counter() reading.
_PER_EPOCH = (
    ["epoch", "train_acc", "test_acc"],
    lambda dataset, fit, history, start: [
        [rec.epoch, rec.train_acc, rec.test_acc] for rec in history.records
    ],
    lambda exc, start: [exc.epoch or 0, "", ""],
)
_PER_CELL = (
    ["test_acc", "wall_time"],
    lambda dataset, fit, history, start: [
        [_test_accuracy(dataset, fit, history), time.perf_counter() - start]
    ],
    lambda exc, start: ["", time.perf_counter() - start],
)


def cmd_sweep(cfg):
    """Train one model per (value, seed) cell of a seed sweep (see
    :data:`_SWEEPS`), seeds base, base+1, ..., and write a row per epoch or
    per cell. Every value's shape and initializer spec is built before the
    first cell trains, so a bad value exits before any training. Divergence
    is recorded as a ``diverged`` row, never raised.
    """
    started = time.perf_counter()
    command = cfg["command"]
    option, kind, key, column, (fields, trained_rows, diverged_row) = _SWEEPS[command]
    flag = "--" + option
    values = _comma_list(cfg[option], flag, kind)
    if cfg["n_seeds"] < 1:
        raise DataError(f"--n-seeds must be >= 1, got {cfg['n_seeds']}")
    dataset = _load_dataset(cfg)
    cells = [(value, dict(cfg, **{key: value})) for value in values]
    cells = [(v, c, _build_shape(dataset, c), _init_spec(dataset, c)) for v, c in cells]
    rows = []
    for value, value_cfg, shape, spec in cells:
        for seed in range(cfg["seed"], cfg["seed"] + cfg["n_seeds"]):
            start = time.perf_counter()
            try:
                fit, history = _fit(dataset, shape, replace(spec, seed=seed), value_cfg)
            except TrainingDiverged as exc:
                rows.append([value, seed, *diverged_row(exc, start), "diverged"])
                continue
            cell_rows = trained_rows(dataset, fit, history, start)
            rows.extend([value, seed, *r, "ok"] for r in cell_rows)
    out = _out_dir(cfg)
    _write_csv(out, command, [column, "seed", *fields, "status"], rows)
    _write_meta(out, command, cfg, started)
    print(f"wrote {len(rows)} rows for {flag} {values}")
    return 0


# Every option maps its name to (default, argparse keywords); its flag is
# "--" plus the name with "-" for "_". Each command takes the shared options,
# then its own, in this order.
_SHARED_OPTIONS = {
    "out": ("bmps-out", {"help": "output directory"}),
    "seed": (0, {"type": int, "help": "base random seed"}),
    # dataset selection
    "dataset": ("blobs", {"choices": ("blobs", "mnist", "csv")}),
    "n_samples": (200, {"type": int}),
    "std": (1.0, {"type": float, "help": "blob standard deviation"}),
    "data_seed": (0, {"type": int}),
    "test_fraction": (0.25, {"type": float}),
    "images": (None, {"help": "IDX image file (mnist)"}),
    "labels": (None, {"help": "IDX label file (mnist)"}),
    "test_images": (None, {}),
    "test_labels": (None, {}),
    "subset_size": (None, {"type": int}),
    "test_subset_size": (None, {"type": int}),
    "downsample": ("pool_to_14x14", {"choices": ("none", "pool_to_14x14")}),
    "csv": (None, {"help": "CSV dataset path"}),
    "label_column": (None, {}),
    "schema": (None, {"help": "JSON schema file for --csv"}),
    "classes": (None, {"help": "comma-separated label order for --csv"}),
    # model and training
    "bond": (4, {"type": int}),
    "boundary": ("cyclic", {"choices": ("cyclic", "open")}),
    "channels": ("auto", {"choices": ("auto", "binary", "multi")}),
    "init": ("calibrated_weight", {"choices": initializer.METHODS}),
    "scale_factor": (1.0, {"type": float}),
    "var_x": (None, {"type": float}),
    "epochs": (20, {"type": int}),
    "batch_size": (32, {"type": int}),
    "learning_rate": (trainer.DEFAULT_LEARNING_RATE, {"type": float}),
    "optimizer": ("adam", {"choices": trainer.OPTIMIZERS}),
    "reg": (0.0, {"type": float, "help": "prior precision"}),
}

_OWN_OPTIONS = {
    "model": (None, {"help": "model file to load"}),
    "posterior": (None, {"help": "posterior file to load"}),
    "utility": (None, {"help": "CSV utility matrix"}),
    "on": ("auto", {"choices": ("auto", "train", "test")}),
    "rank_cap": (laplace.DEFAULT_RANK_CAP, {"type": int}),
    "methods": ("calibrated_weight,xavier,he", {"help": "comma-separated initializer names"}),
    "scales": ("1,0.25,4", {"help": "comma-separated scale factors"}),
    "grid": (200, {"type": int, "help": "grid resolution per axis"}),
    "regs": ("0,1e-4,1e-3", {"help": "comma-separated prior precisions"}),
    "bonds": ("2,4,8", {"help": "comma-separated bond dimensions"}),
    "n_seeds": (3, {"type": int}),
}

# seed sweep -> (its list option, the option's element type, the config key
# each value sets, the CSV's value column, row style); cmd_sweep runs each
_SWEEPS = {
    "init-compare": ("methods", str.strip, "init", "method", _PER_EPOCH),
    "std-perturb": ("scales", float, "scale_factor", "scale_factor", _PER_EPOCH),
    "bond-sweep": ("bonds", int, "bond", "bond", _PER_CELL),
}

# command -> (handler, help line, names of its own options)
_COMMANDS = {
    "train": (cmd_train, "fit a model and write it with its training history", ()),
    "predict": (cmd_predict, "write per-sample probabilities and labels",
                ("model", "posterior", "utility", "on")),
    "laplace-fit": (cmd_laplace_fit, "fit a low-rank posterior around a saved model",
                    ("model", "rank_cap")),
    "init-compare": (cmd_sweep, "accuracy-vs-epoch for several initializers",
                     ("methods", "n_seeds")),
    "std-perturb": (cmd_sweep, "accuracy-vs-epoch for perturbed init scales",
                    ("scales", "n_seeds")),
    "boundary-grid": (cmd_boundary_grid, "class-1 probability on a grid over [0,1]^2",
                      ("grid", "rank_cap")),
    "param-hist": (cmd_param_hist, "trained weight values per regularization", ("regs",)),
    "bond-sweep": (cmd_sweep, "final test accuracy per bond dimension",
                   ("bonds", "n_seeds")),
}

# the JSON types a config-file value may have, by its flag's argparse type
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def _options(command):
    """The options of ``command``, name -> (default, argparse keywords)."""
    return {**_SHARED_OPTIONS, **{name: _OWN_OPTIONS[name] for name in _COMMANDS[command][2]}}


def _build_parser(only=None):
    """The parser of every command, or of only ``only``'s options; every
    command is listed, for ``-h`` and for an unknown command's error."""
    parser = argparse.ArgumentParser(
        prog="bmps",
        description="Tensor-network classifier experiments and model tools",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if only not in (None, command):
            continue
        p.add_argument("--config", default=argparse.SUPPRESS, help="JSON file of option overrides")
        for name, (_, kwargs) in _options(command).items():
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
    return parser


def _merge_config(command, args):
    options = _options(command)
    cfg = {name: default for name, (default, _) in options.items()}
    given = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = given.pop("config", None)
    if config_path:
        overrides = _read_json(config_path)
        if not isinstance(overrides, dict):
            raise ParseError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(overrides) - set(cfg))
        if unknown:
            raise DataError(f"unknown config keys {unknown} in {config_path}")
        for key, value in overrides.items():
            default, kwargs = options[key]
            kinds, what = _JSON_TYPES[kwargs.get("type", str)]
            if value is None:
                ok = default is None
            else:
                ok = isinstance(value, kinds) and not isinstance(value, bool)
                ok = ok and value in kwargs.get("choices", (value,))
            if not ok:
                what = f"one of {list(kwargs['choices'])}" if "choices" in kwargs else what
                raise DataError(f"{config_path}: config key {key!r} must be {what}, got {value!r}")
        cfg.update(overrides)
    cfg.update(given)
    cfg["command"] = command
    return cfg


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option with a value, so the first word
    # that is not an option names the command; "" declares no command's options
    args = _build_parser(next((a for a in argv if not a.startswith("-")), "")).parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        return _COMMANDS[args.command][0](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
