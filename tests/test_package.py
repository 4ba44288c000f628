"""Tests for the package's public surface."""

import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import bmps
from bmps import cli, initializer, laplace, mps, trainer

SRC = str(Path(bmps.__file__).resolve().parent.parent)


def run_python(*args):
    """A fresh interpreter: pytest and other test modules already load scipy."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_every_exported_name_resolves():
    missing = [name for name in bmps.__all__ if not hasattr(bmps, name)]
    assert missing == []


def test_removed_engine_api_stays_removed():
    # one way into the contraction engine: embedded rows, a fixed cap
    gone = [
        "FeatureEmbedding", "feature_map", "forward", "grad_logits", "LogitGradient",
        "_check_embedding", "_phi_batch", "_phi_matrix", "DEFAULT_MAGNITUDE_CAP",
    ]
    assert [name for name in gone if hasattr(bmps, name) or hasattr(mps, name)] == []
    # the Jacobian's per-site stacks come from a one-site-group sweep, and
    # a training history has one writer per format
    assert not hasattr(mps, "_site_stacks")
    assert "sites" not in {f.name for f in dataclasses.fields(mps.BatchEnv)}
    assert not hasattr(trainer.TrainHistory, "to_csv_string")
    with_cap = [
        f"{module.__name__}.{name}"
        for module in (mps, trainer, laplace, initializer)
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and "magnitude_cap" in inspect.signature(fn).parameters
    ]
    assert with_cap == []
    assert "magnitude_cap" not in {f.name for f in dataclasses.fields(trainer.TrainConfig)}
    # the model holds one flat parameter vector; its nodes are views of it
    assert not hasattr(mps, "flatten_params")
    assert "copy" not in inspect.signature(mps.unflatten_params).parameters
    assert "theta" not in inspect.signature(trainer._loss_and_grad).parameters
    assert "max_iter" not in inspect.signature(bmps.LogisticBaseline).parameters
    # settings that only ever took their default are module constants: the
    # optimizers' and the divergence rule's, the blob centers and the cap
    # every check reads
    assert [f.name for f in dataclasses.fields(trainer.TrainConfig)] == [
        "epochs", "batch_size", "learning_rate", "optimizer", "shuffle", "seed",
    ]
    assert "centers" not in inspect.signature(bmps.make_blobs).parameters
    assert "cap" not in inspect.signature(mps._sweep).parameters
    assert "cap" not in {f.name for f in dataclasses.fields(mps.BatchEnv)}
    # one Jacobian writer, jacobian_blocks: no per-site destination callback,
    # and jacobian_from_env gathers its runs into a new array
    assert not hasattr(mps, "_write_jacobian")
    assert list(inspect.signature(mps.jacobian_from_env).parameters) == ["env"]
    # the Jacobian sweeps its own rows; no env carries the class stack, and
    # the GGN factor build passes its coefficients and its rows of U
    assert list(inspect.signature(mps.jacobian_blocks).parameters) == [
        "model", "phi", "coeff", "out",
    ]
    assert "label" not in {f.name for f in dataclasses.fields(mps.BatchEnv)}
    # one environment recurrence, which forms, scans and rescans its blocks
    # in the env's own buffers
    assert not hasattr(mps, "_env_blocks") and not hasattr(mps, "_block_within")
    assert list(inspect.signature(mps._environments).parameters) == ["env", "label_mats"]
    # the seed sweeps are rows of one table run by one handler
    gone = ["cmd_init_compare", "cmd_std_perturb", "cmd_bond_sweep", "_seed_sweep"]
    assert [name for name in gone if hasattr(cli, name)] == []
    # the weighted gradient is one flat vector in model.params order
    shape = mps.MpsShape(4, 2, 2, 3, boundary="open")
    model = mps.MpsModel(shape, [np.ones(shape.node_shape(i)) for i in range(4)])
    env = mps.sweep_env(model, mps.embed(np.full((2, 4), 0.5)))
    grad = mps.weighted_grad_from_env(env, np.ones((2, 3)))
    assert isinstance(grad, np.ndarray) and grad.shape == (shape.param_count,)


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0].split("```", 1)[0], namespace)
    assert namespace["actions"].shape == (len(namespace["ds"].test_x),)


def test_traced_bench_targets_resolve():
    # the traced bench run wraps these names and fails with a KeyError on
    # one that is gone; the untraced runs never look them up
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        for owner, attr, *_ in spans.TARGETS
        if attr not in vars(owner)
    ]
    assert spans.TARGETS and missing == []


def test_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import bmps, bmps.cli, bmps.data, bmps.decision, bmps.initializer, "
        "bmps.laplace, bmps.mps, bmps.trainer\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def scipy_imported(*argv):
    """The scipy modules a fresh ``python -m bmps`` run imports, by the
    interpreter's own import log (``-X importtime``, on stderr)."""
    proc = run_python("-X", "importtime", "-m", "bmps", *map(str, argv))
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return {name for name in names if name.split(".")[0] == "scipy"}


def test_only_the_posterior_commands_load_scipy_linalg(tmp_path):
    data = ["--dataset", "blobs", "--n-samples", "40", "--reg", "1"]
    model = tmp_path / "train" / "model.bmps"
    posterior = tmp_path / "post" / "posterior.blap"
    trained = scipy_imported(
        "train", *data, "--epochs", "1", "--bond", "2", "--out", model.parent
    )
    assert trained == set()
    for argv in (
        ["laplace-fit", *data, "--model", model, "--out", posterior.parent],
        ["predict", *data, "--model", model, "--posterior", posterior,
         "--out", tmp_path / "pred"],
    ):
        loaded = scipy_imported(*argv)
        assert "scipy.linalg" in loaded, argv[0]
        assert not any(name.startswith("scipy.special") for name in loaded), argv[0]


def test_python_dash_m_runs_the_cli():
    shown = run_python("-m", "bmps", "--help")
    assert shown.returncode == 0, shown.stderr
    assert "usage:" in shown.stdout
    unknown = run_python("-m", "bmps", "train", "--no-such-flag")
    assert unknown.returncode == 2
    assert "unrecognized arguments" in unknown.stderr
    # an exit code that main() returns, not one argparse raises
    failed = run_python("-m", "bmps", "predict")
    assert failed.returncode == 2
    assert "--model is required" in failed.stderr
