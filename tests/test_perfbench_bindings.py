"""The benchmark's tracing patches alcove by attribute name; this installs its
Capture and Tracer on the alcove modules and undoes them, so a rename that
drops a patched name fails here rather than in a benchmark run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import alcove
import alcove.cli  # noqa: F401  (tracing looks the submodules up by name)
from alcove.classifier import LinearClassifier
from alcove.strategies import QuerySpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_capture_and_tracer_install_and_undo():
    tracing = load_tracing()
    modules = tracing.alcove_modules()
    oracle = alcove.harness.LabelOracle
    before = [dict(vars(m)) for m in modules] + [dict(vars(oracle))]
    traced = set(tracing.public_functions(modules).values())
    # every span the benchmark counts or measures names a public function
    assert set(tracing.COUNTERS) | set(tracing.MEMORY_SPANS) <= traced

    patch = tracing.Patch()
    try:
        tracing.Capture().install(patch, modules)
        tracing.Tracer().install(patch, modules)
        assert alcove.cli.run_bench is not before[-2]["run_bench"]
    finally:
        patch.undo()
    assert [dict(vars(m)) for m in modules] + [dict(vars(oracle))] == before


def test_capture_keeps_centroid_init_and_cluster_pick_clusterings():
    # the clustering check keys each k-means call by its caller, so centroid
    # init must reach kmeans through initpool, not through _cluster_pick
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(30, 4))
    clf = LinearClassifier(weights=rng.normal(size=(3, 4)), bias=np.zeros(3))
    capture = tracing.Capture()
    patch = tracing.Patch()
    try:
        capture.install(patch, tracing.alcove_modules())
        alcove.initpool.centroid_init(feats, np.arange(30), 3, seed=1)
        alcove.strategies.query(QuerySpec("dropquery"), feats, clf, [], [], np.arange(30), 3, seed=2)
    finally:
        patch.undo()
    assert {"centroid_init", "_cluster_pick"} <= set(capture.clusterings)


def test_perfbench_selftest_passes():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
