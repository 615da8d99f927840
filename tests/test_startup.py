"""Importing alcove loads numpy and the standard library only; scipy loads
with the first sparse matrix. tests/oracles.py imports scipy, so every check
runs in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import alcove

SRC = str(Path(alcove.__file__).resolve().parents[1])


def run_fresh(code: str, cwd: Path) -> str:
    """Run ``code`` in a new interpreter that imports alcove from this tree; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_cli_stats_and_a_random_init_run_leave_scipy_unloaded(tmp_path):
    code = """
        import sys

        import alcove
        import alcove.cli
        from alcove.cli import main
        from alcove.dataset_io import generate_synthetic
        from alcove.harness import RunConfig, run_al
        from alcove.strategies import QuerySpec

        def assert_unloaded(after):
            assert "scipy" not in sys.modules, f"scipy loaded by {after}"

        assert_unloaded("import alcove, alcove.cli")
        header = "strategy,seed,iteration,labeled,accuracy,candidate_fraction"
        rows = [f"{k},{s},{t},{3 * t},{0.1 * (s + t + (k == 'a'))}," for k in "ab" for s in range(1, 6) for t in (1, 2)]
        with open("records.csv", "w") as f:
            f.write("\\n".join([header] + rows) + "\\n")
        assert main(["stats", "records.csv", "--out", "wm"]) == 0
        assert_unloaded("alcove stats")
        rec = run_al(generate_synthetic(3, 10, 4, 4.0, 1), RunConfig(QuerySpec("margins"), iterations=2), seed=1)
        assert [row.iteration for row in rec.rows] == [1, 2]
        assert_unloaded("a margins run from random init")
    """
    run_fresh(textwrap.dedent(code), tmp_path)


PRELUDE = """
import numpy as np

from alcove.classifier import LinearClassifier
from alcove.geometry import kmeans
from alcove.semisup import build_knn_graph, label_propagate
from alcove.strategies import QuerySpec, prepare, query

rng = np.random.default_rng(7)
feats = rng.normal(size=(60, 4))
"""

FIRST_SCIPY_USERS = {
    "kmeans": """
c = kmeans(feats, 5, seed=3)
out = {"centroids": c.centroids, "assignments": c.assignments, "inertia": np.float64(c.inertia)}
""",
    "probcover": """
clf = LinearClassifier(rng.normal(size=(3, 4)), rng.normal(size=3))
state = prepare(QuerySpec("probcover"), feats, np.arange(60), 3, seed=2)
got = query(QuerySpec("probcover"), feats, clf, [0, 1, 2], [0, 1, 2], np.arange(3, 60), 5, seed=2, state=state)
out = {"selected": got.selected, "delta": np.float64(state.delta)}
""",
    "knn-graph": """
s = build_knn_graph(feats, k=6)
y = np.zeros((60, 3))
y[[0, 1, 2], [0, 1, 2]] = 1.0
p = label_propagate(s, y)
out = {"indptr": s.indptr, "indices": s.indices, "data": s.data,
       "pseudo_probs": p.pseudo_probs, "weights": p.weights}
""",
}


@pytest.mark.parametrize("case", sorted(FIRST_SCIPY_USERS))
def test_first_scipy_user_matches_the_in_process_result_bit_for_bit(tmp_path, case):
    body = FIRST_SCIPY_USERS[case]
    code = "\n".join([
        "import sys",
        PRELUDE,
        'assert "scipy" not in sys.modules',
        body,
        'assert "scipy.sparse" in sys.modules',
        'np.savez("out.npz", **out)',
    ])
    run_fresh(code, tmp_path)
    namespace = {}
    exec(PRELUDE + body, namespace)
    want = namespace["out"]
    with np.load(tmp_path / "out.npz") as got:
        assert sorted(got.files) == sorted(want)
        for name, value in want.items():
            assert got[name].dtype == value.dtype, name
            assert got[name].tobytes() == value.tobytes(), name
