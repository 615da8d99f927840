"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload protocol-grid --seed 1 --seconds 36 --trace 0

The run writes its inputs, builds the program's view of them through
``load_dataset``, runs one untimed warm-up round, then repeats the
workload's unit until ``--seconds`` have passed (at least the workload's
minimum number of units), checks the outputs, and prints
``{"correct", "attempted", "failed", "metrics"}`` as the last line. With
``--trace 1`` each unit runs twice, untraced and then traced, and the
metrics are the per-layer ones. It exits 1 if a check fails and 2 if the
program cannot be imported from ``src/``.
"""

import os

# One BLAS thread and one harness worker: a second thread gains little on
# these sizes and pulls the machine's other tenants into the measurement.
THREAD_SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ALCOVE_THREADS": "1",
}
os.environ.update(THREAD_SETTINGS)

import ctypes  # noqa: E402

# glibc raises its mmap threshold each time it frees a mapped block, so which
# arrays stay in the heap, and with them the peak RSS, would depend on the
# order of earlier frees: on paper-query that split seeds into two groups 30 MB
# apart. Fixing the threshold at 32 MiB, the most the dynamic rule reaches,
# keeps that rule's steady state without the dependence on order.
M_MMAP_THRESHOLD = -3
try:
    _libc = ctypes.CDLL("libc.so.6")
    _libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _libc.mallopt(M_MMAP_THRESHOLD, 32 * 2**20)
except (OSError, AttributeError):
    pass

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from inputs import make_blobs, write_dataset  # noqa: E402
from workloads import WORKLOADS, Context, check_run, check_unit  # noqa: E402

SETUP_PROBES = 5


def measure_setup(manifest: Path) -> float:
    """Median seconds to import alcove and load the inputs, each in a fresh process.

    One extra probe runs first and is dropped: it compiles the bytecode cache.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(manifest)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def import_alcove():
    sys.path.insert(0, str(SRC))
    import alcove
    import alcove.cli  # noqa: F401  (registers the submodule for patching)

    if Path(alcove.__file__).resolve().parent != SRC / "alcove":
        raise ImportError(f"alcove imported from {alcove.__file__}, not from {SRC}")
    return alcove


def timed_units(run_unit, seconds: float, min_units: int) -> list:
    """Run units until ``seconds`` have passed, ending at the unit boundary
    nearest to that time, and never fewer than ``min_units``."""
    done = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(done) >= min_units and elapsed + 0.5 * elapsed / len(done) >= seconds:
            return done
        done.append(run_unit(len(done)))


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    blobs = make_blobs(seed=seed, **workload.inputs)
    ctx = Context(seed=seed, work=work, blobs=blobs, manifest=write_dataset(blobs, work / "data"))
    workload.prepare(ctx)
    setup_s = measure_setup(ctx.manifest)

    ctx.alcove = import_alcove()
    modules = tracing.alcove_modules()
    ctx.capture = tracing.Capture()
    capture_patch = tracing.Patch()
    ctx.capture.install(capture_patch, modules)
    tracer = tracing.Tracer()
    trace_patch = tracing.Patch()
    load_tracer = tracing.Tracer()
    if trace:
        load_tracer.install(trace_patch, modules)
    ctx.dataset = ctx.alcove.load_dataset(ctx.manifest)
    trace_patch.undo()
    problems = []
    seen = {}

    def checked(check, *args):
        try:
            check(*args)
        except checks.CheckFailed as exc:
            problems.append(str(exc))

    ds = ctx.dataset
    checked(checks.check_inputs, blobs, ds.features, ds.labels, ds.train_indices, ds.test_indices)
    workload.warmup(ctx)
    ctx.capture.clear()

    def one_unit(index):
        c0, t0 = time.process_time(), time.perf_counter()
        unit = workload.unit(ctx, index)
        unit.wall, unit.cpu = time.perf_counter() - t0, time.process_time() - c0
        print(f"unit {index}: {unit.rounds} rounds in {unit.wall:.3f} s wall, {unit.cpu:.3f} s cpu",
              file=sys.stderr)
        checked(check_unit, ctx, workload, unit, seen)
        return unit

    def traced_pair(index):
        plain = one_unit(index)
        tracer.install(trace_patch, modules)
        try:
            traced = one_unit(index)
        finally:
            trace_patch.undo()
        return plain, traced

    if trace:
        pairs = timed_units(traced_pair, seconds, 1)
        units = [u for pair in pairs for u in pair]
    else:
        units = timed_units(one_unit, seconds, workload.min_units)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    capture_patch.undo()

    checked(check_run, ctx, units, seen)
    if trace:
        for plain, traced in pairs:
            checked(checks.require, plain.cells == traced.cells,
                    "a traced unit's rows differ from its untraced run")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        tracer.write(ROOT / ".perfbench" / f"trace-{workload.name}-{seed}.tsv")
        metrics = layers.per_layer(tracer, load_tracer, pairs)
    else:
        first = [acc for u in units[: workload.min_units] for _, accs, _ in u.cells for acc in accs]
        metrics = {
            "rounds_per_s": (statistics.median(u.rounds / u.wall for u in units), "1/s"),
            "cpu_s": (statistics.median(u.cpu for u in units), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "alc_accuracy": (sum(first) / len(first), "ratio"),
        }
    return {
        "correct": not problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alcove" / "__init__.py").is_file():
        print(f"error: the program is not at {SRC / 'alcove'}", file=sys.stderr)
        return 2
    # a terminated run still removes its work files and stops its probe
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except (ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
