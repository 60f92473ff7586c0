"""Benchmark of the affinehe CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload he_polystable_t1 --seed 1 \
        --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``affinehe`` from
``src/``).  All operations run in this one process through the CLI entry
point ``affinehe.cli.main``, in whole rounds, until ``--seconds`` have
passed.  Every operation's outputs are checked against values computed
apart from the program (``workloads.py``).

``--trace 0`` reports the end-to-end metrics: ``ops_per_min`` over the
whole run, ``setup_s`` (median over several fresh-process imports spread
over the run) and ``peak_rss_mb`` of this process.  ``--trace 1`` alternates
untraced and traced rounds and reports per-operation layer metrics from the
traced ones, plus ``trace.overhead_s``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: on a 2-core host two
# threads made the solves both slower and less steady (see README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SETUP_IMPORT = ("import affinehe.cli, affinehe.continuation, "
                "affinehe.gauduchon, affinehe.destabilizer")


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing the CLI and its modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=env, check=True,
                   timeout=120)
    return time.perf_counter() - t0


class Runner:
    """Runs the operations of one workload round by round and checks them."""

    def __init__(self, workload, seed: int):
        from affinehe import cli
        from workloads import write_ini

        self.cli = cli
        self.workload = workload
        run_dir = OUT / f"{workload.name}-seed{seed}"
        shutil.rmtree(run_dir, ignore_errors=True)
        self.ops = workload.make_round(seed)
        self.dirs = []
        for i, op in enumerate(self.ops):
            d = run_dir / f"op{i}"
            d.mkdir(parents=True)
            write_ini(d / "run.ini", op.config)
            self.dirs.append(d)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run_round(self, on_op=None) -> list[float]:
        """One pass over the round; returns each operation's wall time."""
        times = []
        for i, (op, d) in enumerate(zip(self.ops, self.dirs)):
            if on_op is not None:
                on_op(self.attempted)
            argv = [op.command, "--config", str(d / "run.ini"),
                    "--out", str(d / "out"), "--quiet"]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            times.append(time.perf_counter() - t0)
            if code != 0:
                print(f"op {i}: exit code {code}", file=sys.stderr)
                self.failed += 1
                continue
            try:
                problems = self.workload.check(op, d / "out")
            except Exception as exc:  # a missing or malformed output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                print(f"op {i}: " + "; ".join(problems), file=sys.stderr)
                self.failed += 1
                self.wrong += 1
        return times

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(runner: Runner, seconds: float) -> dict:
    """Whole rounds until the time is up, with set-up probes between them."""
    op_times, probes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        op_times += runner.run_round()
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe())
        if time.perf_counter() >= deadline:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe())
    done = runner.attempted - runner.failed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return runner.result({
        "ops_per_min": metric(60.0 * done / sum(op_times), "ops/min"),
        "setup_s": metric(statistics.median(probes), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    })


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Pairs of rounds, untraced then traced, until the time is up."""
    from tracing import Tracer, per_op

    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain += runner.run_round()
        tracer.install()
        try:
            traced += runner.run_round(on_op=tracer.begin_op)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    tracer.save(spans_path)
    n = len(traced)
    metrics = {name: metric(v, "count" if name.endswith(".calls")
                            or name.endswith("_per_direction") else "s")
               for name, v in per_op(tracer.layer_totals(), n).items()}
    metrics["trace.overhead_s"] = metric(
        statistics.mean(traced) - statistics.mean(plain), "s")
    return runner.result(metrics)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "affinehe" / "cli.py").is_file():
        print(f"no affinehe sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # load what the CLI imports lazily, so no operation pays for it
    import affinehe.continuation  # noqa: F401
    import affinehe.destabilizer  # noqa: F401
    import affinehe.gauduchon  # noqa: F401

    runner = Runner(WORKLOADS[args.workload], args.seed)
    if args.trace:
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
        result = traced_run(runner, args.seconds, spans)
    else:
        result = timed_run(runner, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
