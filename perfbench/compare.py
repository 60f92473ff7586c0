"""Run the benchmark in two sets of seeds and compare the sets.

    python3 perfbench/compare.py --trace-check

Runs ``run.py`` once per (set, seed, workload) for every workload of
``BENCHMARK.json``, one run at a time; set 1 uses seeds 1-10 and set 2
seeds 11-20, and workloads alternate within a set so that slow spells of
the host fall on all of them alike.  For each workload and end-to-end
metric it prints the median, the quartiles and the spread
(q3 - q1) / median of each set, and checks the rules of ``BENCHMARK.json``:
each spread within the metric's bound, the second median no worse than the
first by more than the bound, and the same share of failed operations.
``--trace-check`` makes traced runs of every workload, seed 1 twice and
then one seed for each other presentation the seed can pick (see
``TRACE_SEEDS``), and requires every ``.calls`` metric to be identical
across them.  Raw results go to ``.perfbench_out/``.

Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10
SETS = 2
# Traced seeds per workload: seed 1 twice, then one seed for each axis the
# seed can pick that seed 1 does not (workloads.py): blowup_t2 seed 1 puts
# U on axis 1 and seed 2 on axis 2; gauduchon_t3 seeds 1, 2 and 11 pick the
# axes 2, 3 and 1, each with another amplitude.
TRACE_SEEDS = {
    "he_polystable_t1": (1, 1),
    "blowup_t2": (1, 1, 2),
    "gauduchon_t3": (1, 1, 2, 11),
}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--trace-check", action="store_true")
    args = p.parse_args(argv)
    raw = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    ok = True

    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in WORKLOADS:
                r = run_once(w, seed, 0)
                raw[w][s].append(r)
                vals = " ".join(f"{k}={v['value']:.4f}"
                                for k, v in r["metrics"].items())
                print(f"set {s + 1} seed {seed:3d} {w:18s} {r['attempted']:3d} ops "
                      f"{r['failed']} failed correct={r['correct']} {vals} "
                      f"({r['wall_s']:.1f} s)", flush=True)
                ok &= r["correct"]

    print()
    print(f"{'workload':18s} {'metric':12s} {'set':>3s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in range(SETS):
                med, q1, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in raw[w][s]])
                meds.append(med)
                flag = ""
                if spread > bound:
                    flag, ok = "SPREAD > BOUND", False
                print(f"{w:18s} {name:12s} {s + 1:3d} {med:10.4f} {q1:10.4f} "
                      f"{q3:10.4f} {spread:7.3f} {bound:6.2f} {flag}")
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (meds[1] - meds[0]) / meds[0]
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok &= worse <= bound
            print(f"{w:18s} {name:12s} set 2 vs 1: {worse:+.3f} worse "
                  f"(bound {bound}) {verdict}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in raw[w]]
        same = len(set(shares)) == 1
        ok &= same
        print(f"{w:18s} failed share per set: {shares} "
              f"{'same' if same else 'DIFFERENT'}")

    traces = {}
    if args.trace_check:
        print()
        for w in WORKLOADS:
            seeds = TRACE_SEEDS[w]
            runs = [run_once(w, seed, 1) for seed in seeds]
            traces[w] = runs
            calls = [{k: v["value"] for k, v in r["metrics"].items()
                      if k.endswith(".calls")} for r in runs]
            same = all(c == calls[0] for c in calls)
            ok &= same and all(r["correct"] for r in runs)
            print(f"{w:18s} traced seeds {seeds}: .calls "
                  f"{'identical' if same else 'DIFFER'}")
            for k, v in runs[0]["metrics"].items():
                others = " ".join(f"{r['metrics'][k]['value']:12.6g}"
                                  for r in runs[1:])
                print(f"  {k:45s} {v['value']:12.6g} {others} {v['unit']}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"compare-{stamp}.json").write_text(
        json.dumps({"runs": raw, "traces": traces}, indent=1))
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
