"""egr's benchmark: one measured run of a workload, or a steadiness check.

    python3 perfbench/run.py --workload census --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --steadiness --runs 10 [--workloads census,export-automorphism] [--sets 2]

A run starts perfbench/measure.py for the workload, times `setup_s` from
fresh interpreter starts between its rounds, and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
The steadiness mode repeats runs over consecutive seeds and prints each
metric's median, quartiles and spread against its bound.  Run from the root
of a checkout; egr is imported from its `src` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import field_orders

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_WARMUP = 2
SETUP_BATCH = 4
SETUP_CODE = "import sys, egr\nfor q in sys.argv[1:]:\n    egr.Field.of_order(int(q))\n"
PAUSE = "pause"  # measure.py's line between rounds; it resumes on a newline


class SetupTimer:
    """Times fresh interpreters that import egr and build Field.of_order(q)
    for every q of the workload.  The starts come in batches between the
    measured rounds, so that they sample the same stretch of machine time."""

    def __init__(self, workload: str):
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.env = dict(os.environ, PYTHONPATH=path)
        self.argv = [sys.executable, "-c", SETUP_CODE, *map(str, field_orders(workload))]
        self.times: list[float] = []
        for _ in range(SETUP_WARMUP):
            self._start()

    def _start(self) -> float:
        start = time.perf_counter()
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    def batch(self) -> None:
        self.times += [self._start() for _ in range(SETUP_BATCH)]


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Runs measure.py; while it pauses between the rounds of an untraced
    run, times a batch of set-up starts, and adds `setup_s` to its metrics."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    setup = None if trace else SetupTimer(workload)
    with subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        last = ""
        for line in proc.stdout:
            if line.strip() == PAUSE:
                setup.batch()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                last = line
    if proc.returncode:
        raise SystemExit(f"measure.py exited with code {proc.returncode}")
    result = json.loads(last)
    if setup is not None:
        result["metrics"]["setup_s"] = statistics.median(setup.times)
    return result


def one_run(bench: dict, args) -> dict:
    raw = measure(args.workload, args.seed, args.seconds, args.trace)
    values = raw["metrics"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    extra = {k: v for k, v in values.items() if k not in {m["name"] for m in declared}}
    if extra:
        print(f"{args.workload} seed {args.seed}: {json.dumps(extra)}", file=sys.stderr)
    return {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def steadiness(bench: dict, args) -> int:
    """Runs every chosen workload `runs` times per set, each on its own seed,
    and prints each metric's median and quartiles against its bound."""
    declared = bench["per_layer" if args.trace else "end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report = {}
    seed = args.seed
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            results = []
            for _ in range(args.runs):
                argv = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ]
                started = time.perf_counter()
                proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if proc.returncode:
                    raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result["run_s"] = time.perf_counter() - started
                results.append(result)
                seed += 1
            sets.append(results)
        report[workload] = sets
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), {args.seconds} s each")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  shift")
        for metric in declared:
            name, bound = metric["name"], metric.get("bound")
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
                medians.append(median)
                spread = (q3 - q1) / median if median else 0.0
                shift = ""
                if len(medians) > 1 and medians[0]:
                    worse = 1 if metric["better"] == "lower" else -1
                    shift = f"{worse * (median - medians[0]) / medians[0]:+.3f}"
                bound_text = f"{bound:6.3f}" if bound is not None else "     -"
                print(f"  {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound_text}  {shift}")
        for i, results in enumerate(sets):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            took = [r["run_s"] for r in results]
            print(
                f"  set {i + 1}: correct={correct} failed {failed}/{attempted}, "
                f"a run took {min(took):.1f} to {max(took):.1f} s"
            )
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace, "runs": report}, indent=1))
    print(f"\nall results: {out.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true", help="repeat runs and report spreads")
    parser.add_argument("--workloads", help="steadiness: comma-separated workloads (default all)")
    parser.add_argument("--runs", type=int, default=10, help="steadiness: runs per set")
    parser.add_argument("--sets", type=int, default=1, help="steadiness: sets of runs to compare")
    args = parser.parse_args()

    if not (SRC / "egr" / "__init__.py").is_file():
        print(f"run.py: no egr sources at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.steadiness:
        return steadiness(bench, args)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in bench['workloads']]}")
    print(json.dumps(one_run(bench, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
