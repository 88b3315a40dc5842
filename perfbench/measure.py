"""One measured run of a workload, in a process of its own, so that its peak
memory and its children's CPU time belong to egr and not to the set-up
starts or the checks.

    python3 perfbench/measure.py --workload census --seed 1 --seconds 58 --trace 0

Drives egr through `egr.cli.main` in this process with stdout captured,
checks every output against `workloads.check`, and prints one JSON object
with `correct`, `attempted`, `failed` and the raw metric values.  The
end-to-end and per-layer metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from spans import CallCounter, Tracer, patched
from workloads import Command, check, commands, comparable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
PAUSE = "pause"


def import_egr():
    sys.path.insert(0, str(SRC))
    import egr
    import egr.cli

    if Path(egr.__file__).resolve().parent != SRC / "egr":
        raise SystemExit(f"egr was imported from {egr.__file__}, not from {SRC}")
    return egr


def cpu_times() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


@dataclass
class Round:
    wall: float
    cpu_self: float
    cpu_children: float
    outputs: list[str | None]  # None where the command failed

    @property
    def cpu(self) -> float:
        return self.cpu_self + self.cpu_children


def run_round(main, cmds: list[Command]) -> Round:
    outputs = []
    self0, kids0 = cpu_times()
    start = time.perf_counter()
    for cmd in cmds:
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = main(list(cmd.argv))
        except SystemExit as exit_:
            code = exit_.code
        except Exception:
            traceback.print_exc()
            code = None
        if code != 0:
            print(f"egr {' '.join(cmd.argv)} failed with {code!r}", file=sys.stderr)
        outputs.append(buf.getvalue() if code == 0 else None)
    wall = time.perf_counter() - start
    self1, kids1 = cpu_times()
    return Round(wall, self1 - self0, kids1 - kids0, outputs)


class Outputs:
    """Keeps the first output of each command position and checks it
    against the oracle once; every later output at that position, from any
    round or worker count, must equal it where it is comparable."""

    def __init__(self):
        self.first: dict[int, tuple[Command, str]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, cmds: list[Command], outputs: list[str | None]) -> None:
        for i, (cmd, text) in enumerate(zip(cmds, outputs)):
            self.attempted += 1
            if text is None:
                self.failed += 1
            elif i not in self.first:
                self.first[i] = (cmd, text)
            elif comparable(cmd, text) != comparable(*self.first[i]):
                self.errors.append(f"egr {' '.join(cmd.argv)}: output differs from an earlier round")

    def verify(self) -> bool:
        for cmd, text in self.first.values():
            try:
                check(cmd, text)
            except (AssertionError, ValueError, KeyError) as err:
                self.errors.append(f"egr {' '.join(cmd.argv)}: {err}")
        for error in self.errors:
            print(error, file=sys.stderr)
        return not self.errors


def pause() -> None:
    """Hands the machine to run.py, which times set-up starts meanwhile."""
    print(PAUSE, flush=True)
    sys.stdin.readline()


def timed(workload: str, seed: int, seconds: float, cli) -> tuple[Outputs, dict]:
    """Whole rounds while the next one, at the median round time so far,
    would end within `seconds`; a pause before the first round and after each.

    The host's CPU speed drifts by tens of percent over tens of seconds, so
    the times are means over the whole run, not the median or best round."""
    cmds = commands(workload, seed)
    outputs = Outputs()
    walls, cpus = [], []
    pause()
    while True:
        r = run_round(cli.main, cmds)
        outputs.add(cmds, r.outputs)
        walls.append(r.wall)
        cpus.append(r.cpu)
        pause()
        if sum(walls) + statistics.median(walls) > seconds:
            break
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    wall = statistics.fmean(walls)
    return outputs, {
        "wall_s": wall,
        "cpu_s": statistics.fmean(cpus),
        "edges_per_s": sum(cmd.edges() for cmd in cmds) / wall,
        "peak_rss_mb": peak_kb / 1024,
        "rounds": len(walls),
    }


def span_targets(egr, tracer: Tracer):
    w = tracer.wrap
    return [
        (egr.Field, "__init__", w("finite_field.field_build")),
        (egr.adg, "build_adjacency", w("adg.adjacency")),
        (egr.adg, "edge_list_lines", w("adg.export")),
        (egr.adg, "to_graph6", w("adg.export")),
        (egr.graph6, "encode_graph6", w("graph6.encode")),
        (egr.census, "certify", w("census.check")),
        (egr.census, "girth_of_adjacency", w("census.girth")),
        (egr.census, "count_simple_paths", w("census.count")),
        (egr.automorphisms, "verify_automorphism", w("automorphisms.verify")),
        (egr.automorphisms, "edge_to_base", w("automorphisms.edge_to_base")),
    ]


def count_targets(egr, counter: CallCounter):
    c = counter.wrap
    return [
        (egr.FieldElement, "__mul__", c("finite_field.mul_calls")),
        (egr.FieldElement, "frobenius", c("finite_field.frobenius_calls")),
        (egr.adg, "neighbors", c("adg.neighbors_calls")),
        (egr.adg, "adjacent", c("adg.adjacent_calls")),
    ]


def traced(workload: str, seed: int, egr) -> tuple[Outputs, dict]:
    """Untraced rounds at the workload's worker count and serially, then a
    serial round with spans and a serial round with call counters."""
    cli = egr.cli
    cmds = commands(workload, seed)
    serial_cmds = commands(workload, seed, workers=1)
    outputs = Outputs()

    pool = run_round(cli.main, cmds)
    outputs.add(cmds, pool.outputs)
    serial = pool
    if serial_cmds != cmds:
        serial = run_round(cli.main, serial_cmds)
        outputs.add(serial_cmds, serial.outputs)

    tracer = Tracer()
    with patched(span_targets(egr, tracer)):
        spanned = run_round(tracer.wrap("cli")(cli.main), serial_cmds)
    outputs.add(serial_cmds, spanned.outputs)

    counter = CallCounter()
    with patched(count_targets(egr, counter)):
        counted = run_round(cli.main, serial_cmds)
    outputs.add(serial_cmds, counted.outputs)

    layers = tracer.layers()
    command_time = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    self_total = sum(seconds for seconds, _ in layers.values())
    if abs(self_total - command_time) > 1e-6:
        outputs.errors.append(
            f"span self times add up to {self_total:.6f} s, traced commands took {command_time:.6f} s"
        )

    def self_s(layer):
        return layers.get(layer, (0.0, 0))[0]

    def calls(layer):
        return layers.get(layer, (0.0, 0))[1]

    count_calls = calls("census.count")
    metrics = {
        "finite_field.field_build_s": self_s("finite_field.field_build"),
        "finite_field.mul_calls": counter.counts["finite_field.mul_calls"],
        "finite_field.frobenius_calls": counter.counts["finite_field.frobenius_calls"],
        "adg.adjacency_s": self_s("adg.adjacency"),
        "adg.adjacency_builds": calls("adg.adjacency") / len(cmds),
        "adg.neighbors_calls": counter.counts["adg.neighbors_calls"],
        "adg.adjacent_calls": counter.counts["adg.adjacent_calls"],
        "adg.export_s": self_s("adg.export"),
        "graph6.encode_s": self_s("graph6.encode"),
        "census.girth_runs": calls("census.girth") / len(cmds),
        "census.girth_s": self_s("census.girth"),
        "census.count_s": self_s("census.count"),
        "census.count_calls": count_calls,
        "census.count_ms_per_edge": 1000 * self_s("census.count") / count_calls if count_calls else 0.0,
        "census.check_s": self_s("census.check"),
        "census.pool_child_cpu_s": pool.cpu_children,
        "census.pool_speedup": serial.wall / pool.wall if serial is not pool else 1.0,
        "automorphisms.verify_s": self_s("automorphisms.verify"),
        "automorphisms.edge_to_base_s": self_s("automorphisms.edge_to_base"),
        "cli.residual_s": self_s("cli"),
        "trace.overhead_s": spanned.wall - serial.wall,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    trace_file = RESULTS / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "commands": [" ".join(cmd.argv) for cmd in serial_cmds],
                "traced_command_s": command_time,
                "layers": {name: {"self_s": s, "calls": n} for name, (s, n) in sorted(layers.items())},
                "counts": dict(sorted(counter.counts.items())),
                "metrics": metrics,
                **tracer.to_json(),
            }
        )
    )
    return outputs, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    egr = import_egr()
    if args.trace:
        outputs, metrics = traced(args.workload, args.seed, egr)
    else:
        outputs, metrics = timed(args.workload, args.seed, args.seconds, egr.cli)
    correct = outputs.verify()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outputs.attempted,
                "failed": outputs.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
