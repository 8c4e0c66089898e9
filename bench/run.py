#!/usr/bin/env python3
"""Benchmark of the conformal-gate command line.

Run from the repository root:

    python3 bench/run.py --workload tall --seed 1 --seconds 25 --trace 0

A run writes seeded calibration and test CSVs for its workload
(``inputs.py``), then repeats the five user commands -- ``calibrate``,
``predict``, ``evaluate``, ``evaluate --predictions`` and ``simulate`` -- as
fresh child processes, one at a time, until ``--seconds`` have passed.  An
untimed warm-up round comes first; its outputs are checked against the
numpy oracle (``oracle.py``) and every later round's outputs must match
them byte for byte.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
wall time of each command, the largest peak RSS of any child, and the
median set-up time of a fresh interpreter that imports the CLI, builds its
parser and exits (``--help``).  Each time is scaled to a reference machine
speed by a probe timed around the child (``children.py``).  ``--trace 1`` reports the per-layer
metrics instead: it runs the same commands in-process, alternating
untraced rounds with rounds traced by ``spans.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
commands that exited nonzero, timed out or failed the oracle.  The line
before it is the run record: machine, versions, input digests and sample
counts.  Records and traces are also kept under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from children import LAUNCHER, ChildRun, child_env, run_child
from inputs import Shape, make_split
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ALPHA = 0.05
CHILD_TIMEOUT_S = 60.0
IMPORT_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import conformal_gate.cli; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Workload:
    shape: Shape
    n_calib: int  # rows of the calibration CSV
    n_test: int  # rows of the test CSV
    sim_calib: int  # simulate --n-calib
    sim_test: int  # simulate --n-test
    sim_seeds: int  # simulate --seeds


# Every workload runs all five commands, so every end-to-end metric exists
# on every workload; the shapes decide which layers dominate.
WORKLOADS = {
    "tall": Workload(Shape(10, 20.0, 0.02, float32=True), 6_000, 12_000, 2_000, 4_000, 2),
    "wide": Workload(Shape(500, 30.0, 0.1, float32=False), 250, 500, 100, 200, 2),
    "simulate": Workload(Shape(9, 4.0, 0.1, float32=False), 300, 3_000, 200, 2_000, 20),
}

COMMANDS = ("calibrate", "predict", "evaluate", "evaluate_sets", "simulate")

OUTPUTS = {
    "calibrate": ("artifact.json", "curve.csv"),
    "predict": ("sets.jsonl",),
    "evaluate": ("report.json", "report.csv"),
    "evaluate_sets": ("report_sets.json", "report_sets.csv"),
    "simulate": ("trial.json",),
}


def command_args(w: Workload, work: Path, seed: int) -> dict[str, list[str]]:
    def p(name: str) -> str:
        return str(work / name)

    s = w.shape
    return {
        "calibrate": ["calibrate", "--input", p("calib.csv"), "--alpha", str(ALPHA),
                      "--out", p("artifact.json"), "--curve", p("curve.csv")],
        "predict": ["predict", "--calibration", p("artifact.json"), "--input", p("test.csv"),
                    "--out", p("sets.jsonl")],
        "evaluate": ["evaluate", "--calibration", p("artifact.json"), "--input", p("test.csv"),
                     "--out-json", p("report.json"), "--out-csv", p("report.csv")],
        "evaluate_sets": ["evaluate", "--predictions", p("sets.jsonl"), "--input", p("test.csv"),
                          "--out-json", p("report_sets.json"), "--out-csv", p("report_sets.csv")],
        "simulate": ["simulate", "--k", str(s.k), "--n-calib", str(w.sim_calib),
                     "--n-test", str(w.sim_test), "--alpha", str(ALPHA),
                     "--seeds", str(w.sim_seeds), "--noise", str(s.noise),
                     "--sharpness", str(s.sharpness), "--seed", str(seed),
                     "--out", p("trial.json")],
    }


class Run:
    """One benchmark run: its inputs, its children and its verdicts."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.args = command_args(self.workload, work, seed)
        self.env = child_env(SRC)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.children: list[ChildRun] = []
        self.reference: dict[str, list[str]] = {}  # command -> digests of checked outputs
        self.record: dict = {}

    # -- inputs --------------------------------------------------------------

    def prepare(self) -> None:
        w = self.workload
        start = time.perf_counter()
        calib_text, test_text = make_split(self.seed, w.shape, w.n_calib, w.n_test, ALPHA)
        for name, text in (("calib.csv", calib_text), ("test.csv", test_text)):
            (self.work / name).write_text(text, encoding="utf-8")
        generated = time.perf_counter()
        self.calib = oracle.load_csv(self.work / "calib.csv")
        self.test = oracle.load_csv(self.work / "test.csv")
        _, self.tau = oracle.threshold(self.calib, ALPHA)
        self.record.update(
            input_generation_s=generated - start,
            oracle_parse_s=time.perf_counter() - generated,
            inputs={name: oracle.sha256(self.work / name) for name in ("calib.csv", "test.csv")},
            renormalised_rows=self.calib.renormalised + self.test.renormalised,
            threshold=self.tau,
        )

    # -- checks --------------------------------------------------------------

    def _oracle(self, command: str) -> list[str]:
        w, f = self.workload, self.work.__truediv__
        if command == "calibrate":
            return oracle.check_calibration(f("artifact.json"), f("curve.csv"), f("calib.csv"),
                                            self.calib, ALPHA)
        if command == "predict":
            return oracle.check_sets(f("sets.jsonl"), self.test, self.tau)
        if command == "evaluate":
            return oracle.check_report(f("report.json"), f("report.csv"), self.test, self.tau)
        if command == "evaluate_sets":
            return (oracle.check_report(f("report_sets.json"), f("report_sets.csv"),
                                        self.test, self.tau)
                    + oracle.check_same(f("report.json"), f("report_sets.json"))
                    + oracle.check_same(f("report.csv"), f("report_sets.csv")))
        return oracle.check_trial(f("trial.json"), w.shape.k, w.sim_calib, w.sim_test,
                                  ALPHA, w.sim_seeds)

    def verify(self, command: str, exit_code: int | None, stderr: str) -> None:
        """Count one attempt; fail it on a bad exit or a wrong output.

        The first successful output of a command is checked by the oracle;
        later ones must be byte-identical to it.
        """
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}: {stderr.strip()[-500:]}"]
        elif command not in OUTPUTS:
            problems = []
        else:
            digests = [oracle.sha256(self.work / name) for name in OUTPUTS[command]]
            if command in self.reference:
                same = digests == self.reference[command]
                problems = [] if same else ["output differs from the checked first output"]
            else:
                try:
                    problems = self._oracle(command)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                if not problems:
                    self.reference[command] = digests
        self.failed += bool(problems)
        self.failures.extend(f"{command}: {p}" for p in problems)

    # -- child processes -----------------------------------------------------

    def spawn(self, argv_tail: list[str], code: str = LAUNCHER) -> ChildRun:
        child = run_child([sys.executable, "-c", code, *argv_tail], self.env, self.work,
                          CHILD_TIMEOUT_S)
        self.children.append(child)
        return child

    def command_child(self, command: str) -> ChildRun:
        child = self.spawn(self.args[command])
        self.verify(command, child.exit_code, child.stderr)
        return child

    def setup_child(self) -> ChildRun:
        child = self.spawn(["--help"])
        self.verify("setup", child.exit_code, child.stderr)
        return child

    def child_round(self) -> dict[str, ChildRun]:
        return {command: self.command_child(command) for command in COMMANDS}

    # -- in-process ----------------------------------------------------------

    def in_process_round(self, main, tracer: Tracer | None) -> float:
        """Run every command through ``cli.main`` in this process; total wall s."""
        total = 0.0
        for command in COMMANDS:
            gc.collect()
            if tracer is not None:
                tracer.command = command
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                exit_code = main(self.args[command])
            total += time.perf_counter() - start
            self.verify(command, exit_code, sink.getvalue())
            if tracer is not None and command in ("predict", "evaluate_sets"):
                size = (self.work / "sets.jsonl").stat().st_size
                tracer.counters[command]["cli.sets_bytes"] += size
        return total


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    run.setup_child()
    run.child_round()  # warm-up: bytecode, page cache, oracle check
    samples: dict[str, list[ChildRun]] = {f"{c}_s": [] for c in (*COMMANDS, "setup")}
    start = time.perf_counter()
    while True:
        samples["setup_s"].append(run.setup_child())
        for command in COMMANDS:
            samples[f"{command}_s"].append(run.command_child(command))
        if time.perf_counter() - start >= seconds:
            break
    run.record["samples"] = {
        name: {"scaled_s": summary([c.scaled_s for c in children]),
               "wall_s": [c.wall_s for c in children],
               "speed": [c.speed for c in children]}
        for name, children in samples.items()}
    metrics = {name: statistics.median(c.scaled_s for c in children)
               for name, children in samples.items()}
    metrics["peak_rss_mb"] = max(child.maxrss_mib for child in run.children)
    return metrics


def per_layer(run: Run, seconds: float, trace_file: Path) -> dict[str, float]:
    run.child_round()  # warm-up: bytecode, page cache, oracle check
    children = run.child_round()
    imports = [float(run.spawn([], code=IMPORT_PROBE).stdout) for _ in range(IMPORT_SAMPLES)]

    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("conformal_gate.cli")
    untraced: list[float] = []
    rounds: list[tuple[float, Tracer]] = []
    start = time.perf_counter()
    while True:
        untraced.append(run.in_process_round(cli.main, None))
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append((run.in_process_round(cli.main, tracer), tracer))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            break

    per_round = []
    for _, tracer in rounds:
        by_command = tracer.self_times()
        for command, counters in tracer.counters.items():
            by_command[command].update(counters)
        totals = {}
        for values in by_command.values():
            for key, value in values.items():
                totals[key] = totals.get(key, 0) + value
        per_round.append((totals, by_command))
        negative = [s.name for s in tracer.spans if s.self_ns < 0]
        run.failures.extend(f"trace: negative self time in {name}" for name in negative)

    def median(key: str) -> float:
        return statistics.median(totals.get(key, 0) for totals, _ in per_round)

    layers = {key for totals, _ in per_round for key in totals}
    metrics = {key: median(key) for key in layers}
    rows_in = metrics.get("io.rows_read", 0) + metrics.get("synth.rows_generated", 0)
    revalidated = metrics.get("core_types.validated_rows", 0)
    metrics["core_types.revalidated_rows_ratio"] = revalidated / rows_in
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.cpu_s"] = sum(child.cpu_s for child in children.values())
    metrics["cli.offcpu_s"] = sum(child.offcpu_s for child in children.values())
    traced = [wall for wall, _ in rounds]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    run.record["samples"] = {"traced_round_s": summary(traced),
                             "untraced_round_s": summary(untraced),
                             "cli.import_s": summary(imports)}
    trace_file.write_text(json.dumps({
        "bindings": rounds[0][1].bindings,
        "untraced_round_s": untraced,
        "rounds": [{"wall_s": wall, "per_command": by_command, "spans": tracer.as_json()}
                   for (wall, tracer), (_, by_command) in zip(rounds, per_round)],
    }) + "\n", encoding="utf-8")
    return metrics


def machine() -> dict:
    def read(path: Path) -> str | None:
        try:
            return path.read_text(encoding="utf-8").strip()
        except OSError:
            return None

    head = read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        head = read(ROOT / ".git" / head[5:])
    cpuinfo = read(Path("/proc/cpuinfo")) or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    return {
        "git_sha": head,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "loadavg_start": read(Path("/proc/loadavg")),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conformal_gate" / "cli.py").is_file():
        print(f"error: no conformal_gate sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    run = Run(args.workload, args.seed, work)
    run.record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, machine=machine())
    try:
        run.prepare()
        if args.trace:
            measured = per_layer(run, args.seconds, OUT / f"trace-{tag}.json")
        else:
            measured = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    run.failures.extend(f"metric {name} was not measured" for name in missing)
    run.record.update(attempted=run.attempted, failures=run.failures[:20])
    (OUT / f"record-{tag}.json").write_text(json.dumps(run.record, indent=1) + "\n",
                                          encoding="utf-8")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(run.record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
