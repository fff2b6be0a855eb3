"""Benchmark entry point: times whole ``accumtest`` CLI runs, or traces one.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is taken from ``src/`` next to this
directory and nothing is installed.  Inputs come from ``--seed`` and
are written under ``bench/.work/``.

``--trace 0`` measures the four end-to-end metrics with tracing off: a
closed loop starts one CLI process, waits for it to exit, checks its
output, and starts the next until ``--seconds`` have passed.  Set-up
time is the median of cold ``accumtest --version`` runs made after it.

``--trace 1`` gives the per-layer metrics: ``bench/tracer.py`` runs the
same command in process with a span around each layer's public
functions, next to a few untraced CLI runs of the same command, whose
median the traced total is compared with.

A run fails on a non-zero exit, a timeout, or a failed output check.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary, also saved with the environment, input
hashes and output digests in ``bench/.work/<workload>-s<seed>-t<trace>.json``;
a traced run writes its spans next to it, in ``...-spans.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Inputs, file_record  # noqa: E402

# The whole benchmark must end within 180 s; every child gets what is left.
TIME_LIMIT_S = 170.0
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
REFERENCE_RUNS = 3

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "accumtest.import_s": "s",
    "densities.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "accumfn.evaluate_s": "s",
    "seqtest.path_s": "s",
    "seqtest.select_cutoff_s": "s",
    "seqtest.select_cutoff_calls": "count",
    "dosage.relabelings": "count",
    "dosage.tcdf_elems": "count",
    "dosage.tcdf_per_relabeling": "ratio",
    "dosage.pipeline_peak_mb": "MB",
    "trace.overhead_s": "s",
}
# Reported by the traced run only on the workloads that enter the layer.
WORKLOAD_LAYERS = {
    "cli.read_s": "s",
    "cli.write_s": "s",
    "simlab.generate_s": "s",
    "simlab.run_trial_s": "s",
    "simlab.aggregate_s": "s",
    "simlab.collect_serial_s": "s",
    "simlab.collect_pool_s": "s",
    "dosage.read_s": "s",
    "dosage.ordering_s": "s",
    "dosage.pipeline_s": "s",
    "dosage.tcdf_s": "s",
    "baselines.select_s": "s",
}


@dataclass
class Run:
    """One child process: its wall time, peak RSS and verdict."""

    label: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or self.timed_out or bool(self.problems)


class Clock:
    """Time left before the benchmark must have ended."""

    def __init__(self, limit_s: float):
        self.deadline = time.monotonic() + limit_s

    def left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ACCUMTEST_WORKERS", None)
    return env


def spawn(label: str, cmd: list[str], cwd: Path, timeout: float) -> Run:
    """Run ``cmd`` to completion; stdout and stderr go to files in ``cwd``.

    Peak RSS comes from the ``wait4`` rusage, which covers the child and
    every descendant it waited for, such as pool workers.
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(label, wall, usage.ru_maxrss / 1024.0, proc.returncode, timed_out.is_set())


def accumtest_cmd(*argv: str) -> list[str]:
    return [sys.executable, "-m", "accumtest", *argv]


def run_version(cwd: Path, clock: Clock) -> Run:
    run = spawn("setup", accumtest_cmd("--version"), cwd, clock.left())
    if not (cwd / "stdout.txt").read_text().startswith("accumtest "):
        run.problems.append("--version printed no version")
    return run


def judge(run: Run, inputs: Inputs) -> Run:
    """Apply the workload's output check and digest every output."""
    stdout = (inputs.directory / "stdout.txt").read_text()
    if run.exit_code == 0 and not run.timed_out:
        try:
            run.problems.extend(inputs.workload.check(inputs, stdout))
        except (OSError, ValueError) as exc:
            run.problems.append(f"output check raised {exc!r}")
    run.digests["stdout"] = file_record(inputs.directory / "stdout.txt")["sha256"]
    for name in inputs.outputs:
        path = inputs.directory / name
        run.digests[name] = file_record(path)["sha256"] if path.exists() else "missing"
    return run


def run_cli(inputs: Inputs, clock: Clock) -> Run:
    run = spawn("cli", accumtest_cmd(*inputs.argv), inputs.directory, clock.left())
    return judge(run, inputs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def timed(inputs: Inputs, seconds: float, setup_runs: int, clock: Clock):
    """The closed loop of CLI runs for ``seconds``, then the set-up runs.

    Set-up runs come last so that none of them pays for compiling the
    package's bytecode, which only the first run in a checkout does.
    """
    stop = time.monotonic() + seconds
    cli_runs = []
    while not cli_runs or time.monotonic() < stop:
        cli_runs.append(run_cli(inputs, clock))
    runs = [run_version(inputs.directory, clock) for _ in range(setup_runs)]
    walls = [r.wall_s for r in cli_runs]
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "items_per_s": inputs.items / wall_s,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in cli_runs),
        "setup_s": statistics.median(r.wall_s for r in runs),
    }
    q1, _, q3 = quartiles(walls)
    notes = {
        "wall_s.samples": (len(walls), "count"),
        "wall_s.q1": (q1, "s"),
        "wall_s.q3": (q3, "s"),
        "setup_s.samples": (len(runs), "count"),
    }
    return metrics, notes, cli_runs + runs


def import_times(cwd: Path, clock: Clock, repeats: int) -> dict[str, float]:
    """Cumulative import seconds of the package and of ``densities``."""
    found = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import accumtest"],
            cwd=cwd, env=child_env(), capture_output=True, text=True,
            timeout=clock.left(), check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("accumtest", "accumtest.densities"):
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {
        "accumtest.import_s": statistics.median(found["accumtest"]),
        "densities.import_s": statistics.median(found["accumtest.densities"]),
    }


def span_totals(spans: list, root: str) -> tuple[dict, Counter]:
    """Summed duration and call count per span name below the first ``root``."""
    inside: dict[int, bool] = {}
    roots = [s[0] for s in spans if s[2] == root][:1]
    sums: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, parent, name, start, end in spans:
        inside[sid] = parent >= 0 and (inside[parent] or parent in roots)
        if inside[sid]:
            sums[name] += end - start
            calls[name] += 1
    return sums, calls


def self_time(spans: list, name: str) -> float:
    """Duration of the first span called ``name`` minus its direct children."""
    span = next(s for s in spans if s[2] == name)
    children = sum(s[4] - s[3] for s in spans if s[1] == span[0])
    return span[4] - span[3] - children


def duration(spans: list, name: str) -> float:
    span = next(s for s in spans if s[2] == name)
    return span[4] - span[3]


def layer_metrics(inputs: Inputs, trace: dict, imports: dict, overhead_s: float):
    """Per-layer metrics from the traced run's spans and counters."""
    spans, counters = trace["spans"], trace["counters"]
    kind = inputs.argv[0]
    main_sums, main_calls = span_totals(spans, "cli.main")
    lib_sums, lib_calls = (
        span_totals(spans, "simlab.collect_serial") if kind == "simulate"
        else (main_sums, main_calls)
    )
    metrics = dict(imports)
    metrics.update({
        "cli.main_s": duration(spans, "cli.main"),
        "cli.self_s": self_time(spans, "cli.main"),
        "accumfn.evaluate_s": lib_sums["accumfn.evaluate"],
        "seqtest.path_s": lib_sums["seqtest.path"],
        "seqtest.select_cutoff_s": lib_sums["seqtest.select_cutoff"],
        "seqtest.select_cutoff_calls": lib_calls["seqtest.select_cutoff"],
        "dosage.relabelings": 0,
        "dosage.tcdf_elems": counters.get("dosage.tcdf.elems", 0),
        "dosage.tcdf_per_relabeling": 0.0,
        "dosage.pipeline_peak_mb": counters.get("dosage.pipeline.peak_bytes", 0) / 2**20,
        "trace.overhead_s": overhead_s,
    })
    extra = {}
    if kind == "test":
        extra["cli.read_s"] = self_time(spans, "cli.main.no_out")
        extra["cli.write_s"] = duration(spans, "cli.main") - duration(spans, "cli.main.no_out")
    if kind == "simulate":
        extra["simlab.generate_s"] = lib_sums["simlab.generate"]
        extra["simlab.run_trial_s"] = lib_sums["simlab.run_trial"]
        extra["simlab.aggregate_s"] = main_sums["simlab.aggregate"]
        extra["simlab.collect_serial_s"] = duration(spans, "simlab.collect_serial")
        extra["simlab.collect_pool_s"] = main_sums["simlab.collect_trial_frames"]
    if kind == "dosage":
        m_c, m_l, _ = inputs.params["groups"]
        relabelings = inputs.params["genes"] * math.comb(m_c + m_l, m_c)
        metrics["dosage.relabelings"] = relabelings
        metrics["dosage.tcdf_per_relabeling"] = metrics["dosage.tcdf_elems"] / relabelings
        for name in ("read", "ordering", "pipeline", "tcdf"):
            extra[f"dosage.{name}_s"] = main_sums[f"dosage.{name}"]
        extra["baselines.select_s"] = (
            main_sums["baselines.bh_select"] + main_sums["baselines.storey_select"]
        )
    return metrics, {name: (value, WORKLOAD_LAYERS[name]) for name, value in extra.items()}


def traced(inputs: Inputs, smoke: bool, clock: Clock):
    """Import times, untraced reference runs, then the traced in-process run."""
    repeats = 1 if smoke else IMPORTTIME_RUNS
    imports = import_times(inputs.directory, clock, repeats)
    runs = [run_cli(inputs, clock) for _ in range(1 if smoke else REFERENCE_RUNS)]
    reference = statistics.median(r.wall_s for r in runs)
    spec = {
        "kind": inputs.argv[0],
        "argv": inputs.argv,
        "argv_without_out": inputs.argv_without_out(),
        "params": inputs.params,
    }
    if spec["kind"] == "simulate":
        spec["sim_seed"] = int(inputs.argv[inputs.argv.index("--seed") + 1])
    (inputs.directory / "trace_spec.json").write_text(json.dumps(spec))
    spans_path = WORK / f"{inputs.directory.name}-spans.json"
    for name in inputs.outputs:
        (inputs.directory / name).unlink(missing_ok=True)
    run = spawn(
        "traced",
        [sys.executable, str(BENCH / "tracer.py"), "trace_spec.json", str(spans_path)],
        inputs.directory, clock.left(),
    )
    trace = None
    if run.exit_code == 0 and not run.timed_out:
        trace = json.loads(spans_path.read_text())
        (inputs.directory / "stdout.txt").write_text(trace["stdout"])
    runs.append(judge(run, inputs))
    if run.failed:
        return None, {}, runs
    # The traced process also makes calls the CLI does not; leave them out.
    extra_calls = sum(
        s[4] - s[3] for s in trace["spans"] if s[2] in ("cli.main.no_out", "simlab.collect_serial")
    )
    overhead = run.wall_s - extra_calls - reference
    return (*layer_metrics(inputs, trace, imports, overhead), runs)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "memory_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and one run of each kind, to check the benchmark itself",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "accumtest" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'accumtest'}", file=sys.stderr)
        return 2
    clock = Clock(TIME_LIMIT_S)
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = workload.prepare(args.seed, run_dir, smoke=args.smoke)
    try:
        if args.trace:
            metrics, notes, runs = traced(inputs, args.smoke, clock)
            units = PER_LAYER
        else:
            if args.smoke:
                metrics, notes, runs = timed(inputs, 0.0, 1, clock)
            else:
                metrics, notes, runs = timed(inputs, args.seconds, SETUP_RUNS, clock)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(r.failed for r in runs)
    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}"]
    rows = {"attempted": (len(runs), "count"), "failed": (failed, "count"),
            "error_rate": (failed / len(runs), "ratio")}
    if metrics is not None:
        rows.update({name: (metrics[name], unit) for name, unit in units.items()})
    rows.update(notes)
    lines.extend(f"  {name:28s} {value:>14.6g} {unit}" for name, (value, unit) in rows.items())
    for run in runs:
        if run.failed:
            timeout = " (timeout)" if run.timed_out else ""
            lines.append(f"  failed {run.label}: exit {run.exit_code}{timeout} {'; '.join(run.problems)}")
    for name, record in inputs.files.items():
        lines.append(f"  input  {name}  sha256 {record['sha256']}  bytes {record['bytes']}")
    digests = sorted({(n, d) for r in runs if r.label != "setup" for n, d in r.digests.items()})
    lines.extend(f"  output {name}  sha256 {digest}" for name, digest in digests)
    print("\n".join(lines))

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "params": inputs.params, "environment": environment(),
        "inputs": inputs.files, "metrics": metrics, "notes": notes,
        "runs": [vars(r) for r in runs],
    }
    (WORK / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1))

    result = {
        "correct": failed == 0 and metrics is not None,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        } if metrics is not None else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
