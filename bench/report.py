"""Run every workload timed and traced, then print both tables.

    python3 bench/report.py [--seed N] [--seconds S] [--smoke]

Each workload runs ``bench/run.py`` twice, with tracing off and on.  The
first table has every end-to-end metric with its unit and the error
rate, per workload; the second has every per-layer metric, with ``-``
where a workload does not enter the layer.  The environment comes
first.  The exit status is 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, WORK, WORKLOAD_LAYERS, environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: bench/run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((WORK / f"{workload}-s{seed}-t{trace}.json").read_text())
    values = {name: value for name, (value, _) in record["notes"].items()}
    values.update(record["metrics"] or {})
    values["error_rate"] = result["failed"] / result["attempted"]
    return {"result": result, "values": values}


def table(title: str, units: dict, columns: dict) -> list[str]:
    names = list(columns)
    lines = [title, f"{'metric':30s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names)]
    for metric, unit in units.items():
        cells = []
        for name in names:
            value = columns[name].get(metric)
            cells.append(f"{value:>14.6g}" if value is not None else f"{'-':>14s}")
        lines.append(f"{metric:30s} {unit:6s} " + " ".join(cells))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, single runs")
    args = parser.parse_args(argv)

    timed, traced, failed = {}, {}, 0
    for name in WORKLOADS:
        for trace, into in ((0, timed), (1, traced)):
            outcome = run_one(name, args.seed, args.seconds, trace, args.smoke)
            into[name] = outcome["values"]
            failed += outcome["result"]["failed"]

    lines = ["environment " + json.dumps(environment()), ""]
    e2e_units = {**END_TO_END, "error_rate": "ratio", "wall_s.samples": "count",
                 "wall_s.q1": "s", "wall_s.q3": "s"}
    lines += table("end-to-end (tracing off)", e2e_units, timed)
    lines.append("")
    layer_units = {**PER_LAYER, **WORKLOAD_LAYERS}
    lines += table("per layer (traced run)", layer_units, traced)
    lines.append("")
    lines += [f"{name}: {w.why}" for name, w in WORKLOADS.items()]
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
