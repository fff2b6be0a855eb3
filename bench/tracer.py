"""Traced in-process run of one workload.

Run as ``python bench/tracer.py SPEC.json OUT.json`` with ``src`` on
``PYTHONPATH``.  It imports the package, wraps the public functions the
CLI calls (module attributes, so the package itself is unchanged) and
calls ``cli.main`` with the workload's arguments; for ``test`` it then
calls it again without ``--out``, to split reading from writing.  Each
wrapped call records a span (id, parent id, name, start, end); spans
stay in memory and are written to OUT.json when the run ends, with the
counters the wrappers keep.  The exit status is the first non-zero
status ``cli.main`` returned.

``simulate`` runs trials in worker processes whose spans are lost, so
for it this script also calls ``simlab.collect_trial_frames`` with one
worker, which is where the per-trial spans come from.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.stdout = ""
        self.exit_code = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        self._stack.pop()
        record[4] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, owner, attr: str, name: str, count_elements: bool = False,
             peak_memory: bool = False) -> None:
        """Replace ``owner.attr`` by a function that records a span per call.

        ``count_elements`` adds the broadcast size of the positional
        array arguments to the counter ``name + ".elems"``;
        ``peak_memory`` records the tracemalloc peak of the call in
        ``name + ".peak_bytes"``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count_elements:
                self.counters[name + ".elems"] += np.broadcast(*args).size
            if peak_memory:
                tracemalloc.start()
            record = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(record)
                if peak_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counters[name + ".peak_bytes"] = max(
                        self.counters[name + ".peak_bytes"], peak
                    )

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that a workload's CLI call crosses."""
    from scipy import special

    from accumtest import cli, dosage, seqtest, simlab

    tracer.wrap(special, "stdtr", "dosage.tcdf", count_elements=True)
    tracer.wrap(cli, "read_expression_csv", "dosage.read")
    tracer.wrap(cli, "run_pipeline", "dosage.pipeline", peak_memory=True)
    tracer.wrap(cli, "run_accumulation_test", "seqtest.run_accumulation_test")
    tracer.wrap(cli, "run_simulation", "simlab.run_simulation")
    tracer.wrap(dosage, "high_dose_ordering", "dosage.ordering")
    tracer.wrap(dosage, "bh_select", "baselines.bh_select")
    tracer.wrap(dosage, "storey_select", "baselines.storey_select")
    tracer.wrap(simlab, "collect_trial_frames", "simlab.collect_trial_frames")
    tracer.wrap(simlab, "aggregate", "simlab.aggregate")
    tracer.wrap(simlab, "generate_ranked_trial", "simlab.generate")
    tracer.wrap(simlab, "run_trial", "simlab.run_trial")
    for module in (seqtest, simlab):
        tracer.wrap(module, "estimated_fdp_path", "seqtest.path")
        tracer.wrap(module, "estimated_fdp_path_plus", "seqtest.path")
    for module in (seqtest, simlab, dosage):
        tracer.wrap(module, "select_cutoff", "seqtest.select_cutoff")
    tracer.wrap(seqtest, "evaluate", "accumfn.evaluate")


def traced_run(spec: dict) -> Tracer:
    """Import, wrap and run one workload as ``spec`` describes it."""
    tracer = Tracer()
    with tracer.span("accumtest.import"):
        from accumtest import cli
    install(tracer)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            with tracer.span("cli.main"):
                codes = [cli.main(spec["argv"])]
            if spec["kind"] == "test":
                with tracer.span("cli.main.no_out"):
                    codes.append(cli.main(spec["argv_without_out"]))
        tracer.exit_code = max(codes, key=bool)
        if spec["kind"] == "simulate":
            from accumtest import simlab

            params = spec["params"]
            config = simlab.SimConfig(
                n=params["n"], trials=params["trials"], seed=spec["sim_seed"]
            )
            with tracer.span("simlab.collect_serial"):
                simlab.collect_trial_frames(
                    config, simlab.default_methods(), include_paths=True, workers=1
                )
    finally:
        tracer.unwrap_all()
    tracer.stdout = stdout.getvalue()
    return tracer


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    tracer = traced_run(spec)
    with open(out_path, "w") as handle:
        json.dump(
            {"spans": tracer.spans, "counters": tracer.counters, "stdout": tracer.stdout},
            handle,
        )
    return tracer.exit_code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
