"""One benchmark process: set up a workload, then run units of it.

Started by run.py in a fresh interpreter.  With --setup-only it does the
workload's set-up (imports, config load and validation, building the
engine objects) and prints the monotonic time at which it was ready, with
the host's speed sampled while it set up.
Otherwise it also runs units of the workload until --seconds have passed,
checks every unit's outputs, and prints one JSON result as its last line.

A unit is one call of the entry point the workload's users call, with the
unit's seed derived from the run seed.  Untraced, the first unit warms up
and is not timed, and the host's speed is sampled while each unit runs, so
its time is also given in reference seconds (see reference.py).
With --trace 1 every unit runs twice with the same seed, first plain and
then with the tracer installed; the pair gives the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from reference import HostSampler, to_reference_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_transhop():
    sys.path.insert(0, str(SRC))
    import transhop

    if Path(transhop.__file__).resolve().parent != SRC / "transhop":
        sys.exit(f"transhop imported from {transhop.__file__}, not from {SRC}")


def unit_seed(seed: int, i: int) -> int:
    # validate spaces replicate seeds by 1000 and cell seeds by 100000, so
    # units 10^6 apart never share a random stream
    return 1_000_000 * (1000 * seed + i)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digests(out_dir, names):
    return {name: _sha256(os.path.join(out_dir, name)) for name in names}


def _bytes(out_dir, names):
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in names)


def _cli(argv):
    """Run the transhop command in-process; returns (exit code, its stdout)."""
    from transhop import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cell_gate(label, created, delivered, dead_source, dead_relay, truncated, counts,
               medians):
    """Consistency of one simulation cell's outputs; returns a list of problems.

    counts and medians are those of the tau1, tau2 and tau3 samples.  A
    message has tau2 only if it has tau1, and tau3 only if it has tau2, and
    then tau1 <= tau2 <= tau3.  A message whose relay leaves the road after
    tau2 has no tau3, so the medians are ordered only when the three counts
    are equal: then all three are taken over the same messages.
    """
    bad = []
    if truncated:
        bad.append(f"{label}: truncated")
    if created != delivered + dead_source + dead_relay:
        bad.append(f"{label}: created {created} != delivered {delivered} + dead "
                   f"{dead_source} + {dead_relay}")
    if counts[2] != delivered:
        bad.append(f"{label}: n(tau3) {counts[2]} != delivered {delivered}")
    if not counts[0] >= counts[1] >= counts[2]:
        bad.append(f"{label}: n(tau1) >= n(tau2) >= n(tau3) violated: {counts}")
    elif counts[0] == counts[2] and not medians[0] <= medians[1] <= medians[2]:
        bad.append(f"{label}: medians tau1<=tau2<=tau3 violated: {medians}")
    return bad


class Unit:
    """Outcome of one unit: gate problems, delivery-time samples, message or
    band counts, and the sha256 of every seeded output."""

    def __init__(self, problems, tau3, attempted, failed, digests, bytes_written=0):
        self.problems = problems
        self.tau3 = tau3
        self.attempted = attempted
        self.failed = failed
        self.digests = digests
        self.bytes_written = bytes_written


# -- workloads -------------------------------------------------------------


class TwoLaneCell:
    """`transhop validate`: one 2-lane 5% cell, replicates on the pool."""

    outputs = ("validate_report.json", "validate_records.csv")
    pooled = True
    snippet = "vehicles"

    @staticmethod
    def config(traced):
        # traced runs keep replicates in-process: spans in pool workers are lost
        return {"validate": {"cells": [{"lanes": 2, "penetration": 0.05}],
                             "messages": 10, "replicates": 2, "parallel": not traced}}

    def __init__(self, run_dir, seed):
        from transhop.comms import CommsEngine
        from transhop.config import load_config, validation_cells
        from transhop.traffic.road import TrafficSim

        self.config = os.path.join(run_dir, "config.yaml")
        cfg = load_config(self.config)
        cell = validation_cells(cfg, unit_seed(seed, 0))[0]
        CommsEngine(TrafficSim(cell.road, cell.seed), cell.comm)

    def unit(self, out_dir, seed):
        rc, _ = _cli(["validate", "--config", self.config, "--output-dir", out_dir,
                      "--seed", str(seed)])
        if rc != 0:
            return Unit([f"validate exited {rc}"], 0, 1, 1, {})
        with open(os.path.join(out_dir, "validate_report.json")) as fh:
            report = json.load(fh)
        problems, tau3, created, delivered = [], 0, 0, 0
        for label, ev in report["cells"].items():
            q = ev["quantities"]
            problems += _cell_gate(
                label, ev["created"], ev["delivered"], ev["dead_source_exit"],
                ev["dead_relay_exit"], ev["truncated"],
                [q[k]["n"] for k in ("tau1", "tau2", "tau3")],
                [q[k]["quantiles"]["0.5"] for k in ("tau1", "tau2", "tau3")],
            )
            tau3 += q["tau3"]["n"]
            created += ev["created"]
            delivered += ev["delivered"]
        return Unit(problems, tau3, created, created - delivered,
                    _digests(out_dir, self.outputs), _bytes(out_dir, self.outputs))


class SingleLaneSweep:
    """`scenarios.replicate_cell` at 1 lane, four penetrations, one seed."""

    alphas = (0.02, 0.04, 0.06, 0.10)
    messages = 2
    pooled = False
    snippet = "vehicles"

    @staticmethod
    def config(traced):
        return {}

    def __init__(self, run_dir, seed):
        from transhop.comms import CommsEngine
        from transhop.config import comms_config, load_config, road_config
        from transhop.scenarios import CellConfig
        from transhop.traffic.road import TrafficSim

        cfg = load_config(os.path.join(run_dir, "config.yaml"))
        comm = comms_config(cfg)
        self.cells = [
            CellConfig(
                road=road_config(cfg, n_lanes=1, equipped_fraction=alpha),
                comm=comm,
                messages=self.messages,
                seed=unit_seed(seed, 0),
            )
            for alpha in self.alphas
        ]
        CommsEngine(TrafficSim(self.cells[0].road, self.cells[0].seed), comm)

    def unit(self, out_dir, seed):
        import numpy as np

        from transhop import scenarios
        from transhop.traffic.road import CollisionError

        problems, digests, tau3, created, delivered = [], {}, 0, 0, 0
        for cell in self.cells:
            try:
                r = scenarios.replicate_cell(replace(cell, seed=seed), 1, parallel=False)
            except CollisionError as exc:
                return Unit([f"collision: {exc}"], 0, 1, 1, {})
            label = f"alpha={r.alpha:g}"
            problems += _cell_gate(
                label, r.created, r.delivered, r.dead_source_exit, r.dead_relay_exit,
                r.truncated, [r.samples[k].size for k in ("tau1", "tau2", "tau3")],
                [float(np.median(r.samples[k])) for k in ("tau1", "tau2", "tau3")],
            )
            h = hashlib.sha256()
            for k in ("tau1", "tau2", "tau3"):
                h.update(np.ascontiguousarray(r.samples[k], dtype="<f8").tobytes())
            digests[f"samples {label}"] = h.hexdigest()
            tau3 += r.samples["tau3"].size
            created += r.created
            delivered += r.delivered
        return Unit(problems, tau3, created, created - delivered, digests)


class Jam:
    """`transhop jam`: bottleneck scenario, default config, shortened."""

    outputs = ("jam_events.json", "jam_speed_field.csv", "jam_front.csv",
               "jam_trajectories.csv", "jam_records.csv")
    pooled = False
    snippet = "vehicles"

    @staticmethod
    def config(traced):
        # a third of the default 5400 s: breakdown comes at 480-690 s
        return {"jam": {"duration_s": 1800.0}}

    def __init__(self, run_dir, seed):
        from transhop.comms import CommsEngine
        from transhop.config import jam_scenario, load_config
        from transhop.traffic.road import TrafficSim

        self.config = os.path.join(run_dir, "config.yaml")
        jc = jam_scenario(load_config(self.config), unit_seed(seed, 0))
        CommsEngine(TrafficSim(jc.road, jc.seed), jc.comm)

    def unit(self, out_dir, seed):
        rc, _ = _cli(["jam", "--config", self.config, "--output-dir", out_dir,
                      "--seed", str(seed)])
        if rc != 0:
            return Unit([f"jam exited {rc}"], 0, 1, 1, {})
        with open(os.path.join(out_dir, "jam_events.json")) as fh:
            events = json.load(fh)
        c = events["counters"]
        problems = []
        if events["breakdown_time_s"] is None:
            problems.append("no breakdown detected")
        if c["upstream_created"] < 1 or c["downstream_created"] < 1:
            problems.append(f"front messages: upstream {c['upstream_created']}, "
                            f"downstream {c['downstream_created']}")
        return Unit(problems, c["delivered"], c["created"], c["created"] - c["delivered"],
                    _digests(out_dir, self.outputs), _bytes(out_dir, self.outputs))


class ClosedForms:
    """`transhop analytic --check`, then `transhop oracle --check`."""

    outputs = ("analytic_table.csv", "analytic_curves.csv", "oracle_report.json")
    pooled = False
    snippet = "arrays"

    @staticmethod
    def config(traced):
        return {"oracle": {"samples": 2_000_000}}

    def __init__(self, run_dir, seed):
        from transhop.config import (
            analytic_conditions,
            comm_params,
            load_config,
            oracle_conditions,
        )

        self.config = os.path.join(run_dir, "config.yaml")
        cfg = load_config(self.config)
        comm_params(cfg)
        for alpha in cfg["analytic"]["penetrations"]:
            analytic_conditions(cfg, alpha)
        for alpha in cfg["oracle"]["penetrations"]:
            oracle_conditions(cfg, alpha)

    def unit(self, out_dir, seed):
        problems, printed = [], ""
        for command in ("analytic", "oracle"):
            rc, text = _cli([command, "--check", "--config", self.config,
                             "--output-dir", out_dir, "--seed", str(seed)])
            printed += text
            if rc != 0:
                problems.append(f"{command} --check exited {rc}")
        bands = printed.count("[PASS]") + printed.count("[FAIL]")
        with open(os.path.join(out_dir, "oracle_report.json")) as fh:
            report = json.load(fh)
        draws = report["samples_per_alpha"] * sum(
            1 for cell in report["cells"].values() if "undeliverable" not in cell
        )
        return Unit(problems, draws, bands, printed.count("[FAIL]"),
                    _digests(out_dir, self.outputs), _bytes(out_dir, self.outputs))


WORKLOADS = {
    "two_lane_cell": TwoLaneCell,
    "single_lane_sweep": SingleLaneSweep,
    "jam": Jam,
    "closed_forms": ClosedForms,
}


# -- the run ---------------------------------------------------------------


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children holds the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed_unit(workload, out_dir, seed):
    t0 = time.perf_counter()
    try:
        unit = workload.unit(out_dir, seed)
    except Exception as exc:  # the unit fails the gate; the run goes on
        unit = Unit([f"raised {type(exc).__name__}: {exc}"], 0, 1, 1, {})
    return time.perf_counter() - t0, unit


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        # set-up is mostly imports, Python-level work: sampled with the
        # simulator's snippet
        sampler = HostSampler()
        sampler.start(lead=False)
    _import_transhop()
    import transhop.cli  # noqa: F401  every module the command line pulls in

    workload = WORKLOADS[args.workload](args.run_dir, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "host": sampler.stop()}))
        return 0

    out_dir = os.path.join(args.run_dir, "unit")
    os.makedirs(out_dir, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    sampler = HostSampler(workload.snippet)
    units, walls, traced_walls, costs = [], [], [], []
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        per_unit = statistics.median(costs) if costs else 0.0
        # the last unit may overrun by half a unit: long units still get a median
        if len(costs) > (0 if tracer else 1) and elapsed + 0.5 * per_unit > args.seconds:
            break
        seed = unit_seed(args.seed, i)
        t0 = time.monotonic()
        record = {"seed": seed, "warmup": tracer is None and i == 0}
        if tracer is None:
            sampler.start()
            try:
                wall, unit = _timed_unit(workload, out_dir, seed)
            finally:
                host = sampler.stop()
            if not workload.pooled:
                # the snippets stopped the unit; pool workers go on meanwhile
                wall -= host["sampling_s"]
            record.update(host=host, ref_s=to_reference_s(wall, host))
        else:
            wall, unit = _timed_unit(workload, out_dir, seed)
            tracer.install()
            try:
                traced_wall, traced = _timed_unit(workload, out_dir, seed)
            finally:
                tracer.uninstall()
            tracer.harvest()
            tracer.count["bytes_written"] += traced.bytes_written
            traced_walls.append(traced_wall)
            if traced.digests != unit.digests:
                unit.problems.append("traced outputs differ from the plain run")
        walls.append(wall)
        costs.append(time.monotonic() - t0)
        record.update(wall_s=wall, problems=unit.problems, tau3=unit.tau3,
                      attempted=unit.attempted, failed=unit.failed,
                      digests=unit.digests)
        units.append(record)
        i += 1

    ok = [u for u in units if not u["problems"]]
    timed = [u for u in units if not u["warmup"]]
    # a failed unit does not count as fast
    counted = [u for u in timed if not u["problems"]] or timed
    result = {
        "ready": ready,
        "units": len(units),
        "units_failed": len(units) - len(ok),
        "messages_attempted": sum(u["attempted"] for u in units),
        "messages_failed": sum(u["failed"] for u in units),
        "wall_s": statistics.median(u["wall_s"] for u in counted),
        "tau3_samples": sum(u["tau3"] for u in counted),
        "tau3_wall_s": sum(u["wall_s"] for u in counted),
        "peak_rss_mb": _peak_rss_mb(),
        "unit_log": units,
    }
    if tracer is None:
        result["wall_ref_s"] = statistics.median(u["ref_s"] for u in counted)
    else:
        overhead = sum(traced_walls) / sum(walls) - 1.0
        result["per_layer"] = tracer.metrics(len(units), overhead)
        tracer.write_spans(os.path.join(args.run_dir, "spans.csv.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
