"""Span tracer for the traced benchmark run.

Wraps the public callables of each transhop module from outside the
package: the program is not edited, the wrappers replace module or class
attributes for the duration of a traced unit and are removed afterwards.
Each call becomes a span (id, name, start, end, parent).  Spans stay in
memory and are written once, when the run ends.  A span's self time is its
duration minus the time covered by its child spans.

Spans of calls made in forked pool workers are lost, so traced runs execute
replicates in-process.
"""

import functools
import gzip
import inspect
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns

NS = 1e-9


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self._names = []
        self._name_idx = {}
        # closed spans, one entry per array
        self._span_id = array("q")
        self._span_name = array("q")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_parent = array("q")
        self._stack = []  # open frames: [span_id, name_idx, start_ns, child_ns]
        self._next_id = 0
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.step_ns = array("q")
        self.replicate_ns = []  # per replicate_cell call: its replicates' durations
        self.imbalance = []
        self._sims = {}
        self._engines = {}
        self._restore = []

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self._names)
            self._names.append(name)
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, idx, perf_counter_ns(), 0])

    def _close(self):
        end = perf_counter_ns()
        span_id, idx, start, child = self._stack.pop()
        dur = end - start
        name = self._names[idx]
        self.self_ns[name] += dur - child
        self.total_ns[name] += dur
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self._span_id.append(span_id)
        self._span_name.append(idx)
        self._span_start.append(start)
        self._span_end.append(end)
        self._span_parent.append(parent)
        return dur

    def _wrap(self, owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close()
            if after is not None:
                after(args, result, dur)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    # -- install / remove ------------------------------------------------

    def install(self):
        from transhop import analytics, cli, comms, oracle, scenarios, stats
        from transhop.traffic import mobil, road

        count = self.count

        def step_before(args):
            sim = args[0]
            self._sims[id(sim)] = sim
            count["vehicle_steps"] += sim.directions[1].n + sim.directions[2].n

        def step_after(args, result, dur):
            self.step_ns.append(dur)

        def after_step_after(args, result, dur):
            engine = args[0]
            self._engines[id(engine)] = engine
            count["active_msg_steps"] += engine.active_count

        def revalidate_after(args, result, dur):
            count["accepted"] += bool(result)

        def cell_before(args):
            cell = args[0]
            warmup = scenarios.default_warmup(cell.road) if cell.warmup is None else cell.warmup
            count["warmup_steps"] += round(warmup / cell.road.dt)

        def cell_after(args, result, dur):
            count["cell_steps"] += round(result.sim_time / args[0].road.dt)
            if self.replicate_ns:
                self.replicate_ns[-1].append(dur)

        def replicate_before(args):
            self.replicate_ns.append([])

        def replicate_after(args, result, dur):
            durs = self.replicate_ns.pop()
            if durs:
                self.imbalance.append(max(durs) / statistics.fmean(durs))

        def report_before(args):
            count["report_samples"] += sum(len(v) for v in args[0].values())

        def oracle_after(args, result, dur):
            count["oracle_draws"] += len(result["tau3"])

        self._wrap(road.TrafficSim, "step", "traffic.step", step_before, step_after)
        self._wrap(road, "propose_lane_changes", "mobil.propose")
        self._wrap(road, "revalidate_change", "mobil.revalidate", after=revalidate_after)
        self._wrap(road, "idm_acceleration", "idm.road")
        self._wrap(mobil, "idm_acceleration", "idm.mobil")
        self._wrap(comms.CommsEngine, "after_step", "comms.after_step", after=after_step_after)
        self._wrap(comms, "update_jam_state", "comms.jam_state")
        self._wrap(scenarios, "run_validation_cell", "scenarios.cell", cell_before, cell_after)
        for owner in (scenarios, cli):
            self._wrap(owner, "replicate_cell", "scenarios.replicate", replicate_before,
                       replicate_after)
            self._wrap(owner, "evaluate_cell", "scenarios.evaluate")
        self._wrap(cli, "run_jam_scenario", "scenarios.jam")
        self._wrap(stats, "comparison_report", "stats.report", report_before)
        self._wrap(oracle, "sample_arrays", "oracle.sample", after=oracle_after)
        for attr, fn in vars(analytics).copy().items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == analytics.__name__
                and not attr.startswith("_")
            ):
                self._wrap(analytics, attr, "analytics")
        for attr in ("cmd_analytic", "cmd_oracle", "cmd_validate", "cmd_jam"):
            self._wrap(cli, attr, "cli.cmd")

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def harvest(self):
        """Read the counters the engines keep, then forget the engines."""
        count = self.count
        for sim in self._sims.values():
            for d in sim.directions.values():
                count["inserted"] += d.inserted
                count["exited"] += d.exited
                count["arrivals"] += d.arrivals
                count["blocked_steps"] += d.blocked_steps
                count["lane_changes"] += d.lane_changes
        for engine in self._engines.values():
            count["created"] += engine.created
            count["delivered"] += engine.delivered
            count["deliveries_total"] += len(engine.deliveries)
        self._sims.clear()
        self._engines.clear()

    # -- results ---------------------------------------------------------

    def metrics(self, units: int, overhead_frac: float) -> dict:
        """Per-layer metrics, as means per traced unit."""
        per = 1.0 / units
        s, t, n, c = self.self_ns, self.total_ns, self.calls, self.count
        steps = n["traffic.step"]
        step_us = sorted(x * 1e-3 for x in self.step_ns)
        if step_us:
            p50 = statistics.median(step_us)
            p99 = step_us[min(len(step_us) - 1, int(0.99 * len(step_us)))]
        else:
            p50 = p99 = 0.0
        values = {
            "trace.units": (units, "count"),
            "traffic.steps": (steps * per, "count"),
            "traffic.vehicle_steps": (c["vehicle_steps"] * per, "count"),
            "traffic.step_self_s": (s["traffic.step"] * NS * per, "s"),
            "traffic.us_per_vehicle_step": (
                _ratio(t["traffic.step"] * 1e-3, c["vehicle_steps"]), "us"),
            "traffic.step_us_p50": (p50, "us"),
            "traffic.step_us_p99": (p99, "us"),
            "traffic.arrivals": (c["arrivals"] * per, "count"),
            "traffic.inserted": (c["inserted"] * per, "count"),
            "traffic.exited": (c["exited"] * per, "count"),
            "traffic.blocked_frac": (_ratio(c["blocked_steps"], 2 * steps), "ratio"),
            "traffic.lane_changes": (c["lane_changes"] * per, "count"),
            "mobil.propose_s": (s["mobil.propose"] * NS * per, "s"),
            "mobil.propose_calls": (n["mobil.propose"] * per, "count"),
            "mobil.revalidate_s": (s["mobil.revalidate"] * NS * per, "s"),
            "mobil.revalidate_calls": (n["mobil.revalidate"] * per, "count"),
            "mobil.accept_ratio": (_ratio(c["accepted"], n["mobil.revalidate"]), "ratio"),
            "idm.road_calls": (n["idm.road"] * per, "count"),
            "idm.road_s": (s["idm.road"] * NS * per, "s"),
            "idm.mobil_calls": (n["idm.mobil"] * per, "count"),
            "idm.mobil_s": (s["idm.mobil"] * NS * per, "s"),
            "comms.after_step_s": (s["comms.after_step"] * NS * per, "s"),
            "comms.active_msg_steps": (c["active_msg_steps"] * per, "count"),
            "comms.us_per_active_msg_step": (
                _ratio(s["comms.after_step"] * 1e-3, c["active_msg_steps"]), "us"),
            "comms.jam_state_s": (s["comms.jam_state"] * NS * per, "s"),
            "comms.created": (c["created"] * per, "count"),
            "comms.delivered": (c["delivered"] * per, "count"),
            "comms.deliveries_total": (c["deliveries_total"] * per, "count"),
            "comms.delivered_ratio": (_ratio(c["delivered"], c["created"]), "ratio"),
            "scenarios.warmup_share": (_ratio(c["warmup_steps"], c["cell_steps"]), "ratio"),
            "scenarios.replicate_imbalance": (
                statistics.fmean(self.imbalance) if self.imbalance else 0.0, "ratio"),
            "scenarios.evaluate_s": (t["scenarios.evaluate"] * NS * per, "s"),
            "stats.report_s": (s["stats.report"] * NS * per, "s"),
            "stats.samples": (c["report_samples"] * per, "count"),
            "analytics.s": (s["analytics"] * NS * per, "s"),
            "analytics.calls": (n["analytics"] * per, "count"),
            "oracle.s": (s["oracle.sample"] * NS * per, "s"),
            "oracle.draws_per_s": (
                _ratio(c["oracle_draws"], s["oracle.sample"] * NS), "1/s"),
            "cli.write_s": (s["cli.cmd"] * NS * per, "s"),
            "cli.bytes_written": (c["bytes_written"] * per, "bytes"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}

    def write_spans(self, path):
        """All closed spans as gzipped CSV: id,name,start_ns,end_ns,parent_id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent_id\n")
            names = self._names
            for row in zip(self._span_id, self._span_name, self._span_start,
                           self._span_end, self._span_parent):
                fh.write(f"{row[0]},{names[row[1]]},{row[2]},{row[3]},{row[4]}\n")
