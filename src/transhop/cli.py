"""Command-line front end: four experiment families from one config file.

    transhop analytic   closed-form summary table and cumulative curves
    transhop oracle     event-driven sampler compared against the closed forms
    transhop validate   microscopic simulation compared against the closed forms
    transhop jam        bottleneck scenario with jam-front messages

Each command writes plot-ready long-format CSV plus a JSON report into the
output directory.  With a pinned seed and config the emitted bytes are
reproducible run to run.  --check re-examines the fresh outputs against the
built-in pass bands and prints one PASS/FAIL line per band.

Exit codes: 0 ok, 1 a --check band failed, 2 bad configuration, 3 the
traffic integrator detected a collision and aborted.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import analytics, oracle, stats
from .config import (
    ConfigError,
    analytic_conditions,
    analytic_sweep,
    cell_label,
    comm_params,
    comms_config,
    jam_scenario,
    load_config,
    oracle_conditions,
    oracle_sweep,
    validation_cells,
)
from .scenarios import evaluate_cell, replicate_cell, run_jam_scenario
from .traffic.road import CollisionError
from .units import ms_to_kmh

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_COLLISION = 3


# -- deterministic serialization --------------------------------------------


def _field(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _create(path: str):
    """Open path for writing, making its directory: a refused run leaves none."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline="")


def _write_csv(path: str, header, rows) -> None:
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_field(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    # np.float64 is a float; numpy ints, bools and arrays go through tolist()
    text = json.dumps(payload, sort_keys=True, indent=2, default=lambda o: o.tolist())
    with _create(path) as fh:
        fh.write(text + "\n")


def _run_checks(checks) -> int:
    """Print one PASS/FAIL line per band; non-zero exit when any band fails."""
    ok = True
    for label, passed, detail in checks:
        verdict = "PASS" if passed else "FAIL"
        print(f"[{verdict}] {label}: {detail}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- analytic ----------------------------------------------------------------


def cmd_analytic(cfg: dict, out_dir: str, seed: int, check: bool) -> int:
    alphas, quantiles, taus = analytic_sweep(cfg)
    # P3dist's random ranges have mean cp.r, so it compares with P3 point for point
    cp = comm_params(cfg)

    table_rows = []
    curve_rows = []
    checks = []
    max_roundtrip = 0.0
    max_sym = 0.0
    max_range = 0.0
    min_step = np.inf
    for alpha in alphas:
        tc = analytic_conditions(cfg, alpha)
        lam, v = tc.lambda2, tc.v2
        mean2 = analytics.mean_availability_time(lam, v, cp)
        mean3 = analytics.mean_delivery_time(lam, v, cp)
        taus_q = [analytics.delivery_time_quantile(q, lam, v, cp) for q in quantiles]
        vp = ms_to_kmh(analytics.info_speed(lam, v, cp))
        table_rows.append([alpha, mean2, mean3, *taus_q, vp])
        for quantity in analytics.CURVE_QUANTITIES:
            probs = analytics.cdf_function(quantity, tc, cp)(taus)
            for t, p in zip(taus, probs):
                curve_rows.append([quantity, alpha, float(t), float(p)])
            max_range = max(max_range, float(-probs.min()), float(probs.max() - 1.0))
            min_step = min(min_step, float(np.diff(probs).min()))

        p3 = analytics.delivery_cdf(taus, tc, cp)
        p3_sym = analytics.delivery_cdf_symmetric(taus, lam, v, cp)
        max_sym = max(max_sym, float(np.abs(p3 - p3_sym).max()))
        for q, tau_q in zip(quantiles, taus_q):
            back = analytics.delivery_cdf_symmetric(tau_q, lam, v, cp)
            max_roundtrip = max(max_roundtrip, abs(float(back) - q))
        checks.append(
            (
                f"ordering alpha={alpha:g}",
                0.0 < mean2 < mean3,
                f"mean_tau2={mean2:.3f}s mean_tau3={mean3:.3f}s",
            )
        )

    q_cols = [f"tau3_p{100.0 * q:g}_s" for q in quantiles]
    _write_csv(
        os.path.join(out_dir, "analytic_table.csv"),
        ["alpha", "mean_tau2_s", "mean_tau3_s", *q_cols, "info_speed_kmh"],
        table_rows,
    )
    _write_csv(
        os.path.join(out_dir, "analytic_curves.csv"),
        ["quantity", "alpha", "tau_s", "probability"],
        curve_rows,
    )

    print(f"alpha    mean_tau2_s  mean_tau3_s  {'  '.join(q_cols)}  info_speed_kmh")
    for row in table_rows:
        cells = "  ".join(f"{x:11.4f}" for x in row[1:])
        print(f"{row[0]:6.3f}  {cells}")
    print(f"wrote analytic_table.csv and analytic_curves.csv to {out_dir}")

    if not check:
        return EXIT_OK
    checks += [
        (
            "quantile round trip",
            max_roundtrip <= 1e-9,
            f"max |P3(tau_q) - q| = {max_roundtrip:.3e}",
        ),
        (
            "symmetric reduction",
            max_sym <= 1e-12,
            f"max |general - symmetric| = {max_sym:.3e}",
        ),
        (
            "curve monotonicity",
            min_step >= -1e-12,
            f"min forward step = {min_step:.3e}",
        ),
        ("curve range", max_range <= 1e-12, f"max excursion outside [0,1] = {max_range:.3e}"),
    ]
    return _run_checks(checks)


# -- oracle ------------------------------------------------------------------


def cmd_oracle(cfg: dict, out_dir: str, seed: int, check: bool) -> int:
    n, alphas = oracle_sweep(cfg)
    comm = comms_config(cfg)
    cp, interval = comm.radio, comm.broadcast_interval

    cells = {}
    checks = []
    for k, alpha in enumerate(sorted(alphas)):
        key = f"{alpha:g}"
        tc = oracle_conditions(cfg, alpha)
        try:
            arrs = oracle.sample_arrays(
                n, tc, cp, rng_seed=seed + k, broadcast_interval=interval
            )
        except ValueError as exc:
            cells[key] = {"undeliverable": True, "reason": str(exc)}
            checks.append((f"alpha={key} deliverable", False, str(exc)))
            continue
        samples = {name: arrs[name] for name in ("tau1", "tau2", "tau3")}
        del arrs  # x2 and r are not reported; free them before the report
        if interval == 0.0:
            report = stats.comparison_report(samples, analytics.stage_cdfs(tc, cp))
            del samples  # free this penetration's draws before the next one's
            cells[key] = report
            for name in ("tau1", "tau2", "tau3"):
                ks = report[name]["KS"]
                checks.append(
                    (
                        f"alpha={key} KS({name})",
                        ks < 0.01,
                        f"KS = {ks:.5f} (n = {n})",
                    )
                )
        else:
            # periodic rebroadcast: the continuous closed forms no longer
            # apply, report the tau3 median shift against them instead
            lam, v = tc.lambda2, tc.v2
            cont_median = analytics.delivery_time_quantile(0.5, lam, v, cp)
            # one sort per set serves the median and every quantile
            dists = {
                name: stats.EmpiricalDistribution.from_samples(samples.pop(name))
                for name in ("tau1", "tau2", "tau3")
            }
            med = stats.median(dists["tau3"])
            shift = med - cont_median
            cells[key] = {
                "periodic": True,
                "interval_s": interval,
                "n": n,
                "tau3_median_s": med,
                "continuous_tau3_median_s": cont_median,
                "median_shift_s": shift,
                "quantiles": {
                    name: {f"{q:g}": stats.quantile(d, q) for q in (0.5, 0.9, 0.95)}
                    for name, d in dists.items()
                },
            }
            del dists
            checks.append(
                (
                    f"alpha={key} median shift",
                    abs(shift - interval) <= 3.0,
                    f"shift = {shift:.2f}s for interval = {interval:g}s",
                )
            )

    payload = {
        "samples_per_alpha": n,
        "seed": seed,
        "broadcast_interval_s": interval,
        "cells": cells,
    }
    _write_json(os.path.join(out_dir, "oracle_report.json"), payload)
    for key, cell in cells.items():
        if "undeliverable" in cell:
            print(f"alpha={key}: undeliverable ({cell['reason']})")
        elif interval == 0.0:
            ks3 = cell["tau3"]["KS"]
            print(f"alpha={key}: n={n} KS(tau3)={ks3:.5f}")
        else:
            print(f"alpha={key}: n={n} median_shift={cell['median_shift_s']:.2f}s")
    print(f"wrote oracle_report.json to {out_dir}")
    if not check:
        return EXIT_OK
    return _run_checks(checks)


# -- validate ----------------------------------------------------------------


def cmd_validate(cfg: dict, out_dir: str, seed: int, check: bool) -> int:
    v = cfg["validate"]
    cells = validation_cells(cfg, seed)
    replicates = int(v["replicates"])
    parallel = bool(v["parallel"])

    reports = {}
    record_rows = []
    checks = []
    for cell in cells:
        result = replicate_cell(cell, replicates, parallel=parallel)
        label = cell_label(result.lanes, result.alpha)
        try:
            ev = evaluate_cell(result, cell.comm.radio)
        except ValueError as exc:
            raise ConfigError(
                f"cell {label} has too few samples to compare ({exc}); "
                "raise validate.messages"
            ) from exc
        reports[label] = ev
        for name in ("tau1", "tau2", "tau3"):
            for value in result.samples[name]:
                record_rows.append([result.lanes, result.alpha, name, float(value)])
        t3 = ev["quantities"]["tau3"]
        med_sim = t3["quantiles"]["0.5"]
        med_model = t3["model_quantiles"]["0.5"]
        rel_err = abs(med_sim - med_model) / med_model
        print(
            f"{label}: n={t3['n']} U(tau3)={t3['U']:.4f} "
            f"median_err={100.0 * rel_err:.1f}% "
            f"measured v={ev['measured']['v1_kmh']:.1f}km/h "
            f"rho={ev['measured']['rho1_per_km']:.1f}/km"
        )
        if result.truncated:
            checks.append(
                (
                    f"{label} truncated",
                    False,
                    f"delivered {result.delivered} of {result.created} created "
                    "within max_time_s",
                )
            )
        if result.lanes >= 2:
            checks.append(
                (
                    f"{label} U(tau3)",
                    t3["U"] < 0.01,
                    f"U = {t3['U']:.4f}, band < 0.01",
                )
            )
            checks.append(
                (
                    f"{label} median error",
                    rel_err < 0.05,
                    f"{100.0 * rel_err:.2f}%, band < 5%",
                )
            )

    payload = {
        "seed": seed,
        "messages": int(v["messages"]),
        "replicates": replicates,
        "cells": reports,
    }
    _write_json(os.path.join(out_dir, "validate_report.json"), payload)
    _write_csv(
        os.path.join(out_dir, "validate_records.csv"),
        ["lanes", "alpha", "quantity", "tau_s"],
        record_rows,
    )
    print(f"wrote validate_report.json and validate_records.csv to {out_dir}")
    if not check:
        return EXIT_OK
    if not checks:
        print("no multi-lane cells configured, nothing to check")
        return EXIT_OK
    return _run_checks(checks)


# -- jam ---------------------------------------------------------------------


def cmd_jam(cfg: dict, out_dir: str, seed: int, check: bool) -> int:
    jc = jam_scenario(cfg, seed)
    res = run_jam_scenario(jc)
    b = jc.road.bottlenecks[0]

    front_kmh = None if res.front_speed is None else ms_to_kmh(res.front_speed)
    age = None
    if res.age_stats is not None:
        age = {
            "n": res.age_stats.n,
            "mean_age_s": res.age_stats.mean_age,
            "ages_s": res.age_stats.ages,
        }
    payload = {
        "seed": seed,
        "penetration": jc.road.equipped_fraction,
        "duration_s": jc.duration,
        "peak_end_s": jc.peak_end,
        "bottleneck": {
            "position_m": b.s_start,
            "width_m": b.width,
            "extra_headway_s": b.extra_headway,
            "direction": b.direction,
        },
        "breakdown_time_s": res.breakdown_time,
        "upstream_front_speed_kmh": front_kmh,
        "message_age": age,
        "counters": res.counters,
    }
    _write_json(os.path.join(out_dir, "jam_events.json"), payload)

    field_rows = []
    for k, t in enumerate(res.field_t):
        for m, x in enumerate(res.field_x):
            field_rows.append([float(t), float(x), ms_to_kmh(float(res.field_v[k, m]))])
    _write_csv(
        os.path.join(out_dir, "jam_speed_field.csv"),
        ["t_s", "x_m", "speed_kmh"],
        field_rows,
    )
    _write_csv(
        os.path.join(out_dir, "jam_front.csv"),
        ["t_s", "x_m"],
        [[float(t), float(x)] for t, x in zip(res.front_t, res.front_x)],
    )
    _write_csv(
        os.path.join(out_dir, "jam_trajectories.csv"),
        ["t_s", "vid", "direction", "lane", "x_m", "speed_ms", "equipped"],
        res.trajectory_rows,
    )
    _write_csv(
        os.path.join(out_dir, "jam_records.csv"),
        [
            "message_id",
            "kind",
            "creation_time",
            "source_x",
            "tau1",
            "tau2",
            "tau3",
            "delivery_x",
        ],
        [
            [
                rec.msg.id,
                rec.msg.kind,
                rec.msg.creation_time,
                rec.msg.source_position,
                rec.tau1,
                rec.tau2,
                rec.tau3,
                rec.delivery_position,
            ]
            for rec in res.engine.records
        ],
    )

    bd = "none" if res.breakdown_time is None else f"{res.breakdown_time:.0f}s"
    fs = "n/a" if front_kmh is None else f"{front_kmh:.1f}km/h"
    print(
        f"breakdown={bd} front_speed={fs} "
        f"messages={res.counters['created']} deliveries={res.counters['deliveries_total']}"
    )
    print(
        "wrote jam_events.json, jam_speed_field.csv, jam_front.csv, "
        f"jam_trajectories.csv, jam_records.csv to {out_dir}"
    )
    if not check:
        return EXIT_OK
    checks = [
        (
            "breakdown during peak",
            res.breakdown_time is not None and res.breakdown_time <= jc.peak_end,
            f"breakdown = {bd}, peak ends at {jc.peak_end:.0f}s",
        ),
        (
            "upstream front speed",
            front_kmh is not None and 0.0 < front_kmh <= 18.0,
            f"front speed = {fs}, band (0, 18] km/h",
        ),
        (
            "far upstream deliveries",
            res.counters["upstream_delivered_far"] >= 1
            and res.counters["downstream_delivered_far"] >= 1,
            f"upstream = {res.counters['upstream_delivered_far']}, "
            f"downstream = {res.counters['downstream_delivered_far']}",
        ),
        (
            f"message age at {jc.age_distance / 1000.0:g} km",
            age is not None and 60.0 <= age["mean_age_s"] <= 300.0,
            "no ages" if age is None else f"mean = {age['mean_age_s'] / 60.0:.2f} min",
        ),
    ]
    return _run_checks(checks)


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transhop",
        description="store-and-forward message hopping across oncoming traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "analytic": (cmd_analytic, "closed-form table and cumulative curves"),
        "oracle": (cmd_oracle, "event-driven sampler vs the closed forms"),
        "validate": (cmd_validate, "microscopic simulation vs the closed forms"),
        "jam": (cmd_jam, "bottleneck scenario with jam-front messages"),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML config file (defaults built in)")
        p.add_argument("--output-dir", help="where to write outputs")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--check",
            action="store_true",
            help="verify outputs against the built-in pass bands",
        )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = args.output_dir if args.output_dir is not None else cfg["output_dir"]
        seed = args.seed if args.seed is not None else int(cfg["seed"])
        if seed < 0:
            raise ConfigError(f"'seed' must be non-negative, not {seed}")
        return args.handler(cfg, out_dir, seed, args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CollisionError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_COLLISION


if __name__ == "__main__":
    sys.exit(main())
