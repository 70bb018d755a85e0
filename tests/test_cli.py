import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from transhop import analytics, oracle
from transhop.cli import main
from transhop.config import analytic_conditions, comm_params, load_config, oracle_conditions


def run(tmp_path, *args, config=None):
    argv = list(args) + ["--output-dir", str(tmp_path)]
    if config is not None:
        p = tmp_path / "run.yaml"
        p.write_text(config)
        argv += ["--config", str(p)]
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_import_leaves_out_quadrature():
    # the closed forms need no numerical integration, so the CLI never loads it
    src = os.path.dirname(os.path.dirname(analytics.__file__))
    code = "import sys, transhop.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "False\n", out.stderr


def test_no_command_loads_scipy(tmp_path):
    # model quantiles come from stats' own root finder: scipy is a test dependency only
    src = os.path.dirname(os.path.dirname(analytics.__file__))
    cfg = tmp_path / "o.yaml"
    cfg.write_text("oracle:\n  samples: 20000\n")
    code = (
        "import sys, transhop.cli\n"
        f"codes = [transhop.cli.main([c, '--check', '--config', {str(cfg)!r},"
        f" '--output-dir', {str(tmp_path)!r}]) for c in ('analytic', 'oracle')]\n"
        "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "[0, 0] []", out.stderr


class TestAnalytic:
    def test_table_matches_closed_forms(self, tmp_path):
        assert run(tmp_path, "analytic") == 0
        rows = {r["alpha"]: r for r in read_csv(tmp_path / "analytic_table.csv")}
        row = rows["0.02"]
        cfg = load_config(None)
        cp = comm_params(cfg)
        tc = analytic_conditions(cfg, 0.02)
        lam, v = tc.lambda2, tc.v2
        assert float(row["mean_tau2_s"]) == analytics.mean_availability_time(lam, v, cp)
        assert float(row["mean_tau3_s"]) == analytics.mean_delivery_time(lam, v, cp)
        assert float(row["tau3_p50_s"]) == analytics.delivery_time_quantile(0.5, lam, v, cp)
        assert float(row["info_speed_kmh"]) == pytest.approx(29.032258064516128)

    def test_curves_cover_all_quantities(self, tmp_path):
        assert run(tmp_path, "analytic", config="analytic:\n  penetrations: [0.1]\n") == 0
        rows = read_csv(tmp_path / "analytic_curves.csv")
        assert {r["quantity"] for r in rows} == {"P1", "P2", "P3", "P3dist"}
        probs = [float(r["probability"]) for r in rows if r["quantity"] == "P3"]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert main(["analytic", "--output-dir", str(a)]) == 0
        assert main(["analytic", "--output-dir", str(b)]) == 0
        for name in ("analytic_table.csv", "analytic_curves.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_check_passes(self, tmp_path):
        assert run(tmp_path, "analytic", "--check") == 0


class TestOracle:
    GOOD = "oracle:\n  samples: 40000\n  penetrations: [0.05]\n"

    def test_check_passes_at_scale(self, tmp_path, capsys):
        assert run(tmp_path, "oracle", "--check", config=self.GOOD) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        cell = report["cells"]["0.05"]
        assert set(cell) == {"tau1", "tau2", "tau3"}
        assert cell["tau3"]["KS"] < 0.01

    def test_small_sample_fails_check_but_runs_clean(self, tmp_path):
        cfg = "oracle:\n  samples: 200\n  penetrations: [0.05]\n"
        assert run(tmp_path, "oracle", config=cfg) == 0
        assert run(tmp_path, "oracle", "--check", config=cfg) == 1

    def test_zero_penetration_flagged_undeliverable(self, tmp_path):
        cfg = "oracle:\n  samples: 100\n  penetrations: [0]\n"
        assert run(tmp_path, "oracle", config=cfg) == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["cells"]["0"]["undeliverable"] is True
        assert run(tmp_path, "oracle", "--check", config=cfg) == 1

    def test_periodic_median_shift(self, tmp_path):
        cfg = (
            "oracle:\n  samples: 20000\n  penetrations: [0.05]\n"
            "comms:\n  broadcast_interval_s: 10\n"
        )
        assert run(tmp_path, "oracle", "--check", config=cfg) == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        cell = report["cells"]["0.05"]
        assert cell["periodic"] is True
        assert abs(cell["median_shift_s"] - 10.0) <= 3.0

    @pytest.mark.parametrize("n", (2000, 2001))
    def test_periodic_statistics_equal_numpy(self, tmp_path, n):
        cfg = (
            f"oracle:\n  samples: {n}\n  penetrations: [0.05]\n"
            "comms:\n  broadcast_interval_s: 10\n"
        )
        assert run(tmp_path, "oracle", "--seed", "11", config=cfg) == 0
        cell = json.loads((tmp_path / "oracle_report.json").read_text())["cells"]["0.05"]
        conf = load_config(str(tmp_path / "run.yaml"))
        arrs = oracle.sample_arrays(
            n, oracle_conditions(conf, 0.05), comm_params(conf), rng_seed=11,
            broadcast_interval=10.0,
        )
        assert cell["tau3_median_s"] == float(np.median(arrs["tau3"]))
        for name in ("tau1", "tau2", "tau3"):
            for q, got in cell["quantiles"][name].items():
                assert got == float(np.quantile(arrs[name], float(q)))

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        cfg = tmp_path / "o.yaml"
        cfg.write_text("oracle:\n  samples: 5000\n  penetrations: [0.1]\n")
        for d in (a, b):
            assert main(["oracle", "--config", str(cfg), "--output-dir", str(d)]) == 0
        assert (a / "oracle_report.json").read_bytes() == (b / "oracle_report.json").read_bytes()


class TestValidate:
    TINY = (
        "validate:\n  cells:\n    - {lanes: 1, penetration: 0.2}\n"
        "  messages: 60\n  replicates: 2\n  parallel: false\n"
    )

    def test_single_lane_cell_runs_and_has_nothing_to_check(self, tmp_path, capsys):
        assert run(tmp_path, "validate", "--check", config=self.TINY) == 0
        assert "nothing to check" in capsys.readouterr().out
        rows = read_csv(tmp_path / "validate_records.csv")
        assert sum(1 for r in rows if r["quantity"] == "tau3") == 60
        assert {r["quantity"] for r in rows} == {"tau1", "tau2", "tau3"}
        report = json.loads((tmp_path / "validate_report.json").read_text())
        cell = report["cells"]["lanes=1,alpha=0.2"]
        assert cell["quantities"]["tau3"]["n"] == 60
        assert "measured" in cell


    SHORT_ROAD = (
        "traffic:\n  length_m: 6000\ncomms:\n  landmark_x_m: 3000\n"
        "validate:\n  cells:\n    - {lanes: 1, penetration: 0.3}\n"
        "  replicates: 1\n  parallel: false\n"
    )

    def test_truncated_cell_fails_check(self, tmp_path, capsys):
        cfg = self.SHORT_ROAD + "  messages: 40\n  max_time_s: 200\n"
        assert run(tmp_path, "validate", config=cfg) == 0
        report = json.loads((tmp_path / "validate_report.json").read_text())
        cell = report["cells"]["lanes=1,alpha=0.3"]
        assert cell["truncated"] is True
        capsys.readouterr()
        assert run(tmp_path, "validate", "--check", config=cfg) == 1
        out = capsys.readouterr().out
        assert (
            f"[FAIL] lanes=1,alpha=0.3 truncated: delivered {cell['delivered']} of "
            f"{cell['created']} created within max_time_s\n"
        ) in out
        assert cell["delivered"] < cell["created"]

    def test_too_few_samples_is_config_error(self, tmp_path, capsys):
        cfg = self.SHORT_ROAD + "  messages: 1\n"
        assert run(tmp_path, "validate", config=cfg) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "lanes=1,alpha=0.3" in err and "validate.messages" in err


class TestJam:
    TINY = (
        "jam:\n  duration_s: 240\n  peak_end_s: 120\n  penetration: 0.02\n"
        "  demand_profile_veh_h: [[0, 600]]\n"
    )

    def test_writes_all_outputs(self, tmp_path):
        assert run(tmp_path, "jam", config=self.TINY) == 0
        for name in (
            "jam_events.json",
            "jam_speed_field.csv",
            "jam_front.csv",
            "jam_trajectories.csv",
            "jam_records.csv",
        ):
            assert (tmp_path / name).exists()
        events = json.loads((tmp_path / "jam_events.json").read_text())
        assert events["breakdown_time_s"] is None  # demand far below capacity
        assert events["counters"]["created"] >= 0
        field = read_csv(tmp_path / "jam_speed_field.csv")
        assert set(field[0]) == {"t_s", "x_m", "speed_kmh"}

    def test_check_fails_without_breakdown(self, tmp_path, capsys):
        cfg = self.TINY + "  age_distance_m: 500\n"
        assert run(tmp_path, "jam", "--check", config=cfg) == 1
        # the age band names the distance it was taken at
        assert "[FAIL] message age at 0.5 km: no ages" in capsys.readouterr().out

    def test_zero_penetration_clean_run(self, tmp_path):
        cfg = self.TINY + "  bottleneck:\n    extra_headway_s: 0.0\n"
        cfg = cfg.replace("penetration: 0.02", "penetration: 0")
        assert run(tmp_path, "jam", config=cfg) == 0
        events = json.loads((tmp_path / "jam_events.json").read_text())
        assert events["counters"]["created"] == 0
        assert events["message_age"] is None


class TestExitCodes:
    def test_config_errors(self, tmp_path):
        assert run(tmp_path, "analytic", config="trafic:\n  x: 1\n") == 2
        assert run(tmp_path, "analytic", config="analytic:\n  penetrations: [2.0]\n") == 2
        assert run(tmp_path, "analytic", config="comms:\n  broadcast_range_m: 0\n") == 2
        assert run(tmp_path, "oracle", config="oracle:\n  samples: 0\n") == 2
        # the jam analysis reads direction 1 only
        assert run(tmp_path, "jam", config="jam:\n  bottleneck:\n    direction: 2\n") == 2
        # a bottleneck past the road end would never act
        past_end = "jam:\n  duration_s: 60\n  bottleneck:\n    position_m: 30000\n"
        assert run(tmp_path, "jam", config=past_end) == 2
        assert main(["analytic", "--config", str(tmp_path / "missing.yaml")]) == 2

    def test_collision_maps_to_exit_3(self, tmp_path, monkeypatch):
        from transhop.traffic.road import CollisionError

        def boom(jc):
            raise CollisionError("t=1.00s direction 1 lane 0: vehicles 0 and 2 overlap")

        monkeypatch.setattr("transhop.cli.run_jam_scenario", boom)
        assert run(tmp_path, "jam", config=self.__class__.JAM) == 3

    JAM = "jam:\n  duration_s: 60\n  peak_end_s: 30\n"

    def test_range_model_key_refused_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated despite the bad config")

        monkeypatch.setattr("transhop.cli.replicate_cell", no_run)
        monkeypatch.setattr("transhop.oracle.sample_arrays", no_run)
        for command in ("oracle", "validate"):
            assert run(tmp_path, command, config="comms:\n  range_model: exponential\n") == 2
            assert "comms.range_model" in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    def test_landmark_outside_the_road_refused_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated despite the bad config")

        monkeypatch.setattr("transhop.cli.replicate_cell", no_run)
        assert run(tmp_path, "validate", config="comms:\n  landmark_x_m: 25000\n") == 2
        assert "comms.landmark_x_m" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    @pytest.mark.parametrize(
        "command, config",
        [
            ("analytic", "comms:\n  broadcast_range_m: 0\n"),
            ("validate", "validate:\n  messages: ten\n"),
        ],
    )
    def test_refused_run_leaves_no_output_dir(self, tmp_path, command, config):
        p = tmp_path / "run.yaml"
        p.write_text(config)
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_output_dir_made_on_first_write(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["analytic", "--output-dir", str(out)]) == 0
        assert (out / "analytic_table.csv").exists()

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("analytic", "seed: abc\n", "seed"),
            ("validate", "validate:\n  replicates: x\n", "validate.replicates"),
            ("validate", "traffic:\n  lanes_per_direction: x\n", "traffic.lanes_per_direction"),
            ("validate", "comms:\n  landmark_x_m: x\n", "comms.landmark_x_m"),
            ("validate", "traffic:\n  mobil:\n    politeness: x\n", "traffic.mobil.politeness"),
            ("jam", "jam:\n  penetration: x\n", "jam.penetration"),
            ("analytic", "analytic:\n  quantiles: [x]\n", "analytic.quantiles"),
            ("oracle", "oracle:\n  penetrations: [x]\n", "oracle.penetrations"),
            ("oracle", "oracle:\n  samples: 2e6\n", "oracle.samples"),  # YAML reads a string
            (
                "validate",
                "validate:\n  cells:\n    - {lanes: x, penetration: 0.05}\n",
                "validate.cells",
            ),
            # an integer key takes only a whole number, never a truncated one
            ("analytic", "seed: 7.5\n", "seed"),
            ("validate", "traffic:\n  lanes_per_direction: 2.5\n", "traffic.lanes_per_direction"),
            ("oracle", "oracle:\n  samples: 1000.5\n", "oracle.samples"),
            ("validate", "validate:\n  messages: 10.9\n", "validate.messages"),
            ("validate", "validate:\n  replicates: 1.5\n", "validate.replicates"),
            ("validate", "validate:\n  cells:\n    - {lanes: 1.5}\n", "validate.cells[0].lanes"),
            ("jam", "jam:\n  bottleneck:\n    direction: 1.5\n", "jam.bottleneck.direction"),
            # a value of the right kind that the object it builds refuses
            ("validate", "traffic:\n  mobil:\n    politeness: 1.5\n", "traffic.mobil"),
            ("validate", "traffic:\n  mobil:\n    threshold_ms2: -1\n", "traffic.mobil"),
            ("validate", "traffic:\n  mobil:\n    keep_right_bias_ms2: -1\n", "traffic.mobil"),
            ("validate", "traffic:\n  desired_speed_std_kmh: -5\n", "traffic: desired_speed_std"),
            ("jam", "traffic:\n  desired_speed_std_kmh: -5\n", "traffic: desired_speed_std"),
            ("oracle", "comms:\n  broadcast_interval_s: -1\n", "comms: broadcast_interval"),
            ("validate", "comms:\n  broadcast_interval_s: -1\n", "comms: broadcast_interval"),
            ("jam", "comms:\n  broadcast_interval_s: -1\n", "comms: broadcast_interval"),
            ("jam", "jam:\n  thresholds:\n    congested_below_kmh: 70\n", "jam.thresholds"),
            ("validate", "jam:\n  thresholds:\n    congested_below_kmh: 70\n", "jam.thresholds"),
            ("jam", "jam:\n  bottleneck:\n    extra_headway_s: -1\n", "jam.bottleneck"),
            ("jam", "jam:\n  demand_profile_veh_h: [[0, -5]]\n", "jam.demand_profile_veh_h"),
            (
                "jam",
                "jam:\n  demand_profile_veh_h: [[10, 500], [5, 600]]\n",
                "jam.demand_profile_veh_h",
            ),
            ("oracle", "seed: -3\n", "seed"),
            ("validate", "seed: -3\n", "seed"),
            ("jam", "seed: -3\n", "seed"),
            ("oracle --seed -3", "", "seed"),
            ("validate --seed -3", "", "seed"),
            ("jam --seed -3", "", "seed"),
        ],
    )
    def test_wrong_kind_refused_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, config, key
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("ran despite the bad config")

        monkeypatch.setattr("transhop.cli.replicate_cell", no_run)
        monkeypatch.setattr("transhop.cli.run_jam_scenario", no_run)
        monkeypatch.setattr("transhop.oracle.sample_arrays", no_run)
        p = tmp_path / "run.yaml"
        p.write_text(config)
        out = tmp_path / "out"
        assert main([*command.split(), "--config", str(p), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()
