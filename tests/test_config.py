import pytest

from transhop import config
from transhop.config import ConfigError


def write(tmp_path, text):
    p = tmp_path / "run.yaml"
    p.write_text(text)
    return str(p)


class TestLoading:
    def test_defaults(self):
        cfg = config.load_config(None)
        assert set(cfg) == {
            "seed", "output_dir", "comms", "traffic", "analytic",
            "oracle", "validate", "jam",
        }
        assert cfg["comms"]["broadcast_range_m"] == 200
        assert cfg["traffic"]["lanes_per_direction"] == 2

    def test_defaults_are_copies(self):
        a = config.load_config(None)
        a["traffic"]["idm"]["min_gap_m"] = 99
        assert config.load_config(None)["traffic"]["idm"]["min_gap_m"] == 2.0

    def test_deep_merge_keeps_siblings(self, tmp_path):
        cfg = config.load_config(write(tmp_path, "traffic:\n  time_step_s: 0.5\n"))
        assert cfg["traffic"]["time_step_s"] == 0.5
        assert cfg["traffic"]["inflow_per_lane_veh_h"] == 1200
        assert cfg["traffic"]["idm"]["time_headway_s"] == 1.2

    def test_empty_file_is_defaults(self, tmp_path):
        assert config.load_config(write(tmp_path, "")) == config.load_config(None)

    def test_unknown_key_names_its_path(self, tmp_path):
        with pytest.raises(ConfigError, match="traffic.time_step"):
            config.load_config(write(tmp_path, "traffic:\n  time_step: 0.5\n"))
        with pytest.raises(ConfigError, match="traffic.idm.maxaccel"):
            config.load_config(write(tmp_path, "traffic:\n  idm:\n    maxaccel: 2\n"))

    def test_section_must_be_mapping(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            config.load_config(write(tmp_path, "traffic: 5\n"))
        with pytest.raises(ConfigError, match="mapping"):
            config.load_config(write(tmp_path, "- 1\n- 2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            config.load_config(str(tmp_path / "nope.yaml"))

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid YAML"):
            config.load_config(write(tmp_path, "traffic: [unclosed\n"))


class TestCommSide:
    def test_fixed_params(self):
        cp = config.comm_params(config.load_config(None))
        assert cp.fixed_r == 200.0
        assert cp.r_min == 1000.0

    def test_range_model_key_is_unknown(self, tmp_path):
        with pytest.raises(ConfigError, match="'comms.range_model'"):
            config.load_config(write(tmp_path, "comms:\n  range_model: exponential\n"))

    def test_bad_model_and_values(self, tmp_path):
        with pytest.raises(ConfigError, match="range_model"):
            config.comm_params(config.load_config(write(tmp_path, "comms:\n  range_model: gauss\n")))
        with pytest.raises(ConfigError, match="broadcast_range_m"):
            config.comm_params(config.load_config(write(tmp_path, "comms:\n  broadcast_range_m: 0\n")))

    def test_engine_config_units(self):
        cc = config.comms_config(config.load_config(None))
        assert cc.broadcast_range == 200.0
        assert cc.min_distance == 1000.0
        assert cc.jam.v_congested == pytest.approx(30.0 / 3.6)
        assert cc.jam.v_free == pytest.approx(60.0 / 3.6)
        assert config.comms_config(config.load_config(None), jam_detection=True).jam_detection


class TestRoadSide:
    def test_defaults_in_si(self):
        rc = config.road_config(config.load_config(None))
        assert rc.n_lanes == 2
        assert rc.length == 20000.0
        assert rc.desired_speed_mean == pytest.approx(120.0 / 3.6)
        assert rc.inflow1.qs[0] == pytest.approx(1200.0 / 3600.0)
        assert rc.inflow2.qs[0] == pytest.approx(1200.0 / 3600.0)

    def test_overrides_win(self):
        rc = config.road_config(config.load_config(None), n_lanes=1, equipped_fraction=0.5)
        assert rc.n_lanes == 1
        assert rc.equipped_fraction == 0.5

    def test_bad_value_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="time_step_s"):
            config.road_config(config.load_config(write(tmp_path, "traffic:\n  time_step_s: -1\n")))


class TestConditions:
    def test_analytic_si_conversion(self):
        tc = config.analytic_conditions(config.load_config(None), alpha=0.1)
        assert tc.v1 == pytest.approx(25.0)
        assert tc.v2 == pytest.approx(25.0)
        assert tc.lambda2 == pytest.approx(0.003)

    def test_oracle_matches_analytic_defaults(self):
        cfg = config.load_config(None)
        a = config.analytic_conditions(cfg, 0.05)
        o = config.oracle_conditions(cfg, 0.05)
        assert (a.v1, a.rho1) == (o.v1, o.rho1)


class TestValidationCells:
    def test_default_cell(self):
        cells = config.validation_cells(config.load_config(None), seed=500)
        assert len(cells) == 1
        assert cells[0].road.n_lanes == 2
        assert cells[0].road.equipped_fraction == 0.05
        assert cells[0].messages == 10000
        assert cells[0].seed == 500

    def test_seed_spacing(self, tmp_path):
        cfg = config.load_config(write(
            tmp_path,
            "validate:\n  cells:\n    - {lanes: 1, penetration: 0.02}\n"
            "    - {lanes: 2, penetration: 0.1}\n",
        ))
        cells = config.validation_cells(cfg, seed=7)
        assert [c.seed for c in cells] == [7, 100007]
        assert [c.road.n_lanes for c in cells] == [1, 2]

    def test_replicate_seeds_must_not_reach_next_cell(self, tmp_path):
        two_cells = "validate:\n  cells:\n    - {lanes: 1}\n    - {lanes: 2}\n"
        cfg = config.load_config(write(tmp_path, two_cells + "  replicates: 101\n"))
        with pytest.raises(ConfigError, match="replicates above 100"):
            config.validation_cells(cfg, seed=7)
        cfg = config.load_config(write(tmp_path, two_cells + "  replicates: 100\n"))
        assert len(config.validation_cells(cfg, seed=7)) == 2
        one_cell = "validate:\n  cells:\n    - {lanes: 1}\n  replicates: 101\n"
        assert len(config.validation_cells(config.load_config(write(tmp_path, one_cell)), 7)) == 1

    def test_cell_validation(self, tmp_path):
        for body, msg in (
            ("validate:\n  cells: []\n", "non-empty"),
            ("validate:\n  cells:\n    - {lanes: 2, foo: 1}\n", "keys lanes, penetration"),
            ("validate:\n  cells:\n    - {lanes: 0}\n", "at least 1"),
            ("validate:\n  cells:\n    - {penetration: 0}\n", r"\(0, 1\]"),
            ("validate:\n  cells:\n    - {penetration: 1.2}\n", r"\(0, 1\]"),
        ):
            with pytest.raises(ConfigError, match=msg):
                config.validation_cells(config.load_config(write(tmp_path, body)), seed=1)

    def test_whole_float_is_an_integer(self, tmp_path):
        body = (
            "traffic:\n  lanes_per_direction: 3.0\n"
            "validate:\n  cells:\n    - {lanes: 1.0}\n  messages: 12.0\n"
        )
        cfg = config.load_config(write(tmp_path, body))
        cell = config.validation_cells(cfg, seed=1)[0]
        got = (config.road_config(cfg).n_lanes, cell.road.n_lanes, cell.messages)
        assert got == (3, 1, 12) and all(type(x) is int for x in got)

    def test_full_penetration_allowed(self, tmp_path):
        cfg = config.load_config(write(tmp_path, "validate:\n  cells:\n    - {penetration: 1.0}\n"))
        assert config.validation_cells(cfg, seed=1)[0].road.equipped_fraction == 1.0


class TestJamScenario:
    def test_defaults(self):
        jc = config.jam_scenario(config.load_config(None), seed=3)
        assert jc.seed == 3
        assert jc.duration == 5400.0
        assert jc.peak_end == 2400.0
        assert jc.road.equipped_fraction == 0.01
        assert jc.comm.jam_detection and jc.comm.landmark_x is None
        b = jc.road.bottlenecks[0]
        assert (b.direction, b.width, b.extra_headway) == (1, 400.0, 1.4)
        assert list(jc.road.inflow1.ts) == [0.0, 600.0, 2400.0, 3000.0, 5400.0]
        assert jc.road.inflow1.q_max == pytest.approx(1900.0 / 3600.0)
        # direction 2 keeps the flat base inflow
        assert list(jc.road.inflow2.qs) == [1200.0 / 3600.0]

    def test_zero_penetration_allowed(self, tmp_path):
        cfg = config.load_config(write(tmp_path, "jam:\n  penetration: 0\n"))
        assert config.jam_scenario(cfg, seed=1).road.equipped_fraction == 0.0

    def test_validation(self, tmp_path):
        for body, msg in (
            ("jam:\n  penetration: 1.5\n", r"\[0, 1\]"),
            ("jam:\n  bottleneck:\n    direction: 3\n", "direction"),
            ("jam:\n  demand_profile_veh_h: [[0, 1200], [600]]\n", "pairs"),
            ("jam:\n  demand_profile_veh_h: []\n", "pairs"),
        ):
            with pytest.raises(ConfigError, match=msg):
                config.jam_scenario(config.load_config(write(tmp_path, body)), seed=1)
