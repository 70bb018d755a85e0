"""Golden digests: sha256 of the bytes short seeded runs emit.

The CLI tests check that a run reproduces itself; these check that the
emitted bytes stay the same across code changes.  Each digest was taken
from the code as it stood before the engine refactors it now guards.  A
digest may only be regenerated with the reason written in CHANGES.md.

The 3-lane run is the only one that reaches the two-sided lane-change
pick: a middle lane can move either way.
"""

import hashlib

import numpy as np
import pytest

from transhop import oracle
from transhop.cli import main
from transhop.params import CommParams, TrafficConditions
from transhop.traffic.road import InflowProfile, RoadConfig, TrafficSim

VALIDATE = """\
validate:
  cells:
    - {lanes: 2, penetration: 0.05}
    - {lanes: 1, penetration: 0.05}
  messages: 10
  replicates: 2
  parallel: false
"""

RUNS = {
    "validate": (VALIDATE, ("validate_report.json", "validate_records.csv")),
    "jam": (
        "jam:\n  duration_s: 900\n",
        (
            "jam_events.json",
            "jam_speed_field.csv",
            "jam_front.csv",
            "jam_trajectories.csv",
            "jam_records.csv",
        ),
    ),
    "oracle": ("oracle:\n  samples: 20000\n", ("oracle_report.json",)),
    "analytic": ("", ("analytic_table.csv", "analytic_curves.csv")),
}

GOLDEN = {
    "validate_report.json": "651e436a93ea5749fa9b78b9e754ab0856bd630c03bf88ab6db35e2f2203f57c",
    "validate_records.csv": "19ea3d490fbee430263afc2b090bcb73ce704ac8f96e8e287d26cccc3ff908f8",
    "jam_events.json": "50ea923a9d35f346a7685d3781d3a6ec0c3ff2dba2bbef7fdae9d39fbee6ee56",
    "jam_speed_field.csv": "5bf8c0ce2b80e6054a7faf29b73739f4227922846a06856a1222b5f7cb362ef3",
    "jam_front.csv": "e830a8193577469f61df436d0ddb298d35ce932b286fa1ebbad8e359ae7fa41f",
    "jam_trajectories.csv": "026f9c583e4514189fea6e3f7c7579be953d5b81875089f05fbe4bace1c60329",
    "jam_records.csv": "8044a9b917e5266986d21799b95f4908d78a701dcca800eca667892a349eb249",
    "oracle_report.json": "1c6ea502c0a3fe613f17313ea0f4dec83776802e2a0f3ad849f90d10a223fc31",
    "analytic_table.csv": "db602cd297840d692acd2d9505ba5ecac12412afc89a2596c70f8d7a05ff2e47",
    "analytic_curves.csv": "e9913768a54db50bd53739656e2fd898586a3abe212346fa2835dbc063389cf9",
}

THREE_LANE = "2424b2aa6b30d7d9738a54ed95872633106dba8008dc986cdbf9dd73f8da34e5"

# Oracle draws with exponential ranges (mean 200 m), keyed by broadcast interval.
# The golden analytic digests pin the P3dist curve; these pin the draws.
DISTRIBUTED_ORACLE = {
    0.0: "1ee4de44881d6d5a293f075de013d365f0c7998ed1468dbe32b56bdd9e2a57d1",
    10.0: "b1be3d8a3e43466c01b235519c4ce20b98272faa9e0b063c9ffa32aadaa96b4f",
}

# The 900-s jam run delivers nothing, so its jam_records.csv digest pins only
# the header.  By 1200 s messages of both kinds have been delivered; these
# are the rows cmd_jam writes for them.
JAM_RECORDS_1200 = """\
message_id,kind,creation_time,source_x,tau1,tau2,tau3,delivery_x
2,DownstreamJamFront,898.75,10379.788460243657,30.0,117.75,136.5,8846.853071055677
4,DownstreamJamFront,953.75,10389.200070298775,8.0,62.25,81.5,8846.853071055677
0,UpstreamJamFront,784.0,9754.420025398626,144.75,254.25,285.0,7876.980638743629
1,UpstreamJamFront,802.25,9651.175371846664,159.5,239.5,266.75,7876.980638743629
3,UpstreamJamFront,935.5,9638.457685798421,62.75,106.75,133.5,7876.980638743629
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(RUNS))
def test_cli_outputs_match_golden(tmp_path, command):
    config, outputs = RUNS[command]
    path = tmp_path / "run.yaml"
    path.write_text(config)
    assert main([command, "--config", str(path), "--output-dir", str(tmp_path)]) == 0
    got = {name: _sha256((tmp_path / name).read_bytes()) for name in outputs}
    assert got == {name: GOLDEN[name] for name in outputs}


def test_jam_records_rows_match_golden(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("jam:\n  duration_s: 1200\n")
    assert main(["jam", "--config", str(path), "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "jam_records.csv").read_text() == JAM_RECORDS_1200


def three_lane_digest() -> str:
    rate = 1500.0 / 3600.0
    cfg = RoadConfig(
        length=8000.0,
        n_lanes=3,
        inflow1=InflowProfile(rate),
        inflow2=InflowProfile(rate),
    )
    sim = TrafficSim(cfg, seed=5)
    sim.run(600.0)
    h = hashlib.sha256()
    for k in (1, 2):
        d = sim.state(k)
        for arr, dtype in ((d.s, "<f8"), (d.v, "<f8"), (d.lane, "<i8"), (d.vid, "<i8")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def test_three_lane_state_matches_golden():
    assert three_lane_digest() == THREE_LANE


@pytest.mark.parametrize("interval", sorted(DISTRIBUTED_ORACLE))
def test_distributed_oracle_draws_match_golden(interval):
    tc = TrafficConditions(v1=20.0, v2=30.0, rho1=0.02, rho2=0.035, alpha=0.07)
    arrs = oracle.sample_arrays(
        2000, tc, CommParams(200.0, 1000.0), rng_seed=20260816,
        broadcast_interval=interval, distributed=True,
    )
    h = hashlib.sha256()
    for key in ("x2", "r", "tau1", "tau2", "tau3"):
        h.update(np.ascontiguousarray(arrs[key], dtype="<f8").tobytes())
    assert h.hexdigest() == DISTRIBUTED_ORACLE[interval]
