"""transhop benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
src/ directory.  The run sets up the workload in fresh interpreters
(setup_s is the median over them), then runs units of the workload for
--seconds seconds in one more and checks every unit's outputs.  Every
set-up and every unit is sampled for the host's speed and its time is also
given in reference seconds (see reference.py).
With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json,
with --trace 1 the per-layer metrics of a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object.  The
outputs, the per-unit log with the sha256 of every seeded output, the
machine description and (traced) the spans go to perfbench/_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh interpreters that only set up
SETUP_PROBES = 3


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def _source_digest():
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe_machine():
    versions = {}
    for lib in ("numpy", "scipy", "PyYAML"):
        try:
            versions[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            versions[lib] = "missing"
    return {
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "libraries": versions,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


def _spawn(cmd, timeout):
    """Run a worker; returns (seconds from spawn to its set-up done, its result)."""
    t0 = time.monotonic()
    # its own session, so a timeout also ends the worker's pool children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker did not finish within {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(stdout[-4000:] + stderr[-4000:])
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "transhop" / "__init__.py").is_file():
        print(f"no transhop sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    from reference import to_reference_s
    from worker import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # JSON is valid YAML, so the standard library writes the config file
    config = WORKLOADS[args.workload].config(bool(args.trace))
    (run_dir / "config.yaml").write_text(json.dumps(config, indent=2) + "\n")

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--run-dir", str(run_dir)]
    setup, setup_ref = [], []
    for _ in range(SETUP_PROBES):
        seconds, probe = _spawn(cmd + ["--setup-only"], timeout=60)
        seconds -= probe["host"]["sampling_s"]
        setup.append(seconds)
        setup_ref.append(to_reference_s(seconds, probe["host"]))
    ready, result = _spawn(
        cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=args.seconds + 120,
    )
    setup.append(ready)

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "wall_ref_s": {"value": result["wall_ref_s"], "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "tau3_per_s": {"value": result["tau3_samples"] / result["tau3_wall_s"],
                           "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    attempted = result["messages_attempted"]
    failed = result["messages_failed"]
    fail_frac = failed / attempted if attempted else 0.0
    machine = describe_machine()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['units']} units, {result['units_failed']} failed the gate")
    for u in result["unit_log"]:
        for problem in u["problems"]:
            print(f"  unit seed {u['seed']}: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  tau3_per_s base: {result['tau3_samples']} samples in "
          f"{result['tau3_wall_s']:.3f} s")
    print(f"  fail_frac = {fail_frac:.6g} ({failed} of {attempted} "
          f"{'--check bands' if args.workload == 'closed_forms' else 'messages'})")
    print(f"  setup samples {[round(s, 4) for s in setup]} s (the last is the "
          f"measuring worker), in reference seconds {[round(s, 4) for s in setup_ref]}")
    print(f"  machine {machine['cpu']}, {machine['cpus']} cpus, python "
          f"{machine['python']}, {machine['libraries']}, "
          f"revision {machine['git_revision']}")

    (run_dir / "result.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_s_samples": setup,
        "setup_ref_s_samples": setup_ref,
        "fail_frac": {"value": fail_frac, "failed": failed, "attempted": attempted},
        "metrics": metrics,
        "worker": result,
    }, indent=1) + "\n")
    print(f"  details in {run_dir.relative_to(ROOT)}/result.json")

    print(json.dumps({
        "correct": result["units_failed"] == 0,
        "attempted": result["units"],
        "failed": result["units_failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
