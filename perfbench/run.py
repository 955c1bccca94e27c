#!/usr/bin/env python3
"""End-to-end benchmark of the reshape pipeline and the loops around it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_html18m --seed 1 \
        --seconds 20 --trace 0

It builds reshape_cli and the benchmark driver from the checkout's sources
into .bench_build/ (or $CARGO_TARGET_DIR), runs one workload in one driver
process, checks its outputs and prints one JSON result as the last stdout
line: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.

Every workload runs all four families of work -- the pipeline through
reshape_cli, the storm-grid campaign, the text kernels and the planning
server -- so that every metric is measured on every workload.  The
workload's own family runs at full scale, the other three as small probes,
and the driver interleaves their steps over the whole of --seconds.
NOTES.md gives the workloads, the scales and the layer-to-metric table.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
OUT = os.path.join(BUILD, "perfbench-out")
CLI = os.path.join(BUILD, "examples", "reshape_cli")
DRIVER = os.path.join(BUILD, "perfbench_driver")

WORKLOADS = {
    "pipeline_html18m": "pipeline",
    "campaign_storm": "campaign",
    "text_kernels": "text",
    "serve_mixed": "serve",
}
FAMILIES = ["pipeline", "campaign", "text", "serve"]
CHILD_TIMEOUT_S = 170.0
OBS_PREFIXES = ("sim.events_fired", "controller.", "textproc.", "serve.")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout=CHILD_TIMEOUT_S):
    """Runs cmd to completion in its own process group; returns (exit code,
    stdout, stderr).  If it overruns, the whole group -- the driver and any
    reshape_cli pass it started -- is killed and the driver reaped."""
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            code = proc.wait()
        out.seek(0)
        err.seek(0)
        return code, out.read().decode(), err.read().decode()


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository sources in %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", BUILD,
               "-DRESHAPE_BUILD_TESTS=OFF", "-DRESHAPE_BUILD_BENCH=OFF",
               "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "reshape_cli",
           "perfbench_driver", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    os.makedirs(OUT, exist_ok=True)


def driver(own, seed, seconds, trace):
    """Runs the workload in the driver; returns its per-family records."""
    cmd = [DRIVER, "--own", own, "--cli", CLI, "--seed", str(seed),
           "--seconds", str(seconds), "--out-dir", OUT]
    if trace:
        cmd.append("--trace")
    code, out, err = run(cmd)
    if code != 0:
        raise BenchError("driver failed (%d): %s" % (code, err[-600:]))
    records = [json.loads(l) for l in out.strip().splitlines()[-len(FAMILIES):]]
    if sorted(r["family"] for r in records) != sorted(FAMILIES):
        raise BenchError("driver printed %d family records" % len(records))
    return {r["family"]: r for r in records}


def llc_bytes():
    """Size of the last-level cache, for the stamp (the text family's
    blocks must be at least four times larger)."""
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path) as f:
            text = f.read().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def obs_counters(info):
    path = info.get("obs_metrics")
    if not path or not os.path.isfile(path):
        return {}
    with open(path) as f:
        counters = json.load(f).get("counters", {})
    return {k: v for k, v in counters.items() if k.startswith(OBS_PREFIXES)}


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
        build()
        own = WORKLOADS[args.workload]
        trace = bool(args.trace)
        results = driver(own, args.seed, args.seconds, trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1

    ordered = [results[own]] + [results[f] for f in FAMILIES if f != own]
    attempted = sum(r["attempted"] for r in ordered)
    failed = sum(r["failed"] for r in ordered)
    for r in ordered:
        for what in r["check_failures"]:
            log("perfbench: CHECK FAILED: %s" % what)

    # The workload's own family wins where two families measure the same
    # name (deadline_miss_frac, cost_usd, obs.trace_overhead_frac); the
    # probes follow in FAMILIES order.
    # setup_s is the whole run's set-up: every family's own median set-up,
    # summed.  The own family's alone was as small as 8 ms on some
    # workloads, too short to read steadily.
    values = {"setup_s": sum(r["setup_s"] for r in ordered),
              "peak_rss_mb": results[own]["peak_rss_mb"]}
    for r in ordered:
        for table in ("metrics", "per_layer"):
            for name, m in r[table].items():
                values.setdefault(name, m["value"])
    values["fail_frac"] = failed / attempted if attempted else 1.0

    info = results[own]["info"]
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": info.get("build_type"),
        "compiler": info.get("compiler"),
        "nproc": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "reshape_obs": info.get("obs_compiled_in"),
        "obs_runtime": "on for one untimed step per family" if trace else "off",
        "scales": {f: ("full" if f == own else "probe") for f in FAMILIES},
        "family_info": {f: results[f]["info"] for f in FAMILIES},
        "family_setup_s": {f: results[f]["setup_s"] for f in FAMILIES},
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    if trace:
        counters = obs_counters(results[own]["info"])
        print("obs counters: " + json.dumps(counters, sort_keys=True))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log("perfbench: metric %s was not measured" % m["name"])
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
