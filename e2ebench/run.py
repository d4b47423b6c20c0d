"""End-to-end campaign benchmark: one command, every metric by name.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload default-sweep --seed 1 \\
        --seconds 16 --trace 0

Workloads (see ``BENCHMARK.json`` and ``e2ebench/README.md``):
``default-sweep``, ``lane-large``, ``lane-sharded`` and ``service-mix``.
Every run starts fresh processes with empty caches, builds its requests
from ``--seed`` only, checks every report, and prints a human-readable
table followed by one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the time each, untraced and traced, and reports
the per-layer metrics from the traced half plus the tracing overhead
(traced minus untraced ``campaign_s.p50`` and ``latency_ms.p50``).

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
from spans import PER_LAYER, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".e2ebench-work")
WORKLOADS = ("default-sweep", "lane-large", "lane-sharded", "service-mix")
#: Set-up-only processes per library run, started by the measuring child
#: between its requests (its own set-up is one more sample).
SETUP_PROBES = 10
#: Seconds one library child may take beyond the measured window.
CHILD_GRACE_S = 90

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s.p50": "s",
    "faults_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p95": "ms",
    "peak_rss_mb": "MB",
}


def host_record(seed: int) -> dict:
    from importlib import metadata

    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo",
                                            encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "cpu": model, "seed": seed}


def child_env() -> dict:
    """Environment of every child: the checkout's program, its bytecode
    cached inside the checkout (as an installed package would have it),
    and no cache settings inherited from the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    for name in ("PYTHONDONTWRITEBYTECODE", "REPRO_CACHE_DIR",
                 "REPRO_CACHE_SIZE"):
        env.pop(name, None)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src")], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return env


def run_library(workload: str, seed: int, seconds: float, env: dict,
                trace_out: str | None = None, probes: int = 0) -> dict:
    command = [sys.executable, os.path.join(HERE, "library.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--probes", str(probes)]
    if trace_out is not None:
        command += ["--trace-out", trace_out]
    command += ["--spawned-at", str(time.monotonic())]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, check=False,
                          timeout=seconds + CHILD_GRACE_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} child failed "
                           f"({done.returncode}):\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, env: dict, work: str,
            trace_out: str | None = None, probes: bool = True) -> dict:
    """One measurement; ``trace_out`` turns the spans on."""
    if workload == "service-mix":
        import service

        return service.measure(ROOT, work, env, seed, seconds, trace_out,
                               probes)
    return run_library(workload, seed, seconds, env, trace_out,
                       SETUP_PROBES if probes else 0)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def p95(values) -> float:
    return statistics.quantiles(values, n=20)[18]


def warm_latencies(result: dict, scaled: bool = True) -> list[float]:
    """The samples latency quantiles are taken over.

    Library workloads replay every config equally often, so quantiles of
    the pooled samples fall on boundaries between configs, where they
    read the noisiest samples of two configs (30% swings between runs);
    they are taken over each config's median hit latency instead, each
    scaled by the speed samples taken around its hits (the speed moves
    within seconds: with one factor for the run, the same config's
    median varied by 30% within a run).  The service's open-loop samples
    are pooled and scaled by the samples taken in the gaps of the open
    loop (see :mod:`service`).
    """
    if "warm_speed" not in result:
        scale = hostspeed.factor(result["latency_speed"]) if scaled else 1.0
        return [ms / scale for ms in result["warm_ms"]]
    return [statistics.median(hits)
            / (hostspeed.factor(around) if scaled else 1.0)
            for hits, around in zip(result["warm_ms"], result["warm_speed"],
                                    strict=True) if hits]


def end_to_end(result: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics of one measurement, at the reference host
    speed (see :mod:`hostspeed`) unless ``scaled`` is false.

    Each set-up is scaled by the samples its own process took right
    after it, the cold metrics by all samples of the run, and the hit
    latencies as :func:`warm_latencies` says.
    """
    cold = result["cold"]
    warm = warm_latencies(result, scaled)

    def factor(samples: list[float]) -> float:
        return hostspeed.factor(samples) if scaled else 1.0

    speed = factor(result["speed"])
    return {
        "setup_s": statistics.median(seconds / factor(samples)
                                     for seconds, samples
                                     in result["setup_samples"]),
        "campaign_s.p50": statistics.median(c["s"] for c in cold) / speed,
        "faults_per_s": sum(c["faults"] for c in cold) / result["loop_s"]
        * speed,
        "latency_ms.p50": statistics.median(warm),
        "latency_ms.p95": p95(warm),
        "peak_rss_mb": result["rss_mb"],
    }


def per_layer(workload: str, untraced: dict, traced: dict,
              trace_out: str) -> tuple[dict, list]:
    def p50_s(result, count):
        return (statistics.median(c["s"] for c in result["cold"][:count])
                / hostspeed.factor(result["speed"]))

    def latency(result):
        return end_to_end(result)["latency_ms.p50"]

    common = min(len(untraced["cold"]), len(traced["cold"]))
    extra = {
        "trace.overhead_campaign_s":
            p50_s(traced, common) - p50_s(untraced, common),
        "trace.overhead_latency_ms": latency(traced) - latency(untraced),
    }
    if workload != "service-mix":
        layers = traced["layers"]
        layers.update(extra)
        return layers, traced.get("absent", [])
    with open(trace_out, encoding="utf-8") as handle:
        dump = json.load(handle)
    app_s = {rid: end - start for _i, name, start, end, _p, rid
             in dump["spans"] if name == "app"}
    hops = traced["client_s"]
    before, after = traced["cache_before"], traced["cache_after"]
    extra.update({
        "cache.evictions": after["evictions"] - before["evictions"],
        "cache.disk_promotions":
            after["disk_promotions"] - before["disk_promotions"],
        "schemas.response_bytes": statistics.fmean(traced["response_bytes"]),
        "client.late_ms.p90": p90(traced["late_ms"]),
        "other_s": statistics.fmean(client_s - app_s.get(rid, 0.0)
                                    for rid, client_s in hops),
    })
    layers = layer_metrics(dump["spans"], dump["counts"],
                           [rid for rid, _ in hops], extra)
    return layers, dump["absent"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"e2ebench: no program source under {ROOT}/src -- run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))  # for the service checks
    host = host_record(args.seed)
    print("host: " + json.dumps(host))
    if args.workload == "lane-sharded" and host["nproc"] < 2:
        print(f"lane-sharded: SKIPPED (nproc={host['nproc']} < 2 cpus; "
              f"not a pass)")
        return 3
    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env()

    with hostspeed.no_idle_cpus():
        return report(args, host, work, env)


def report(args, host: dict, work: str, env: dict) -> int:
    """Measure, print the metrics and the result line."""
    absent: list[str] = []
    if args.trace:
        trace_out = os.path.join(work, "spans.json")
        half = args.seconds / 2
        untraced = measure(args.workload, args.seed, half, env, work,
                           probes=False)
        result = measure(args.workload, args.seed, half, env, work,
                         trace_out, probes=False)
        metrics, absent = per_layer(args.workload, untraced, result,
                                    trace_out)
        units = {name: unit for name, (unit, _b) in PER_LAYER.items()}
        attempted = untraced["attempted"] + result["attempted"]
        failed = untraced["failed"] + result["failed"]
        errors = untraced["errors"] + result["errors"]
    else:
        result = measure(args.workload, args.seed, args.seconds, env, work)
        metrics = end_to_end(result)
        raw = end_to_end(result, scaled=False)
        print(f"host speed factor {hostspeed.factor(result['speed']):.4f} "
              f"(raw: " + ", ".join(f"{name} {value:.6g}"
                                    for name, value in raw.items()) + ")")
        units = END_TO_END_UNITS
        attempted, failed = result["attempted"], result["failed"]
        errors = result["errors"]

    out = {name: {"value": metrics.get(name, 0.0), "unit": unit}
           for name, unit in units.items()}
    for name, metric in out.items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'error_rate':34s} {failed / max(attempted, 1):>14.6g} "
          f"({failed} failed of {attempted} attempted)")
    for target in absent:
        print(f"absent layer: {target}")
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"host": host, "metrics": out, "attempted": attempted,
                   "failed": failed, "errors": errors, "absent": absent,
                   "host_speed_samples": result["speed"],
                   "cold": result["cold"],
                   "setup_samples": result.get("setup_samples", [])},
                  handle, indent=1)
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
