"""Replicate-throughput benchmark of partition-fields.

Run from the root of a checkout:

    python3 bench/run.py                      # every workload, tracing off
    python3 bench/run.py --trace 1            # every workload, per-layer trace
    python3 bench/run.py --workload hs2d-cov --seed 7 --seconds 20 --trace 0

Each workload runs in fresh interpreters that import ``partition_fields``
from the checkout's ``src/`` (see child.py).  Set-up is timed from process
start to a warm state in SETUP_SAMPLES fresh interpreters and reported as
their median; the last of them then makes the timed verify calls.  The
human-readable report goes to stdout; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything a run
measured (calls, digests, verdicts, environment) is also written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
SETUP_ALLOWANCE_S = 20.0  # per set-up sample, for the deadline of a run


def environment(versions: dict) -> dict:
    """Interpreter, library versions and the machine the run measured."""
    env = {"python": platform.python_version(), **versions, "nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = platform.processor() or None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    env["caches"] = caches
    return env


def run_child(args, seconds: float, deadline: float, spans_out: Path | None = None) -> tuple[float, dict]:
    """Run child.py in a fresh interpreter; return (start-to-READY seconds, its result)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", str(seconds), "--trace", str(args.trace)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        # the kill at the deadline ends both reads below
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline()
            ready_s = perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0 or line.strip() != "READY" or not rest.strip():
        raise SystemExit(f"{cmd} failed with exit code {proc.returncode}")
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def run_workload(args) -> dict:
    """Set-up samples plus one measured run of one workload; returns the result."""
    # a run measures for about --seconds, longer if its minimum number of calls needs it
    deadline = perf_counter() + SETUP_SAMPLES * SETUP_ALLOWANCE_S + 4 * args.seconds + 20.0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{re.sub(r'[^A-Za-z0-9_.-]', '_', args.seed)}-trace{args.trace}"
    spans_out = OUT / f"{stem}.spans.json" if args.trace else None
    setups = [run_child(args, 0, deadline) for _ in range(SETUP_SAMPLES - 1)]
    setups.append(run_child(args, args.seconds, deadline, spans_out))
    run = setups[-1][1]
    setup_s = [s for s, _ in setups]

    metrics = dict(run.get("metrics", {}))
    if args.trace:
        for name in setups[0][1]["setup_layers"]:
            values = [out["setup_layers"][name] for _, out in setups]
            metrics[name] = {"value": statistics.median(values), "unit": "s", "samples": len(values)}
    else:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s", "samples": len(setup_s)}
    failed, attempted = run["failed"], run["attempted"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(run["versions"]),
        "setup_samples_s": setup_s,
        **{k: v for k, v in run.items() if k not in ("metrics", "versions")},
        "failed_ratio": failed / attempted,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict, wanted: tuple[str, ...]) -> dict:
    """Print one run in readable form and return its contract line.

    ``wanted`` are the metric names BENCHMARK.json lists for this mode; the
    run is correct only if no call failed and every one of them was measured.
    """
    w = WORKLOADS[result["workload"]]
    env = result["environment"]
    print(f"workload {w.name}: {w.kind} alphas={w.alphas} n={w.n} suite={w.suite} "
          f"R={w.replicates} parallelism={result['parallelism']} seed={result['seed']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("computed: " + ", ".join(f"{k}={v}" for k, v in result["computed"].items()))
    ref = result["reference"]
    print(f"scheme {result['scheme']}: reference digest {ref['digest']} (recorded {ref['recorded']})")
    verdicts = [v for c in result["calls"] for v in c.get("verdict", ())]
    passed = sum(v["passed"] for v in verdicts)
    print(f"suite verdict (information only): {passed} of {len(verdicts)} checks pass")
    for c in result["calls"]:
        if "error" in c:
            print(f"FAILED call seed={c['seed']} p={c['parallelism']}: {c['error']}")
    if result.get("absent"):
        print("absent bindings (time falls into the caller's self time): " + ", ".join(result["absent"]))
    metrics = {n: result["metrics"][n] for n in wanted if n in result["metrics"]}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    print(f"  {'failed_ratio':36s} {result['failed_ratio']:14.6g} {'ratio':6s} n={result['attempted']}")
    return {
        "correct": result["failed"] == 0 and len(metrics) == len(wanted),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }


def contract_names(trace: int) -> tuple[str, ...]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "partition_fields" / "__init__.py").is_file():
        print(f"no partition_fields package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = contract_names(args.trace)

    if args.workload != "all":
        print(json.dumps(report(run_workload(args), wanted)))
        return 0
    lines = {}
    for name in WORKLOADS:
        lines[name] = report(run_workload(argparse.Namespace(**{**vars(args), "workload": name})), wanted)
        print(json.dumps(lines[name]), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in lines.values()),
        "failed": sum(r["failed"] for r in lines.values()),
        "metrics": {f"{w}/{n}": m for w, r in lines.items() for n, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
