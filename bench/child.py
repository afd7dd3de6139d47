"""One fresh interpreter of the benchmark: set-up, then timed verify calls.

Started by run.py as

    python3 bench/child.py --workload W --seed S --seconds T --trace 0|1

It imports ``partition_fields`` from the checkout's ``src/``, warms the
first-call caches, prints ``READY``, and then, unless ``--seconds`` is 0,
makes verify calls for about T seconds and prints one JSON line.

Each timed verify call of R replicates comes with small calls: 3-replicate
``run_replicates`` calls on the same inputs.  Wall time is taken as linear in
R: the slope between the medians of the two kinds gives the per-replicate
throughput and the intercept the fixed cost of a call, so a cost paid once
per call is reported as ``call_overhead_ms`` and not spread over the
replicates.

Every call is checked: it must not raise, every number in its report must be
finite, and calls with the same base seed and replicate count must give
identical report bytes (at any parallelism, traced or not).  The first call of a run uses the
reference seed and must also match the digest recorded in digests.json for
the package's ``SCHEME_ID``.  The suite's own verdict is recorded as
information only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from time import perf_counter

from tracing import ROOT_SPAN, Tracer, layer_times, names, span_durations
from workloads import REFERENCE_SEED, WORKLOADS, call_seed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MIN_CALLS = 3  # at least this many timed calls per run, for a median
# replicates of the calls that time the fixed cost: the fewest with an all-finite
# report (the jackknife SE of empirical_cov needs R >= 3)
SMALL_REPLICATES = 3
SMALL_CALLS = 3  # small calls per verify call: their wall time varies more
MIN_TRACE_ROUNDS = 1  # at least this many (untraced, traced) pairs per traced run


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    # one BLAS thread, as in the test suite; must precede the numpy import
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import partition_fields as pf

    import_s = perf_counter() - t0
    if not Path(pf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported partition_fields from {pf.__file__}, not from {SRC}")

    w = WORKLOADS[args.workload]
    spec, grid = build_inputs(pf, w)
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        # run_replicates fills normalization, identity-target and truncation
        # caches and simulates two replicates (its minimum)
        pf.run_replicates(spec, small_grid(pf, spec, grid), 2, REFERENCE_SEED, parallelism=1)
    print("READY", flush=True)

    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        times = layer_times(tracer.spans)
        result["setup_layers"] = {
            "setup.import_s": import_s,
            "setup.renewal_s": times.get("renewal.cached_renewal_sequence", {}).get("total_s", 0.0),
            "setup.occupancy_s": times.get("partition1d.expected_occupancy", {}).get("total_s", 0.0),
        }
    if args.seconds > 0:
        result.update(Measurement(pf, w, spec, grid, args).run())
    print(json.dumps(result), flush=True)


def build_inputs(pf, w):
    spec = pf.ModelSpec(pf.ModelKind(w.kind), alphas=w.alphas, n=w.n, forest_depth=w.forest_depth)
    grid = pf.CornerGrid(t1=w.grid[0], t2=w.grid[1]) if w.grid else None
    return spec, grid


def small_grid(pf, spec, grid):
    """The workload's grid, or for a 1D suite the t = 1 corner it evaluates."""
    return grid or pf.CornerGrid(t1=(1.0,), t2=(1.0,) if spec.is_2d else None)


def computed_properties(spec, grid) -> dict:
    """Work sizes derived from the inputs alone (counts, labelled computed)."""
    # a forest axis is the one whose limit Hurst index exceeds 1/2
    forest_axes = [q for q, h in enumerate(spec.hurst()) if h > 0.5]
    return {
        "dense_cells": math.prod(spec.n),
        "forest_window_sites": sum(spec.effective_forest_depth(spec.n[q]) + spec.n[q] for q in forest_axes),
        "corners": math.prod(grid.shape()) if grid else 1,
    }


def cpu_seconds() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def nonfinite(obj, path="report"):
    """Paths of the floats in a report payload that are NaN or infinite."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in nonfinite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in nonfinite(v, f"{path}[{i}]")]
    return []


class Measurement:
    """The verify calls of one run, their checks and their metrics."""

    def __init__(self, pf, w, spec, grid, args):
        self.pf, self.w, self.spec, self.grid, self.args = pf, w, spec, grid, args
        self.parallelism = max(1, min(w.parallelism, os.cpu_count() or 1))
        self.calls: list[dict] = []
        self.digests: dict[tuple[str, int], str] = {}
        self.recorded = json.loads((BENCH / "digests.json").read_text()).get(pf.SCHEME_ID, {}).get(w.name)
        self.absent: list[str] = []  # traced bindings the package no longer has

    def call(self, seed: str, parallelism: int, tracer: Tracer | None = None, small: bool = False) -> dict:
        """One checked call: the workload's verify call, or with ``small`` a
        SMALL_REPLICATES ``run_replicates`` call on the same inputs."""
        replicates = SMALL_REPLICATES if small else self.w.replicates
        rec = {"seed": seed, "replicates": replicates, "parallelism": parallelism, "traced": tracer is not None}
        self.calls.append(rec)
        if small:
            run = partial(self.pf.run_replicates, self.spec, small_grid(self.pf, self.spec, self.grid),
                          replicates, seed, parallelism)
        else:
            run_suite = partial(tracer.call, ROOT_SPAN, self.pf.run_suite) if tracer else self.pf.run_suite
            run = partial(run_suite, self.w.suite, spec=self.spec, grid=self.grid, replicates=replicates,
                          seed=seed, parallelism=parallelism)
        with tracer.installed() if tracer else nullcontext():
            cpu0 = cpu_seconds()
            t0 = perf_counter()
            try:
                report = run()
            except Exception as exc:  # a failed call is counted, the run goes on
                traceback.print_exc()
                rec["error"] = repr(exc)
                return rec
            rec["wall_s"] = perf_counter() - t0
            cpu1 = cpu_seconds()
        rec["cpu_self_s"] = cpu1[0] - cpu0[0]
        rec["cpu_children_s"] = cpu1[1] - cpu0[1]
        payload = report.to_dict()
        rec["digest"] = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        if not small:
            rec["verdict"] = [
                {"name": c["name"], "passed": c["passed"], "value": c["value"],
                 "band": [c["target"] - c["tolerance"], c["target"] + c["tolerance"]]}
                for c in payload["checks"]
            ]
        bad = nonfinite(payload)
        first = self.digests.setdefault((seed, replicates), rec["digest"])
        if bad:
            rec["error"] = f"non-finite report values at {bad}"
        elif first != rec["digest"]:
            rec["error"] = "report bytes differ from an earlier call with the same seed"
        elif not small and seed == REFERENCE_SEED and self.recorded not in (None, rec["digest"]):
            rec["error"] = f"reference digest differs from the one recorded for {self.pf.SCHEME_ID}"
        return rec

    def run(self) -> dict:
        start = perf_counter()
        metrics = self.traced_rounds(start) if self.args.trace else self.timed_calls(start)
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        if not self.args.trace:
            metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB", "samples": 1}
        return {
            "scheme": self.pf.SCHEME_ID,
            "parallelism": self.parallelism,
            "computed": computed_properties(self.spec, self.grid),
            "reference": {"digest": self.digests.get((REFERENCE_SEED, self.w.replicates)),
                          "recorded": self.recorded},
            "calls": self.calls,
            "attempted": len(self.calls),
            "failed": sum("error" in c for c in self.calls),
            "metrics": metrics,
            "absent": self.absent,
        }

    def _done(self, start: float, rounds: int, minimum: int) -> bool:
        elapsed = perf_counter() - start
        return rounds >= minimum and elapsed + elapsed / rounds > self.args.seconds

    def timed_calls(self, start: float) -> dict:
        """Untraced rounds of SMALL_CALLS small calls and one verify call
        of the same seed, at the workload's parallelism.

        The reference seed runs once; every later seed runs twice in a row.
        Wall and CPU time are fitted as a + b*R through the medians of the
        small and of the verify calls: b gives the per-replicate metrics and
        a the fixed cost of a call.
        """
        small, big, k = [], [], 0
        while True:
            seed = call_seed(self.w.name, self.args.seed, (k + 1) // 2)
            small += [self.call(seed, self.parallelism, small=True) for _ in range(SMALL_CALLS)]
            big.append(self.call(seed, self.parallelism))
            k += 1
            if self._done(start, k, MIN_CALLS):
                break
        small = [c for c in small if "error" not in c]
        big = [c for c in big if "error" not in c]
        if not small or not big:
            return {}

        def fit(key) -> tuple[float, float]:
            """(intercept, slope) in seconds of the median of ``key`` against R."""
            lo, hi = (statistics.median(key(c) for c in calls) for calls in (small, big))
            slope = (hi - lo) / (self.w.replicates - SMALL_REPLICATES)
            return lo - SMALL_REPLICATES * slope, slope

        fixed_s, wall_s = fit(lambda c: c["wall_s"])
        _, cpu_s = fit(lambda c: c["cpu_self_s"] + c["cpu_children_s"])
        if min(fixed_s, wall_s, cpu_s) <= 0:
            return {}  # not a linear cost; the run is reported incorrect
        samples = len(big)
        return {
            "replicates_per_s": {"value": 1.0 / wall_s, "unit": "1/s", "samples": samples},
            "call_overhead_ms": {"value": 1e3 * fixed_s, "unit": "ms", "samples": len(small)},
            "cpu_ms_per_replicate": {"value": 1e3 * cpu_s, "unit": "ms", "samples": samples},
        }

    def traced_rounds(self, start: float) -> dict:
        """Per seed: untraced at p (if p > 1), untraced at 1, traced at 1."""
        pooled, pairs, tracers, k = [], [], [], 0
        while True:
            seed = call_seed(self.w.name, self.args.seed, k)
            if self.parallelism > 1:
                pooled.append(self.call(seed, self.parallelism))
            tracer = Tracer()
            # alternate which of the pair runs first, so drift cancels
            if k % 2:
                traced = self.call(seed, 1, tracer)
                plain = self.call(seed, 1)
            else:
                plain = self.call(seed, 1)
                traced = self.call(seed, 1, tracer)
            if "error" not in plain and "error" not in traced:
                pairs.append((plain, traced))
                tracers.append(tracer)
            k += 1
            if self._done(start, k, MIN_TRACE_ROUNDS):
                break
        self.absent = sorted(set().union(*(t.absent for t in tracers)))
        if self.parallelism == 1:
            pooled = [plain for plain, _ in pairs]
        pooled = [c for c in pooled if "error" not in c]
        if not tracers or not pooled:
            return {}
        if self.args.spans_out:
            self.args.spans_out.write_text(json.dumps([t.spans for t in tracers]))
        return self.layer_metrics(tracers, pairs, pooled)

    def layer_metrics(self, tracers, pairs, pooled) -> dict:
        import numpy as np

        reps = self.w.replicates * len(tracers)
        times: dict[str, dict[str, float]] = {}
        for tracer in tracers:
            for name, row in layer_times(tracer.spans).items():
                acc = times.setdefault(name, dict.fromkeys(row, 0.0))
                for key, value in row.items():
                    acc[key] += value

        def per_rep(name, key):
            return {"value": 1e3 * times.get(name, {}).get(key, 0.0) / reps, "unit": "ms", "samples": reps}

        out = {}
        for name in names():
            out[f"{name}.ms"] = per_rep(name, "total_s")
            out[f"{name}.self_ms"] = per_rep(name, "self_s")
        sim = [d for t in tracers for d in span_durations(t.spans, "fields.simulate")]
        if sim:
            p50, p90 = np.percentile(sim, [50, 90])
            out["fields.simulate.p50_ms"] = {"value": 1e3 * p50, "unit": "ms", "samples": len(sim)}
            out["fields.simulate.p90_ms"] = {"value": 1e3 * p90, "unit": "ms", "samples": len(sim)}

        # class counts per axis, outside every span: the partitions were kept
        # by reference in call order, grouped by their simulate span
        axes: dict[int, list[int]] = {}
        for t in tracers:
            per_sim: dict[int, list[int]] = {}
            for parent, ids in t.partitions:
                per_sim.setdefault(parent, []).append(int(np.unique(ids).size))
            for counts in per_sim.values():
                for q, k in enumerate(counts):
                    axes.setdefault(q, []).append(k)
        for q in (0, 1):
            ks = axes.get(q, [])
            value = statistics.fmean(ks) if ks else 0.0
            out[f"classes.k{q + 1}_mean"] = {"value": value, "unit": "count", "samples": len(ks)}

        p = self.parallelism
        out["pool.idle_share"] = {
            "value": statistics.median(
                1.0 - (c["cpu_self_s"] + c["cpu_children_s"]) / (c["wall_s"] * p) for c in pooled),
            "unit": "ratio", "samples": len(pooled),
        }
        out["pool.worker_cpu_s"] = {
            "value": statistics.median(c["cpu_children_s"] for c in pooled), "unit": "s", "samples": len(pooled),
        }
        out["trace.overhead_share"] = {
            "value": statistics.median(t["wall_s"] / u["wall_s"] for u, t in pairs) - 1.0,
            "unit": "ratio", "samples": len(pairs),
        }
        return out


if __name__ == "__main__":
    main()
