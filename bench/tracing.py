"""In-memory span tracer installed around the layers' public bindings.

The package is run unedited: for the duration of a traced call the tracer
replaces the module attributes (and one method) that the layers are called
through with timing wrappers, and restores them afterwards.  A binding that
no longer exists is reported as absent; its time then falls into the
caller's self time, so a refactor that renames a layer does not break the
benchmark.

Spans are ``[name, parent index or -1, start, end]`` in ``perf_counter``
seconds.  Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "suites.run_suite"

# (module, attribute the callers look up, span name)
TARGETS = (
    ("partition_fields.suites", "run_replicates", "stats.run_replicates"),
    ("partition_fields.suites", "check_identity", "stats.check_identity"),
    ("partition_fields.stats", "simulate_raw_matrix", "stats.simulate_raw_matrix"),
    ("partition_fields.stats", "empirical_cov", "stats.empirical_cov"),
    ("partition_fields.stats", "ks_normal", "stats.ks_normal"),
    ("partition_fields.stats", "simulate", "fields.simulate"),
    ("partition_fields.stats", "replicate_generator", "seeding.replicate_generator"),
    ("partition_fields.stats", "expected_occupancy", "partition1d.expected_occupancy"),
    ("partition_fields.stats", "cached_renewal_sequence", "renewal.cached_renewal_sequence"),
    ("partition_fields.fields", "cached_renewal_sequence", "renewal.cached_renewal_sequence"),
    ("partition_fields.partition1d", "cached_renewal_sequence", "renewal.cached_renewal_sequence"),
    ("partition_fields.fields", "spin_key", "seeding.spin_key"),
    ("partition_fields.fields", "sample_urn", "partition1d.sample_urn"),
    ("partition_fields.fields", "sample_forest", "partition1d.sample_forest"),
    ("partition_fields.fields", "roots_of", "partition1d.roots_of"),
    ("partition_fields.fields", "hash1", "hashing.hash1"),
    ("partition_fields.fields", "hash2", "hashing.hash2"),
    ("partition_fields.fields", "signs_from", "hashing.signs_from"),
    ("partition_fields.fields", "normalization", "fields.normalization"),
    ("partition_fields.partition1d", "build_forest", "partition1d.build_forest"),
    ("partition_fields.distributions", "PowerLawPmf.sample", "distributions.sample"),
)

# Layers whose result is a partition: the class ids are kept (by reference,
# inside the caller's span) and counted with np.unique after the call.
_PARTITIONS = {
    "partition1d.sample_urn": lambda path: path.labels,
    "partition1d.roots_of": lambda roots: roots,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.partitions: list[tuple[int, object]] = []  # (parent span, class ids)
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, partitions = self.spans, self._stack, self.partitions
        classes_of = _PARTITIONS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if classes_of is not None:
                partitions.append((parent, classes_of(result)))
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the root of a traced call)."""
        return self._wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                try:
                    owner = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    owner = None
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                saved.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(name, fn))
            yield self
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: total inclusive and self seconds, and span count."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for (name, _, t0, t1), inner in zip(spans, child):
        row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "count": 0})
        row["total_s"] += t1 - t0
        row["self_s"] += t1 - t0 - inner
        row["count"] += 1
    return out


def span_durations(spans, name: str) -> list[float]:
    return [t1 - t0 for n, _, t0, t1 in spans if n == name]


def names() -> list[str]:
    """Every span name the tracer can record, root first."""
    return [ROOT_SPAN] + sorted({name for _, _, name in TARGETS})
