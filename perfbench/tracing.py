"""Span tracing from outside the program.

The tracer wraps every public function of the package's modules and records
one span (name, start, end, parent) per call. Wrappers are installed on the
defining module and on every other package module that imported the same
function under the same name, so calls made through ``pipeline`` and ``cli``
imports are seen too. Spans stay in memory and are written out at the end of
a run; per-layer metrics are derived from them afterwards. Optimizer
iteration counts come from a separate, untimed counting run, because asking a
fit for its trace can change the work it does.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

MODULES = ("featureio", "preprocess", "spectral", "encode", "codebook", "svm", "pipeline", "cli")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("featureio.read_feature_sequence.self_s", "s"),
    ("featureio.read_feature_sequence.calls", "count"),
    ("featureio.bytes_read", "bytes"),
    ("featureio.write_manifest.self_s", "s"),
    ("encode.save_video_vector.self_s", "s"),
    ("encode.load_video_vector.self_s", "s"),
    ("svm.save_svm_model.self_s", "s"),
    ("pipeline.save_bundle.self_s", "s"),
    ("pipeline.load_bundle.self_s", "s"),
    ("featureio.bytes_written", "bytes"),
    ("preprocess.pca_fit.self_s", "s"),
    ("preprocess.pca_fit.rows", "count"),
    ("preprocess.pca_transform.self_s", "s"),
    ("spectral.spectrum_of_sequence.self_s", "s"),
    ("spectral.dft_magnitude.self_s", "s"),
    ("spectral.dft_magnitude.calls", "count"),
    ("spectral.cubic_resample.self_s", "s"),
    ("spectral.cubic_resample.calls", "count"),
    ("spectral.signals", "count"),
    ("spectral.samples", "count"),
    ("encode.llc_pool.self_s", "s"),
    ("encode.llc_encode.calls", "count"),
    ("encode.fisher_encode.self_s", "s"),
    ("encode.vlad_encode.self_s", "s"),
    ("codebook.gmm_responsibilities.self_s", "s"),
    ("encode.average_pool.self_s", "s"),
    ("encode.fuse.self_s", "s"),
    ("encode.descriptors", "count"),
    ("codebook.kmeans_fit.self_s", "s"),
    ("codebook.kmeans_fit.calls", "count"),
    ("codebook.kmeans_fit.iterations", "count"),
    ("codebook.kmeans_fit.at_cap", "count"),
    ("codebook.kmeans_fit.rows", "count"),
    ("codebook.gmm_fit.self_s", "s"),
    ("codebook.gmm_fit.iterations", "count"),
    ("codebook.gmm_fit.at_cap", "count"),
    ("svm.train_linear_svm.self_s", "s"),
    ("svm.epochs", "count"),
    ("svm.classes_at_cap", "count"),
    ("svm.coordinate_steps", "count"),
    ("svm.predict.self_s", "s"),
    ("svm.predict.calls", "count"),
    ("cli.main.self_s", "s"),
) + tuple((f"{m}.self_s", "s") for m in MODULES) + (
    ("trace.spans", "count"),
    ("trace.experiment_s", "s"),
    ("trace.overhead_s", "s"),
)

# artifact writers; each takes the path it writes as ``path``
_WRITERS = (
    "featureio.write_manifest",
    "encode.save_video_vector",
    "svm.save_svm_model",
    "preprocess.save_pca_model",
    "codebook.save_codebook",
    "codebook.save_gmm_model",
)
# called once per descriptor: a span each would cost more than the work it
# times, so only calls are counted and the time stays in the caller's self time
PER_DESCRIPTOR = ("encode.llc_encode",)
_ENCODERS = ("encode.average_pool", "encode.llc_pool", "encode.fisher_encode", "encode.vlad_encode")


def _epochs(arguments) -> list[int]:
    return [len(per_class) for per_class in arguments["objective_trace"]]


def _used_all(arguments) -> int:
    """1 if a fit appended an entry for every allowed iteration. A fit that
    converged on exactly its last allowed iteration counts too: its trace
    cannot tell the two apart."""
    return int(len(arguments["trace"]) >= arguments["max_iters"])


# counter -> (functions that feed it, value taken from one call's bound arguments
# after the call returned)
COUNTERS = {
    "featureio.bytes_read": (
        ("featureio.read_feature_sequence", "featureio.read_manifest"),
        lambda a: os.path.getsize(a["path"]),
    ),
    "featureio.bytes_written": (_WRITERS, lambda a: os.path.getsize(a["path"])),
    "preprocess.pca_fit.rows": (("preprocess.pca_fit",), lambda a: len(a["descriptors"])),
    "spectral.signals": (("spectral.spectrum_of_sequence",), lambda a: a["seq"].values.shape[0]),
    "spectral.samples": (("spectral.spectrum_of_sequence",), lambda a: a["seq"].values.size),
    "encode.descriptors": (_ENCODERS, lambda a: len(a["descriptors"])),
    "codebook.kmeans_fit.rows": (("codebook.kmeans_fit",), lambda a: len(a["descriptors"])),
}
# counters read from the list a fit appends to its public ``trace`` or
# ``objective_trace`` parameter. Handing a fit that list can add work (K-means
# then computes its within-cluster sum of squares every iteration), so these
# are taken only by a counting tracer, whose run is not timed.
ITERATION_COUNTERS = {
    "codebook.kmeans_fit.iterations": (("codebook.kmeans_fit",), lambda a: len(a["trace"])),
    "codebook.kmeans_fit.at_cap": (("codebook.kmeans_fit",), _used_all),
    "codebook.gmm_fit.iterations": (("codebook.gmm_fit",), lambda a: len(a["trace"])),
    "codebook.gmm_fit.at_cap": (("codebook.gmm_fit",), _used_all),
    "svm.epochs": (("svm.train_linear_svm",), lambda a: sum(_epochs(a))),
    "svm.classes_at_cap": (
        ("svm.train_linear_svm",),
        lambda a: sum(e >= a["max_epochs"] for e in _epochs(a)),
    ),
    "svm.coordinate_steps": (
        ("svm.train_linear_svm",),
        lambda a: sum(_epochs(a)) * len(a["train"]),
    ),
}
# set by the caller, which times whole experiments
CALLER_METRICS = ("trace.experiment_s", "trace.overhead_s")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    children's intervals cover. ``spans`` holds (name, start, end, parent)
    tuples, parent being an index into ``spans`` or None."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Wraps the program's public functions from ``install()`` until ``uninstall()``.

    A timing tracer records one span per call and the counters of COUNTERS,
    and passes every argument through unchanged. A counting tracer
    (``count_iterations=True``) records no spans: it hands an empty list to
    each ``trace``/``objective_trace`` parameter that ITERATION_COUNTERS
    reads and the caller left at None, and takes those counters only.
    """

    def __init__(self, count_iterations: bool = False):
        self.count_iterations = count_iterations
        self.counters = ITERATION_COUNTERS if count_iterations else COUNTERS
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"tdfenc.{short}")
            except ModuleNotFoundError:
                continue  # its metrics are reported absent
        namespaces = list(modules.values()) + [importlib.import_module("tdfenc")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._installed.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._installed):
            setattr(ns, attr, fn)
        self._installed.clear()

    def wrap(self, name: str, fn):
        """``fn`` recording its calls under ``name`` (``<module>.<function>``)."""
        self.wrapped.add(name)
        if name in PER_DESCRIPTOR:
            if self.count_iterations:
                return fn

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[f"{name}.calls"] += 1
                return fn(*args, **kwargs)

            return counted
        signature = inspect.signature(fn)
        feeds = [(counter, value) for counter, (sources, value) in self.counters.items()
                 if name in sources]
        fill = None
        if self.count_iterations:
            if not feeds:
                return fn
            params = signature.parameters
            fill = next((p for p in ("trace", "objective_trace") if p in params), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = None
            if feeds:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if fill is not None and bound.arguments[fill] is None:
                    bound.arguments[fill] = []
                args, kwargs, arguments = bound.args, bound.kwargs, bound.arguments
            if self.count_iterations:
                result = fn(*args, **kwargs)
            else:
                result = self._timed(name, fn, args, kwargs)
            for counter, value in feeds:
                try:
                    self.counts[counter] += value(arguments)
                except (KeyError, TypeError, AttributeError, OSError):
                    # a parameter or attribute the counter reads is gone
                    self.broken.add(counter)
            return result

        return wrapper

    def _timed(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def measures(self) -> list[str]:
        """Names of the per-layer metrics this tracer takes."""
        if self.count_iterations:
            return list(ITERATION_COUNTERS)
        skip = set(ITERATION_COUNTERS) | set(CALLER_METRICS)
        return [m for m, _ in LAYER_METRICS if m not in skip]

    def absent(self) -> list[str]:
        """Metrics of this tracer that the current program no longer lets it measure."""
        out = []
        for metric in self.measures():
            if metric in self.counters:
                sources = self.counters[metric][0]
                missing = metric in self.broken or not self.wrapped.intersection(sources)
            elif metric.endswith((".self_s", ".calls")) and metric.count(".") == 2:
                missing = metric.rsplit(".", 1)[0] not in self.wrapped
            else:
                missing = False
            if missing:
                out.append(metric)
        return out

    def layer_metrics(self, experiments: int) -> dict[str, float]:
        """This tracer's metrics, per traced experiment."""
        totals: Counter = Counter(self.counts)
        for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
            totals[f"{name}.self_s"] += own
            totals[f"{name}.calls"] += 1
            totals[f"{name.split('.', 1)[0]}.self_s"] += own
        totals["trace.spans"] = len(self.spans)
        return {metric: totals[metric] / experiments for metric in self.measures()}

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent), own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps([name, start, end, parent, own]) + "\n")
