"""Span tracing for the benchmark's traced mode.

The benchmark never edits the program: it wraps public (and a few
private, flush-pipeline) callables of each layer from the outside and
records one span per call in memory -- name, start, end, parent span
and thread.  Many callables are bound into their callers' namespaces
with ``from ... import``, so :meth:`Recorder.install` rebinds every
module attribute of the ``repro`` package that refers to the original
object, not just the defining module's.

Self time of a span is its duration minus the durations of its child
spans on the same thread; children always run on the parent's thread
because the parent is taken from a thread-local stack.  Phase B of the
waveform pipeline and the service's compute/store threads therefore
show up as their own root spans.

Per-layer metrics are named ``<module>.<function>.<stat>`` after the
repo's modules (``repro.`` dropped); see :data:`TARGETS`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: (id, parent id or 0, name, thread ident, start,
#: end, counters or None).
Span = Tuple[int, int, str, int, float, float, Optional[Dict[str, float]]]

#: Counter hook: ``fn(args, kwargs, result) -> {stat: amount}``.
CountFn = Callable[[tuple, dict, Any], Dict[str, float]]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _count_detect(args, kwargs, result):
    return {
        "streams": len(_arg(args, kwargs, 0, "streams")),
        "detections": sum(1 for d in result if d is not None),
    }


def _count_outliers(args, kwargs, result):
    return {
        "suspected": int(bool(result.outliers_suspected)),
        "dropped_links": len(result.dropped_links),
    }


def _count_smacof(args, kwargs, result):
    return {"iters": int(result.n_iter), "nonconverged": int(not result.converged)}


#: (span name, defining module, attribute path, counter hook, counter
#: names).  Methods are patched on their class; functions are rebound
#: everywhere.
TARGETS: Tuple[Tuple[str, str, str, Optional[CountFn], Tuple[str, ...]], ...] = (
    # simulate.batch_exchange: Phase A, Phase B and the flush pipeline.
    ("simulate.batch_exchange.add", "repro.simulate.batch_exchange", "BatchExchangeRenderer.add", None, ()),
    ("simulate.batch_exchange.render_plans", "repro.simulate.batch_exchange", "BatchExchangeRenderer.render_plans", None, ()),
    ("simulate.batch_exchange.draw_noise_block", "repro.simulate.batch_exchange", "BatchExchangeRenderer.draw_noise_block", None, ()),
    ("simulate.batch_exchange.process", "repro.simulate.batch_exchange", "BatchOneWay._process", None, ()),
    ("simulate.batch_exchange.submit", "repro.simulate.batch_exchange", "PipelinedFlusher.submit", None, ()),
    ("simulate.batch_exchange.run", "repro.simulate.batch_exchange", "BatchOneWay.run", None, ()),
    # channel
    ("channel.render.apply_channel_batch", "repro.channel.render", "apply_channel_batch",
     lambda a, k, r: {"rows": len(_arg(a, k, 1, "fir_rows"))}, ("rows",)),
    ("channel.noise.synth_noise_rows", "repro.channel.noise", "synth_noise_rows",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "lengths"))}, ("rows",)),
    # ranging + signals
    ("ranging.batch.detect_preamble_batch", "repro.ranging.batch", "detect_preamble_batch", _count_detect,
     ("streams", "detections")),
    ("signals.batchcorr.normalized_cross_correlation_fused", "repro.signals.batchcorr", "normalized_cross_correlation_fused", None, ()),
    ("signals.batchcorr.segment_autocorrelation_scores_multi", "repro.signals.batchcorr", "segment_autocorrelation_scores_multi",
     lambda a, k, r: {"windows": sum(len(s) for s in _arg(a, k, 1, "starts_per_stream"))}, ("windows",)),
    ("ranging.batch.ls_channel_estimate_batch", "repro.ranging.batch", "ls_channel_estimate_batch", None, ()),
    ("ranging.batch.channel_impulse_response_batch", "repro.ranging.batch", "channel_impulse_response_batch", None, ()),
    ("ranging.batch.power_threshold_hits", "repro.ranging.batch", "power_threshold_hits", None, ()),
    ("ranging.batch.BatchArrivalEstimator.estimate_many", "repro.ranging.batch", "BatchArrivalEstimator.estimate_many", None, ()),
    # localization
    ("localization.pipeline.localize", "repro.localization.pipeline", "localize", None, ()),
    ("localization.outliers.detect_outliers", "repro.localization.outliers", "detect_outliers", _count_outliers,
     ("suspected", "dropped_links")),
    ("localization.smacof.smacof", "repro.localization.smacof", "smacof", _count_smacof, ("iters", "nonconverged")),
    ("localization.smacof.stress_value", "repro.localization.smacof", "stress_value", None, ()),
    ("localization.rigidity.is_uniquely_realizable", "repro.localization.rigidity", "is_uniquely_realizable",
     lambda a, k, r: {"rejected": int(not r)}, ("rejected",)),
    # fleet
    ("simulate.scenario.fleet_scenario", "repro.simulate.scenario", "fleet_scenario", None, ()),
    ("simulate.des.fleetvec.run_fleet_round_vec", "repro.simulate.des.fleetvec", "run_fleet_round_vec", None, ()),
    ("protocol.relay.plan_relays", "repro.protocol.relay", "plan_relays", None, ()),
    ("simulate.mobility.linear_back_forth_positions", "repro.simulate.mobility", "linear_back_forth_positions", None, ()),
    # service
    ("service.cachekey.normalize_request", "repro.service.cachekey", "normalize_request", None, ()),
    ("service.cachekey.cache_key", "repro.service.cachekey", "cache_key", None, ()),
    ("service.store.get", "repro.service.store", "CacheStore.get", None, ()),
    ("service.store.put", "repro.service.store", "CacheStore.put", None, ()),
    ("service.store.evict", "repro.service.store", "CacheStore.evict", lambda a, k, r: {"evicted": int(r)},
     ("evicted",)),
    ("service.compute.compute_unit", "repro.service.compute", "compute_unit", None, ()),
)


#: Per-layer metrics not derived from spans: filled in by the workload
#: that exercises them (the fleet summary, the service's ``/stats``,
#: client-side latency) and zero elsewhere.
DERIVED = (
    "simulate.batch_exchange.flush_wait_s",
    "ranging.batch.detect_accept_ratio",
    "localization.outliers.subset_accept_ratio",
    "simulate.des.fleet.tx_attempts",
    "simulate.des.fleet.collisions",
    "simulate.des.fleet.coverage",
    "service.server.hit_ratio",
    "service.server.dedup_waits",
    "service.server.engine_calls",
    "service.http_s",
    "trace.overhead_s",
    "trace.unattributed_frac",
)


class Recorder:
    """In-memory span table, shared by every thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Optional[CountFn] = None) -> Callable:
        """``fn`` with a span (and optional counters) around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = count(args, kwargs, result) if count is not None else None
            self.spans.append(
                (span_id, parent, name, threading.get_ident(), start, end, counts)
            )
            return result

        return traced

    def install(self, targets: Iterable[tuple] = TARGETS) -> Callable[[], None]:
        """Wrap every target at every binding; returns the undo function.

        Import every module that may bind a target first (e.g. load the
        experiment registry): a ``from ... import`` executed after
        installation binds the wrapper anyway, but one executed before
        is found only by this scan of ``sys.modules``.
        """
        undo: List[Tuple[Any, str, Any]] = []
        for name, module_name, attr_path, count, _stats in targets:
            module = importlib.import_module(module_name)
            owner_path, _, attr = attr_path.rpartition(".")
            owner = functools.reduce(getattr, owner_path.split("."), module) if owner_path else module
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, count)
            if owner is not module:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

        def uninstall() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(path) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(span) for span in json.load(fh)]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus its (same-thread) children's durations."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for _id, parent, _name, _thread, start, end, _counts in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def root_time(spans: Sequence[Span], thread: int, start: float, end: float) -> float:
    """Time root spans on ``thread`` cover inside ``[start, end]``.

    Root spans on one thread never overlap (a thread-local stack
    parents every nested call), so their clipped durations add.
    """
    return sum(
        max(0.0, min(e, end) - max(s, start))
        for _id, parent, _name, tid, s, e, _counts in spans
        if parent == 0 and tid == thread
    )


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer stats from one traced pass: calls, self_s and counters.

    Every target in :data:`TARGETS` gets ``.calls``, ``.self_s`` and
    its counters (zero when the layer was idle); derived ratios and
    waits are added under the names ``BENCHMARK.json`` lists.
    """
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    out: Dict[str, float] = dict.fromkeys(DERIVED, 0.0)
    for name, _module, _attr, _count, stats in TARGETS:
        for stat in ("calls", "self_s") + stats:
            out[f"{name}.{stat}"] = 0.0
    for span_id, _parent, name, _thread, _start, _end, counts in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[span_id]
        for stat, amount in (counts or {}).items():
            out[f"{name}.{stat}"] += amount
    get = out.__getitem__
    out["simulate.batch_exchange.flush_wait_s"] = get(
        "simulate.batch_exchange.submit.self_s"
    ) + get("simulate.batch_exchange.run.self_s")
    windows = get("signals.batchcorr.segment_autocorrelation_scores_multi.windows")
    out["ranging.batch.detect_accept_ratio"] = (
        get("ranging.batch.detect_preamble_batch.detections") / windows if windows else 0.0
    )
    subset_solves = sum(
        1
        for s in spans
        if s[2] == "localization.smacof.smacof"
        and by_id.get(s[1], (None, None, ""))[2] == "localization.outliers.detect_outliers"
    ) - get("localization.outliers.detect_outliers.calls")
    out["localization.outliers.subset_accept_ratio"] = (
        get("localization.outliers.detect_outliers.dropped_links") / subset_solves
        if subset_solves > 0
        else 0.0
    )
    return out
