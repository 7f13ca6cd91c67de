"""Campaign engine: experiment registry, seeded substreams, parallel runs.

Every paper figure/table registers an :class:`ExperimentSpec` (name,
entry point, paper-reference numbers, cost hint, scenario variants)
via the :func:`register` decorator.  Campaigns and single units run
through one executor, serially or on a persistent worker pool, and
produce structured :class:`ExperimentResult` artifacts (measured vs.
paper numbers, seed provenance, wall time) that serialise to JSON.

Seeding scheme
--------------
A campaign has one ``base_seed``.  ``np.random.SeedSequence(base_seed)``
is spawned once per *registered* experiment in the fixed canonical
order (:data:`CANONICAL_ORDER`), and each experiment's child sequence
is spawned once per *declared* variant.  Because the spawn fan-out
covers the whole registry — not just the selected subset — the
substream an experiment sees depends only on ``(base_seed, experiment,
variant)``, never on which other experiments run or in what order, and
serial runs match parallel runs bit for bit.  Ad-hoc sweep variants
(built at campaign time via ``sweep=``) extend the experiment child's
``spawn_key`` with a CRC32 of the variant name, which keeps them just
as order-independent without perturbing the declared variants.
"""

from __future__ import annotations

import atexit
import dataclasses
import importlib
import inspect
import json
import math
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.signals.xp import (
    PRECISIONS,  # noqa: F401  (an engine name its callers use)
    WAVEFORM_BACKENDS,
    check_waveform_backend,
    get_context,
)

#: Default campaign seed (the paper's publication year, as in the seed repo).
DEFAULT_BASE_SEED = 2023

#: Canonical experiment order: defines both registry import order and the
#: ``SeedSequence.spawn`` fan-out, so it must only ever be appended to.
CANONICAL_ORDER: Tuple[str, ...] = (
    "fig6",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "fig20",
    "fig22",
    "tables",
    "fleet",
)

#: Modules whose import registers the canonical experiments.
EXPERIMENT_MODULES: Tuple[str, ...] = (
    "repro.experiments.fig06_analytical",
    "repro.experiments.fig11_ranging",
    "repro.experiments.fig12_baselines",
    "repro.experiments.fig13_depth",
    "repro.experiments.fig14_orientation",
    "repro.experiments.fig15_motion",
    "repro.experiments.fig16_pointing",
    "repro.experiments.fig18_localization",
    "repro.experiments.fig19_robustness",
    "repro.experiments.fig20_mobility",
    "repro.experiments.fig22_snr",
    "repro.experiments.tables",
    "repro.experiments.ext_fleet",
)


@dataclass(frozen=True)
class Variant:
    """One scenario variant of an experiment (e.g. a deployment site)."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry for one paper figure/table.

    Attributes
    ----------
    name:
        Short CLI name (``fig11``, ``tables``).
    title:
        Human-readable one-liner.
    paper_ref:
        Where in the paper the numbers come from (``"Fig. 11"``).
    paper:
        The paper-reported reference numbers (JSON-serialisable).
    cost:
        Rough cost hint: ``cheap`` / ``moderate`` / ``heavy``.
    module / entry:
        Import path and attribute of the campaign entry point, so a
        worker process can resolve the callable without pickling it.
    variants:
        Declared scenario variants; each gets its own seeded substream.
    sweepable:
        Parameter names a campaign-level ``sweep`` may vary.
    summarize:
        Set for a trial-chunkable experiment: its entry accepts
        ``chunk=(index, total)`` and returns the raw per-trial payload,
        which this function turns into the :class:`ExperimentOutput`.
        The engine calls it once per unit, on the raw of an unchunked
        run or on :func:`merge_raw` of the chunks' raws.  ``None``: the
        entry takes no ``chunk`` and returns its output itself.
    backends:
        Waveform backends the entry accepts (capability flags from
        :data:`WAVEFORM_BACKENDS`); empty for experiments without a
        waveform backend switch (e.g. fig6 or the tables).
    """

    name: str
    title: str
    paper_ref: str
    paper: Mapping[str, Any] = field(default_factory=dict)
    cost: str = "moderate"
    module: str = ""
    entry: str = "campaign"
    variants: Tuple[Variant, ...] = (Variant("default"),)
    sweepable: frozenset = frozenset()
    summarize: Optional[Callable[[Any], "ExperimentOutput"]] = None
    backends: Tuple[str, ...] = ()

    def variant(self, name: str) -> Variant:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(f"{self.name} has no variant {name!r}")

    def resolve_entry(self) -> Callable:
        return getattr(importlib.import_module(self.module), self.entry)


@dataclass
class ExperimentOutput:
    """What a campaign entry point returns.

    ``measured`` holds the headline numbers as plain (JSON-friendly)
    structures; ``report`` is the human-readable paper-vs-measured
    comparison previously only printed by the serial runner.  ``raw``
    carries a trial-chunk job's raw payload to :func:`merge_raw`; it
    never reaches the JSON artifact.
    """

    measured: Dict[str, Any]
    report: str = ""
    raw: Optional[Dict[str, Any]] = None


@dataclass
class ExperimentResult:
    """One completed (experiment, variant) job of a campaign."""

    experiment: str
    variant: str
    title: str
    paper_ref: str
    params: Dict[str, Any]
    base_seed: int
    spawn_key: Tuple[int, ...]
    status: str
    measured: Dict[str, Any]
    paper: Dict[str, Any]
    report: str
    wall_time_s: float
    error: Optional[str] = None
    #: Chunk coordinates while a job is in flight; merged results and
    #: unchunked runs carry ``None``.  Excluded from the JSON artifact.
    chunk: Optional[Tuple[int, int]] = None
    #: A chunk job's raw payload for :func:`merge_raw`; never serialised.
    raw: Optional[Dict[str, Any]] = None
    #: Peak RSS (MB) of the process that ran the job, read when it
    #: ended (:func:`peak_rss_mb`): the process's high-water mark, so
    #: it includes earlier jobs run in the same process.  The max over
    #: a merged result's chunks; like ``wall_time_s``, serialised only
    #: with timing.
    peak_rss_mb: float = 0.0

    @property
    def label(self) -> str:
        return (
            self.experiment
            if self.variant == "default"
            else f"{self.experiment}/{self.variant}"
        )

    def to_dict(self, include_timing: bool = False) -> Dict[str, Any]:
        out = {
            "experiment": self.experiment,
            "variant": self.variant,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "params": jsonify(self.params),
            "seed": {
                "base_seed": self.base_seed,
                "spawn_key": list(self.spawn_key),
            },
            "status": self.status,
            "paper": jsonify(self.paper),
            "measured": jsonify(self.measured),
            "report": self.report,
            "error": self.error,
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
            out["peak_rss_mb"] = self.peak_rss_mb
        return out


_REGISTRY: Dict[str, ExperimentSpec] = {}
_LOADED = False


def register(
    *,
    name: str,
    title: str,
    paper_ref: str,
    paper: Optional[Mapping[str, Any]] = None,
    cost: str = "moderate",
    variants: Optional[Sequence[Variant]] = None,
    sweepable: Iterable[str] = (),
    summarize: Optional[Callable[[Any], ExperimentOutput]] = None,
    backends: Iterable[str] = (),
) -> Callable:
    """Decorator: register ``func`` as the campaign entry for ``name``.

    ``summarize`` makes the experiment trial-chunkable
    (:attr:`ExperimentSpec.summarize`).
    """

    def deco(func: Callable) -> Callable:
        unknown = [b for b in backends if b not in WAVEFORM_BACKENDS]
        if unknown:
            raise ValueError(f"{name}: unknown backend capability {unknown}")
        spec = ExperimentSpec(
            name=name,
            title=title,
            paper_ref=paper_ref,
            paper=dict(paper or {}),
            cost=cost,
            module=func.__module__,
            entry=func.__name__,
            variants=tuple(variants) if variants else (Variant("default"),),
            sweepable=frozenset(sweepable),
            summarize=summarize,
            backends=tuple(backends),
        )
        _REGISTRY[name] = spec
        func.spec = spec
        return func

    return deco


def load_registry() -> Dict[str, ExperimentSpec]:
    """Import every experiment module and return the populated registry."""
    global _LOADED
    if not _LOADED:
        for module in EXPERIMENT_MODULES:
            importlib.import_module(module)
        missing = [n for n in CANONICAL_ORDER if n not in _REGISTRY]
        if missing:
            raise RuntimeError(f"experiments missing registry entries: {missing}")
        _LOADED = True
    return _REGISTRY


def registry() -> Dict[str, ExperimentSpec]:
    """The registry in canonical order (loads it on first use)."""
    load_registry()
    ordered = {n: _REGISTRY[n] for n in CANONICAL_ORDER}
    ordered.update({n: s for n, s in _REGISTRY.items() if n not in ordered})
    return ordered


def get_spec(name: str) -> ExperimentSpec:
    load_registry()
    return _REGISTRY[name]


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    """Scale a trial count, never below ``minimum`` (for --scale sweeps)."""
    return max(minimum, int(round(count * scale)))


def check_backend(
    backend: str, spec: Optional[str] = None, precision: Optional[str] = None
) -> str:
    """Validate a waveform ``(backend, precision)`` pair.

    The pair itself goes through the waveform-backend table
    (:func:`repro.signals.xp.check_waveform_backend`).  With ``spec`` (an
    experiment name), additionally checks the experiment's declared
    capability flags, so e.g. ``fast`` on an experiment without a fast
    path fails loudly instead of silently running another engine.
    """
    check_waveform_backend(backend, precision)
    if spec is not None:
        supported = get_spec(spec).backends
        if backend not in supported:
            raise ValueError(
                f"experiment {spec!r} does not support backend {backend!r} "
                f"(supported: {', '.join(supported) or 'none'})"
            )
    return backend


def check_request(
    names: Sequence[str],
    *,
    base_seed: int = DEFAULT_BASE_SEED,
    scale: float = 1.0,
    trial_chunks: int = 1,
    backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> None:
    """Validate a unit or campaign request before any compute starts.

    The one rule set behind :func:`run_unit`, :func:`run_campaign`,
    :func:`plan_units`, the runner CLI and the service's request
    normaliser.  Raises ``KeyError`` for an unregistered name, and
    ``ValueError`` unless ``base_seed >= 0``, ``0 < scale < inf`` and
    ``trial_chunks >= 1``, every named experiment supports ``backend``
    and ``backend`` supports ``precision`` (:func:`check_backend`), and
    a ``precision`` comes with an explicit ``backend``.
    """
    load_registry()
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiment(s): {', '.join(unknown)}")
    if base_seed < 0:
        raise ValueError("'base_seed' must be non-negative")
    if not 0.0 < scale < math.inf:
        raise ValueError("'scale' must be positive and finite")
    if trial_chunks < 1:
        raise ValueError("'trial_chunks' must be >= 1")
    if backend is not None:
        for name in names:
            check_backend(backend, name, precision=precision)
    elif precision is not None:
        raise ValueError(
            f"precision {precision!r} requires --backend or the 'backend' field "
            f"(an explicit backend; the waveform entries default per-experiment)"
        )


def check_workers(workers: int) -> None:
    """Reject a worker count below 1 (``ValueError``) before any compute.

    ``workers`` is an execution knob, not part of the request, so it is
    checked apart from :func:`check_request`; the runner and service
    CLIs call this too, so a bad ``--workers`` exits 2 instead of
    silently running serial.
    """
    if workers < 1:
        raise ValueError(f"'workers' must be >= 1, got {workers}")


def chunk_share(count: int, chunk: Optional[Tuple[int, int]]) -> int:
    """This chunk's share of ``count`` trials (all of them when unchunked).

    Shares are as even as possible and sum to ``count`` across chunks:
    chunk ``i`` of ``k`` gets ``count // k`` plus one of the first
    ``count % k`` remainder trials.
    """
    if chunk is None:
        return count
    index, total = chunk
    if not 0 <= index < total:
        raise ValueError(f"chunk index {index} outside [0, {total})")
    return count // total + (1 if index < count % total else 0)


def chunk_offset(count: int, chunk: Optional[Tuple[int, int]]) -> int:
    """Index of this chunk's first trial in the unchunked ordering."""
    if chunk is None:
        return 0
    index, total = chunk
    return sum(chunk_share(count, (i, total)) for i in range(index))


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def experiment_seed_sequence(
    name: str, base_seed: int = DEFAULT_BASE_SEED
) -> np.random.SeedSequence:
    """The experiment-level substream (independent of selection)."""
    load_registry()
    names = [n for n in CANONICAL_ORDER if n in _REGISTRY]
    names += [n for n in _REGISTRY if n not in names]
    children = np.random.SeedSequence(base_seed).spawn(len(names))
    return children[names.index(name)]


def variant_seed_sequence(
    name: str, variant_name: str = "default", base_seed: int = DEFAULT_BASE_SEED
) -> np.random.SeedSequence:
    """The (experiment, variant) substream.

    Declared variants use a second ``spawn`` level over the spec's
    static variant list; ad-hoc (sweep-built) variants extend the
    experiment child's ``spawn_key`` with a CRC32 of the variant name.
    """
    child = experiment_seed_sequence(name, base_seed)
    spec = get_spec(name)
    declared = [v.name for v in spec.variants]
    if variant_name in declared:
        return child.spawn(len(declared))[declared.index(variant_name)]
    key = zlib.crc32(variant_name.encode("utf-8"))
    return np.random.SeedSequence(
        entropy=child.entropy, spawn_key=tuple(child.spawn_key) + (key,)
    )


def experiment_rng(
    name: str, variant: str = "default", base_seed: int = DEFAULT_BASE_SEED
) -> np.random.Generator:
    """A ready-to-use generator on the (experiment, variant) substream."""
    return np.random.default_rng(variant_seed_sequence(name, variant, base_seed))


# ---------------------------------------------------------------------------
# Scenario sweeps
# ---------------------------------------------------------------------------


def sweep_variants(grid: Mapping[str, Sequence[Any]]) -> Tuple[Variant, ...]:
    """Cartesian-product variants from a parameter grid.

    ``sweep_variants({"site": ["dock", "boathouse"], "num_devices": [4, 5]})``
    yields four variants named ``site=dock,num_devices=4`` etc., in
    row-major order of the grid's insertion order.
    """
    variants: List[Variant] = [Variant("default")]
    for param, values in grid.items():
        expanded: List[Variant] = []
        for base in variants:
            for value in values:
                label = f"{param}={value}"
                name = label if base.name == "default" else f"{base.name},{label}"
                expanded.append(Variant(name, {**dict(base.params), param: value}))
        variants = expanded
    return tuple(variants)


def plan_units(
    names: Sequence[str],
    sweep: Optional[Mapping[str, Sequence[Any]]] = None,
    backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> List[Tuple[str, str, Dict[str, Any]]]:
    """The (experiment, variant, params) units a selection expands to.

    This is the campaign plan at *unit* granularity — the addressing
    scheme of the result cache (:mod:`repro.service.cachekey`): sweeps
    expand to named variants here, so two campaigns that share a sweep
    point share a cache entry.  ``backend`` and ``precision`` are
    validated as a pair but *not* folded into params; the cache key
    carries each as its own field.  Every unit passes
    :func:`check_units`, so a bad sweep value fails here, before any
    unit runs.
    """
    check_request(names, backend=backend, precision=precision)
    units = _expand_units(names, sweep)
    check_units(units, backend=backend, precision=precision)
    return units


def _expand_units(
    names: Sequence[str], sweep: Optional[Mapping[str, Sequence[Any]]]
) -> List[Tuple[str, str, Dict[str, Any]]]:
    """:func:`plan_units` for names the caller has already validated."""
    units: List[Tuple[str, str, Dict[str, Any]]] = []
    for name in names:
        spec = get_spec(name)
        applicable = {k: v for k, v in (sweep or {}).items() if k in spec.sweepable}
        variants = sweep_variants(applicable) if applicable else spec.variants
        units += [(name, variant.name, dict(variant.params)) for variant in variants]
    return units


#: Entry keywords the engine supplies itself; no unit parameter sets them.
_ENGINE_KWARGS = frozenset({"rng", "scale", "chunk", "pipeline"})


def _unit_kwargs(
    name: str,
    variant: str,
    params: Mapping[str, Any],
    backend: Optional[str],
    precision: Optional[str],
) -> Dict[str, Any]:
    """A unit's entry keywords: its declared variant's params, the
    explicit ``params`` over them, then ``backend``/``precision`` as
    defaults."""
    declared = {v.name: v.params for v in get_spec(name).variants}
    kwargs = {**declared.get(variant, {}), **params}
    if backend is not None:
        kwargs.setdefault("backend", backend)
    if precision is not None:
        kwargs.setdefault("precision", precision)
    return kwargs


def check_units(
    units: Iterable[Tuple[str, str, Mapping[str, Any]]],
    backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> None:
    """Validate (experiment, variant, params) units before any compute.

    Each unit's folded keywords (:func:`_unit_kwargs`) must all be
    parameters of the experiment's entry, and a folded ``backend`` or
    ``precision`` — set by explicit params, a sweep point or the
    request — must pass :func:`check_backend`, the entry's own default
    standing in for the one not set.  Raises ``ValueError``.
    """
    for name, variant, params in units:
        kwargs = _unit_kwargs(name, variant, params, backend, precision)
        if not kwargs:
            continue
        entry = inspect.signature(get_spec(name).resolve_entry()).parameters
        unknown = sorted(k for k in kwargs if k in _ENGINE_KWARGS or k not in entry)
        if unknown:
            accepted = [k for k in entry if k not in _ENGINE_KWARGS]
            raise ValueError(
                f"experiment {name!r} has no parameter "
                f"{', '.join(map(repr, unknown))} "
                f"(accepted: {', '.join(accepted) or 'none'})"
            )
        if "backend" in kwargs or "precision" in kwargs:
            default = {k: p.default for k, p in entry.items()}
            check_backend(
                kwargs.get("backend", default.get("backend")),
                name,
                precision=kwargs.get("precision", default.get("precision")),
            )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

#: One executable job: ``(experiment, variant, params, chunk)``, where
#: ``chunk`` is ``(index, total)`` for a trial-chunk job, else ``None``.
_Job = Tuple[str, str, Dict[str, Any], Optional[Tuple[int, int]]]


def _job_seed_sequence(job: _Job, base_seed: int) -> np.random.SeedSequence:
    """A job's substream: its variant's, or ``spawn(total)[index]`` of it.

    The chunk child is a deterministic function of (base_seed,
    experiment, variant, chunk) only, so chunked campaigns are
    byte-identical for any worker count.
    """
    name, variant, _, chunk = job
    seed_seq = variant_seed_sequence(name, variant, base_seed)
    return seed_seq if chunk is None else seed_seq.spawn(chunk[1])[chunk[0]]


def _job_result(
    job: _Job,
    base_seed: int,
    seed_seq: Optional[np.random.SeedSequence] = None,
    output: Optional[ExperimentOutput] = None,
    error: Optional[str] = None,
    wall_time_s: float = 0.0,
    peak_rss: float = 0.0,
) -> ExperimentResult:
    """The one :class:`ExperimentResult` builder; ``ok`` iff ``error is None``.

    In-process runs, worker deaths and merged chunk groups all go
    through here, so each records the spawn key and chunk coordinates a
    serial run of the same job would.  ``seed_seq`` is the job's
    substream when the caller already built it.
    """
    name, variant, params, chunk = job
    spec = get_spec(name)
    seed_seq = seed_seq or _job_seed_sequence(job, base_seed)
    output = output or ExperimentOutput(measured={})
    return ExperimentResult(
        experiment=name,
        variant=variant,
        title=spec.title,
        paper_ref=spec.paper_ref,
        params=params,
        base_seed=base_seed,
        spawn_key=tuple(int(k) for k in seed_seq.spawn_key),
        status="ok" if error is None else "error",
        measured=output.measured,
        paper=dict(spec.paper),
        report=output.report,
        wall_time_s=wall_time_s,
        error=error,
        chunk=chunk,
        raw=output.raw,
        peak_rss_mb=peak_rss,
    )


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (MiB).

    A running high-water mark since the process started, not the peak
    of the last job: every job that ran earlier in it counts.

    ``ru_maxrss`` counts kilobytes on Linux and the BSDs but bytes on
    macOS; platforms without :mod:`resource` (Windows) report 0.0.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def _execute(payload: Tuple[_Job, int, float, Optional[int]]) -> ExperimentResult:
    """Run one ``(job, base_seed, scale, pipeline)`` payload in this process.

    Module-level so pool workers can run it on the payload as sent.
    ``pipeline`` overrides the flush-pipeline depth for waveform
    experiments (those declaring ``backends``).  It is an execution
    knob, not a parameter: results are bit-identical at every depth, so
    it is deliberately kept out of the recorded ``params``.
    """
    job, base_seed, scale, pipeline = payload
    name, _, params, chunk = job
    spec = get_spec(name)
    kwargs = dict(params)
    if chunk is not None:
        kwargs["chunk"] = chunk
    if pipeline is not None and spec.backends:
        kwargs["pipeline"] = pipeline
    seed_seq = _job_seed_sequence(job, base_seed)
    rng = np.random.default_rng(seed_seq)
    start = time.perf_counter()
    try:
        output, error = spec.resolve_entry()(rng, scale=scale, **kwargs), None
        if chunk is not None:
            output = ExperimentOutput(measured={}, raw=output)
        elif spec.summarize is not None:
            output = spec.summarize(output)
    except Exception:
        output, error = None, traceback.format_exc(limit=8)
    wall_time_s = time.perf_counter() - start
    return _job_result(job, base_seed, seed_seq, output, error, wall_time_s, peak_rss_mb())


#: The process-wide campaign pool: ``(worker_count, WorkerPool)``.
#: Persistent across campaigns — re-running figs pays process startup
#: once, not per call — and rebuilt only when the requested worker
#: count changes.
_POOL: Optional[Tuple[int, Any]] = None


def _campaign_pool(workers: int):
    global _POOL
    if _POOL is not None and _POOL[0] != workers:
        shutdown_pool()
    if _POOL is None:
        import scipy.signal  # noqa: F401

        from repro.experiments.pool import WorkerPool

        # Workers fork from this process: load the waveform stack here,
        # once, so no worker pays its import on a first waveform job.
        get_context("float64")
        _POOL = (workers, WorkerPool(workers, _execute))
    return _POOL[1]


def shutdown_pool() -> None:
    """Stop the persistent campaign workers (no-op when none exist).

    Also the hook for tests that monkeypatch the registry: workers
    inherit the registry at fork time, so patch, ``shutdown_pool()``,
    then run — the next campaign forks fresh workers that see the
    patched state.
    """
    global _POOL
    if _POOL is not None:
        pool = _POOL[1]
        _POOL = None
        pool.shutdown()


atexit.register(shutdown_pool)


def merge_raw(raws: Sequence[Any]) -> Any:
    """Recombine a unit's trial-chunk raw payloads, given in chunk order.

    Arrays concatenate along their last (trial) axis; non-bool ``int``
    counts sum; dicts, lists and tuples merge element-wise and must have
    the same keys and lengths in every chunk; any other leaf (a
    distance, a label, a threshold) must be equal in every chunk, and
    chunk 0's is kept.  A mismatch raises ``ValueError``.
    """
    first = raws[0]
    if any(type(raw) is not type(first) for raw in raws):
        raise ValueError(f"chunk raws mix types {[type(raw).__name__ for raw in raws]}")
    if isinstance(first, np.ndarray):
        return np.concatenate(raws, axis=-1)
    if isinstance(first, int) and not isinstance(first, bool):
        return sum(raws)
    if isinstance(first, dict):
        if any(raw.keys() != first.keys() for raw in raws):
            raise ValueError(f"chunk raws disagree on keys {list(first)}")
        return {key: merge_raw([raw[key] for raw in raws]) for key in first}
    if isinstance(first, (list, tuple)):
        if any(len(raw) != len(first) for raw in raws):
            raise ValueError(f"chunk raws disagree on length {len(first)}")
        return type(first)(merge_raw(parts) for parts in zip(*raws))
    if any(raw != first for raw in raws):
        raise ValueError(f"chunk raws disagree on {first!r}")
    return first


def _merge_chunk_group(group: List[ExperimentResult]) -> ExperimentResult:
    """Fold a variant's chunk results into one summarised result."""
    first = group[0]
    output, error = None, "\n".join(filter(None, (r.error for r in group)))
    if all(r.status == "ok" for r in group):
        try:
            summarize = get_spec(first.experiment).summarize
            output, error = summarize(merge_raw([r.raw for r in group])), None
        except Exception:
            error = traceback.format_exc(limit=8)
    job = (first.experiment, first.variant, first.params, None)
    wall_time_s = sum(r.wall_time_s for r in group)
    peak_rss = max(r.peak_rss_mb for r in group)
    return _job_result(job, first.base_seed, None, output, error, wall_time_s, peak_rss)


def _merge_stream(results: Iterable[ExperimentResult]) -> Iterator[ExperimentResult]:
    """Merge consecutive chunk jobs back into whole-variant results.

    Yields each merged (or unchunked) result as soon as it is complete,
    so callers can stream progress while later jobs are still running.
    A group closes when it holds its declared chunk count, so repeated
    experiment selections (``["fig14", "fig14"]``) merge into one
    result *per selection*, not one combined result.
    """
    group: List[ExperimentResult] = []
    for result in results:
        if result.chunk is None:
            if group:
                yield _merge_chunk_group(group)
                group = []
            yield result
            continue
        if group and (
            group[0].experiment != result.experiment
            or group[0].variant != result.variant
        ):
            yield _merge_chunk_group(group)
            group = []
        group.append(result)
        if len(group) == group[0].chunk[1]:
            yield _merge_chunk_group(group)
            group = []
    if group:
        yield _merge_chunk_group(group)


#: Units dispatched to compute in this process.  The serving tier's
#: "a warm cache hit never touches the engine" guarantee is asserted
#: against this counter (tests/test_service_server.py).
_UNIT_CALLS = 0


def unit_call_count() -> int:  # repro: allow[REACH] tests pin zero engine calls on it
    """How many units :func:`run_unit`/:func:`run_campaign` have dispatched."""
    return _UNIT_CALLS


def _run_units(
    units: Iterable[Tuple[str, str, Mapping[str, Any]]],
    *,
    base_seed: int,
    scale: float,
    backend: Optional[str],
    precision: Optional[str],
    trial_chunks: int,
    workers: int,
    pipeline: Optional[int],
) -> Iterator[ExperimentResult]:
    """The one executor: run (experiment, variant, params) units in order.

    The caller has validated the request (:func:`check_request`) and
    the units (:func:`check_units`); each unit runs on its
    :func:`_unit_kwargs`.
    A chunkable unit (one with :attr:`ExperimentSpec.summarize`) expands
    into ``trial_chunks`` chunk jobs, whose raws :func:`merge_raw`
    recombines before the one summary.  Jobs run
    in process when ``workers == 1``, else on the persistent pool, where
    a dead worker's job becomes an error result; ``workers < 1`` raises
    ``ValueError`` (:func:`check_workers`).
    Yields one merged result per unit as soon as it is complete.
    """
    global _UNIT_CALLS
    check_workers(workers)
    units = list(units)
    jobs: List[_Job] = []
    for name, variant, params in units:
        spec = get_spec(name)
        merged = _unit_kwargs(name, variant, params, backend, precision)
        chunked = trial_chunks > 1 and spec.summarize is not None
        chunks = [(i, trial_chunks) for i in range(trial_chunks)] if chunked else [None]
        jobs += [(name, variant, merged, chunk) for chunk in chunks]
    _UNIT_CALLS += len(units)
    payloads = [(job, base_seed, scale, pipeline) for job in jobs]
    if workers == 1:
        raw: Iterable[ExperimentResult] = map(_execute, payloads)
    else:
        from repro.experiments.pool import WorkerCrash

        outcomes = _campaign_pool(workers).map(payloads)
        raw = (
            _job_result(job, base_seed, error=outcome.message)
            if isinstance(outcome, WorkerCrash)
            else outcome
            for job, outcome in zip(jobs, outcomes)
        )
    return _merge_stream(raw)


def run_unit(
    name: str,
    variant: str = "default",
    params: Optional[Mapping[str, Any]] = None,
    *,
    base_seed: int = DEFAULT_BASE_SEED,
    scale: float = 1.0,
    backend: Optional[str] = None,
    precision: Optional[str] = None,
    trial_chunks: int = 1,
    workers: int = 1,
    pipeline: Optional[int] = None,
) -> ExperimentResult:
    """Run one (experiment, variant) unit — the cacheable entrypoint.

    A unit is the quantum the serving tier memoizes: its result is a
    pure function of ``(name, variant, params, base_seed, scale,
    backend, precision, trial_chunks)`` — exactly the fields
    :func:`repro.service.cachekey.cache_key` hashes.  ``workers`` and
    ``pipeline`` are execution knobs (chunk parallelism / flush depth)
    that never change the bytes; ``workers < 1`` raises ``ValueError``.
    Explicit ``params`` override the declared variant's and must be
    parameters of the entry (:func:`check_units`, ``ValueError``); an
    ad-hoc variant name draws the CRC32-extended substream of
    :func:`variant_seed_sequence`.
    """
    request = dict(
        base_seed=base_seed,
        scale=scale,
        trial_chunks=trial_chunks,
        backend=backend,
        precision=precision,
    )
    check_request([name], **request)
    units = [(name, variant, params or {})]
    check_units(units, backend=backend, precision=precision)
    return next(_run_units(units, workers=workers, pipeline=pipeline, **request))


def run_campaign(
    names: Optional[Sequence[str]] = None,
    *,
    base_seed: int = DEFAULT_BASE_SEED,
    workers: int = 1,
    scale: float = 1.0,
    sweep: Optional[Mapping[str, Sequence[Any]]] = None,
    trial_chunks: int = 1,
    backend: Optional[str] = None,
    precision: Optional[str] = None,
    pipeline: Optional[int] = None,
    progress: Optional[Callable[[ExperimentResult], None]] = None,
) -> List[ExperimentResult]:
    """Run the selected experiments (all by default), serial or parallel.

    The campaign is the :func:`plan_units` plan fed to the unit executor; results
    come back in unit order regardless of ``workers``, and ``progress``
    sees each one as it completes.  A failing experiment yields a
    ``status="error"`` result instead of aborting the campaign —
    including when a pool worker *process* dies (OOM kill, segfault,
    stray ``SystemExit``): the dead worker's in-flight job is the only
    casualty, surviving jobs run on a replacement worker (one fresh
    pool's worth of replacements before remaining jobs drain as
    errors).  ``trial_chunks > 1`` splits chunkable experiments into
    that many trial-chunk jobs (each on its own spawned substream) and
    merges them after execution: ``--workers`` then parallelises inside
    an experiment, and the artifact depends only on ``(base_seed,
    trial_chunks)`` — never on the worker count.  ``workers`` must be
    at least 1 (``ValueError`` otherwise); above 1, jobs run on a
    persistent worker pool (:mod:`repro.experiments.pool`) that
    outlives the campaign and returns each result pickled over a pipe;
    call :func:`shutdown_pool` to retire it.  ``backend`` selects the
    waveform backend for the whole campaign; every selected experiment
    must declare it in its capability flags, and every expanded unit
    passes :func:`check_units` before the first one runs.
    ``precision`` selects the working precision (validated against the
    backend: only ``fast`` supports ``"float32"``).  ``pipeline`` sets the Phase-A/Phase-B
    flush-pipeline depth for waveform experiments (``None`` = the
    ``REPRO_PIPELINE_DEPTH`` default); artifacts are bit-identical at
    every depth.
    """
    selected = list(names or CANONICAL_ORDER)
    request = dict(
        base_seed=base_seed,
        scale=scale,
        trial_chunks=trial_chunks,
        backend=backend,
        precision=precision,
    )
    check_request(selected, **request)
    units = _expand_units(selected, sweep)
    check_units(units, backend=backend, precision=precision)
    results: List[ExperimentResult] = []
    for result in _run_units(units, workers=workers, pipeline=pipeline, **request):
        if progress:
            progress(result)
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def jsonify(value: Any) -> Any:
    """Recursively convert results to JSON-clean structures.

    numpy scalars/arrays become Python numbers/lists, mapping keys
    become strings, tuples become lists, dataclasses become dicts and
    non-finite floats become ``None`` (so artifacts stay strict JSON).
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonify(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {_key_str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        # Set iteration order is hash-dependent; artifacts (and the
        # cache keys hashed over them) must be byte-canonical, so sets
        # serialise sorted by their canonical JSON encoding.
        return sorted(
            (jsonify(v) for v in value),
            key=lambda v: json.dumps(v, sort_keys=True),
        )
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return str(value)


def _key_str(key: Any) -> str:
    if isinstance(key, np.generic):
        key = key.item()
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    if isinstance(key, tuple):
        return "-".join(str(jsonify(k)) for k in key)
    return str(key)


def unit_to_dict(
    result: ExperimentResult,
    *,
    scale: float = 1.0,
    trial_chunks: int = 1,
    backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> Dict[str, Any]:
    """The machine-readable artifact for one cacheable unit.

    The single-result analogue of :func:`campaign_to_dict`: the
    ``provenance`` block pins every result-shaping input beyond the
    base seed (including ``scale``, which the campaign schema leaves to
    the caller), so a cached unit body is self-describing.  Timing is
    always excluded — unit bodies must be byte-identical across runs.
    """
    return {
        "schema": "repro-unit/1",
        "base_seed": result.base_seed,
        "provenance": {
            "scale": float(scale),
            "trial_chunks": int(trial_chunks),
            "backend": backend,
            "precision": precision,
        },
        "result": result.to_dict(),
    }


def result_from_dict(entry: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its ``to_dict`` form.

    Used by the cached runner path to fold stored unit bodies back into
    the normal campaign artifact flow; ``to_dict`` of the rebuilt
    result round-trips byte-for-byte (wall time and peak RSS are not
    serialised, so they come back as 0.0).
    """
    seed = entry.get("seed") or {}
    return ExperimentResult(
        experiment=entry["experiment"],
        variant=entry.get("variant", "default"),
        title=entry.get("title", ""),
        paper_ref=entry.get("paper_ref", ""),
        params=dict(entry.get("params") or {}),
        base_seed=int(seed.get("base_seed", DEFAULT_BASE_SEED)),
        spawn_key=tuple(int(k) for k in seed.get("spawn_key", ())),
        status=entry.get("status", "ok"),
        measured=dict(entry.get("measured") or {}),
        paper=dict(entry.get("paper") or {}),
        report=entry.get("report") or "",
        wall_time_s=float(entry.get("wall_time_s", 0.0)),
        error=entry.get("error"),
        peak_rss_mb=float(entry.get("peak_rss_mb", 0.0)),
    )


def campaign_to_dict(
    results: Sequence[ExperimentResult],
    *,
    base_seed: int = DEFAULT_BASE_SEED,
    include_timing: bool = False,
    trial_chunks: int = 1,
    backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> Dict[str, Any]:
    """The machine-readable campaign artifact.

    Timing is excluded by default so that runs with the same seed are
    byte-identical no matter how many workers produced them.  The
    ``provenance`` block pins everything the numbers depend on beyond
    the base seed: the trial-chunk count (a chunked run is a different,
    equally valid seeding scheme than the unchunked run of the same
    experiment) and the campaign-level waveform backend and working
    precision.
    """
    return {
        "schema": "repro-campaign/2",
        "base_seed": base_seed,
        "provenance": {
            "trial_chunks": int(trial_chunks),
            "backend": backend,
            "precision": precision,
        },
        "experiments": [r.to_dict(include_timing) for r in results],
    }


def campaign_to_json(
    results: Sequence[ExperimentResult],
    *,
    base_seed: int = DEFAULT_BASE_SEED,
    include_timing: bool = False,
    trial_chunks: int = 1,
    backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> str:
    return json.dumps(
        campaign_to_dict(
            results,
            base_seed=base_seed,
            include_timing=include_timing,
            trial_chunks=trial_chunks,
            backend=backend,
            precision=precision,
        ),
        indent=2,
        sort_keys=True,
    )


def write_campaign_json(
    path: str,
    results: Sequence[ExperimentResult],
    *,
    base_seed: int = DEFAULT_BASE_SEED,
    include_timing: bool = False,
    trial_chunks: int = 1,
    backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            campaign_to_json(
                results,
                base_seed=base_seed,
                include_timing=include_timing,
                trial_chunks=trial_chunks,
                backend=backend,
                precision=precision,
            )
        )
        fh.write("\n")
