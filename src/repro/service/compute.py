"""Cache-through unit compute: one code path for server, CLI and runner.

``compute_unit`` runs one unit through the engine and encodes the
``repro-unit/1`` artifact canonically — the bytes are a deterministic
function of the request, which is what makes two fresh servers with
separate cache roots serve byte-identical bodies.  ``cached_unit``
wraps it with the store: hit → stored bytes untouched by the engine;
miss → compute, then cache **only** ``status == "ok"`` bodies, so a
failed unit is retried on the next request instead of pinning its
traceback into the cache.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Tuple

from repro.experiments import engine
from repro.service.cachekey import UnitRequest, cache_key
from repro.service.store import CacheStore


def encode_body(unit: Any) -> bytes:
    """Deterministic body bytes for a ``repro-unit/1`` document.

    Like :func:`repro.service.cachekey.canonical_json` (jsonify, sorted
    keys, compact, ASCII, ``allow_nan=False``) but **without** the
    float-spelling normalization: keys may collapse ``5.0`` into ``5``
    because both spellings address the same computation, while the body
    must preserve the engine's exact value types so a cache-served
    campaign artifact is byte-identical to an uncached run.
    """
    return json.dumps(
        engine.jsonify(unit),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    ).encode("ascii")


def compute_unit(
    request: UnitRequest,
    *,
    workers: int = 1,
    pipeline: Optional[int] = None,
) -> Tuple[bytes, bool]:
    """Run the unit; returns ``(canonical body bytes, ok)``.

    ``workers``/``pipeline`` are execution knobs — they parallelise
    chunked units and set the flush-pipeline depth without changing a
    byte of the body (DESIGN.md §8).
    """
    result = engine.run_unit(
        request.experiment,
        request.variant,
        request.params,
        base_seed=request.base_seed,
        scale=request.scale,
        backend=request.backend,
        precision=request.precision,
        trial_chunks=request.trial_chunks,
        workers=workers,
        pipeline=pipeline,
    )
    unit = engine.unit_to_dict(
        result,
        scale=request.scale,
        trial_chunks=request.trial_chunks,
        backend=request.backend,
        precision=request.precision,
    )
    return encode_body(unit), result.status == "ok"


def cached_unit(
    store: CacheStore,
    request: UnitRequest,
    *,
    workers: int = 1,
    pipeline: Optional[int] = None,
) -> Tuple[str, bytes, bool]:
    """Serve the unit through the store: ``(key, body, hit)``."""
    key = cache_key(request)
    body = store.get(key)
    if body is not None:
        return key, body, True
    body, ok = compute_unit(request, workers=workers, pipeline=pipeline)
    if ok:
        store.put(key, body)
    return key, body, False

