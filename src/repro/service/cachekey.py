"""Content-addressable cache keys for campaign units.

A unit result depends on exactly the provenance tuple ``(experiment,
variant, params, base_seed, scale, backend, precision, trial_chunks)``
plus the code that computes it.  :func:`cache_key` hashes a canonical
JSON encoding of that tuple:

* **Canonical JSON** — keys sorted, compact separators, ASCII-only,
  ``allow_nan=False``; floats are normalised first (``-0.0`` becomes
  ``0.0``, exactly-integral floats within 2**53 become ints) so
  ``scale=1`` and ``scale=1.0`` address the same entry.  Values pass
  through :func:`repro.experiments.engine.jsonify`, which already
  makes sets, tuples, numpy scalars and dataclasses deterministic.
* **Unit addressing** — keys are computed per (experiment, variant),
  never per campaign, so a sweep point shared by two campaigns shares
  one cache entry (:func:`repro.experiments.engine.plan_units` is the
  expansion).
* **Code-version salt** — the digest of every ``*.py`` file in the
  ``repro`` package (:func:`code_version`) plus :data:`CACHE_EPOCH`.
  Any code change invalidates the whole cache; that is deliberate —
  a stale entry that silently survives a numerics change is a
  correctness bug, while a cold cache merely costs one recompute.
  ``CACHE_EPOCH`` exists for deployments that pin the package: bump it
  to force invalidation without a code diff.
* **Numeric environment** — ``numpy.__version__`` and
  ``scipy.__version__`` are hashed too: a library upgrade can change
  result bits (BLAS/FFT kernels, RNG internals) without touching the
  package sources.

The execution knob ``workers`` is deliberately *not* part of the
key: results are bit-identical for every worker count (DESIGN.md §8).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy
import scipy

from repro.experiments import engine

#: Manual cache invalidation lever: bump on semantic changes that the
#: code-version and library-version salts cannot see (e.g. a BLAS
#: swapped under an unchanged numpy).
CACHE_EPOCH = 1

#: Schema tag hashed into every key, so a future key layout can never
#: collide with this one.
KEY_SCHEMA = "repro-cache/1"

_MAX_EXACT_INT_FLOAT = float(1 << 53)

_CODE_VERSION: Optional[str] = None


def canonical_json(value: Any) -> str:
    """The one canonical JSON encoding of ``value``.

    Two structurally equal values — regardless of dict insertion
    order, tuple-vs-list spelling, numpy scalar types or integral
    float spelling — encode to identical bytes.
    """
    return json.dumps(
        _normalize(engine.jsonify(value)),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def _normalize(value: Any) -> Any:
    """Collapse float spellings after ``jsonify`` has cleaned types."""
    if isinstance(value, float):
        if value == 0.0:
            return 0  # merges -0.0 / 0.0 / 0
        if value.is_integer() and abs(value) <= _MAX_EXACT_INT_FLOAT:
            return int(value)
        return value
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    return value


def code_version() -> str:
    """Digest of the installed ``repro`` package sources (cached).

    Hashes (relative path, file bytes) for every ``*.py`` under the
    package root in sorted order.  Computed once per process; a few
    hundred kilobytes of hashing, well under a millisecond of it.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


@dataclass(frozen=True)
class UnitRequest:
    """A normalised, validated request for one cacheable unit."""

    experiment: str
    variant: str = "default"
    params: Mapping[str, Any] = field(default_factory=dict)
    base_seed: int = engine.DEFAULT_BASE_SEED
    scale: float = 1.0
    backend: Optional[str] = None
    precision: Optional[str] = None
    trial_chunks: int = 1

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (request bodies, trace lines)."""
        return {
            "experiment": self.experiment,
            "variant": self.variant,
            "params": dict(self.params),
            "base_seed": self.base_seed,
            "scale": self.scale,
            "backend": self.backend,
            "precision": self.precision,
            "trial_chunks": self.trial_chunks,
        }


#: Fields a request body may carry; anything else is a client error.
_REQUEST_FIELDS: Tuple[str, ...] = (
    "experiment",
    "variant",
    "params",
    "base_seed",
    "scale",
    "backend",
    "precision",
    "trial_chunks",
)


def normalize_request(body: Mapping[str, Any]) -> UnitRequest:
    """Validate a request mapping into a :class:`UnitRequest`.

    Raises ``ValueError`` with a client-presentable message on unknown
    fields or bad types here, and on whatever
    :func:`repro.experiments.engine.check_request` and
    :func:`repro.experiments.engine.check_units` reject (unknown
    experiments, ranges, backend capability, the (backend, precision)
    pair, params the experiment does not take), so a bad request is a
    client error before any compute.
    """
    if not isinstance(body, Mapping):
        raise ValueError("request body must be a JSON object")
    unknown = sorted(set(body) - set(_REQUEST_FIELDS))
    if unknown:
        raise ValueError(f"unknown request field(s): {', '.join(unknown)}")
    experiment = body.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise ValueError("'experiment' is required and must be a string")
    variant = body.get("variant", "default")
    if not isinstance(variant, str) or not variant:
        raise ValueError("'variant' must be a non-empty string")
    params = body.get("params") or {}
    if not isinstance(params, Mapping):
        raise ValueError("'params' must be a JSON object")
    try:
        canonical_json(params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'params' must be finite JSON values: {exc}")
    backend = body.get("backend")
    precision = body.get("precision")
    if backend is not None and not isinstance(backend, str):
        raise ValueError("'backend' must be a string")
    if precision is not None and not isinstance(precision, str):
        raise ValueError("'precision' must be a string")
    try:
        base_seed = int(body.get("base_seed", engine.DEFAULT_BASE_SEED))
        scale = float(body.get("scale", 1.0))
        trial_chunks = int(body.get("trial_chunks", 1))
    except (TypeError, ValueError, OverflowError):
        raise ValueError("'base_seed'/'scale'/'trial_chunks' must be finite numbers")
    try:
        engine.check_request(
            [experiment],
            base_seed=base_seed,
            scale=scale,
            trial_chunks=trial_chunks,
            backend=backend,
            precision=precision,
        )
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment!r} "
            f"(available: {', '.join(engine.registry())})"
        ) from None
    engine.check_units(
        [(experiment, variant, params)], backend=backend, precision=precision
    )
    return UnitRequest(
        experiment=experiment,
        variant=variant,
        params=dict(params),
        base_seed=base_seed,
        scale=scale,
        backend=backend,
        precision=precision,
        trial_chunks=trial_chunks,
    )


def cache_key(request: UnitRequest) -> str:
    """The sha256 content address of a unit request (hex)."""
    payload = {
        "schema": KEY_SCHEMA,
        "epoch": CACHE_EPOCH,
        "code_version": code_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "request": request.to_dict(),
    }
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
