"""Precision facade for the batched waveform kernels.

Every batched kernel (stacked NCC, shared-FFT channel rendering, the
GEMM candidate gate, synthesized noise) takes its dtypes and FFT
bindings from here instead of hardcoding float64 and ``scipy.fft``.
The facade resolves two things as one immutable :class:`ArrayContext`:

* the working precision — ``"float64"`` (the bit-parity reference
  tier) or ``"float32"`` (the statistical-contract fast tier);
* the FFT bindings for that precision.

It also holds the kernels' one working-set budget, :data:`BLOCK_BYTES`,
which :func:`row_blocks` splits a batch's row axis under, and the one
table of which waveform backend runs which precision,
:data:`WAVEFORM_BACKENDS`, with its check :func:`check_waveform_backend`.

Arrays are always numpy; the kernels call ``np.`` directly.

The float64 context binds exactly the functions the kernels
historically called — ``scipy.fft`` ``rfft``/``irfft``/
``next_fast_len`` and ``np.fft`` ``fft``/``ifft`` — so routing the
kernels through the facade changes no bits on the reference path; the
parity-epoch baselines (``tests/regen_parity_baselines.py --check``)
pin this.  The float32 context binds ``scipy.fft`` throughout because
it both preserves single precision (float32 in -> complex64 out) and
accepts ``workers=`` for threaded stacked transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "PRECISIONS",
    "DEFAULT_PRECISION",
    "WAVEFORM_BACKENDS",
    "check_waveform_backend",
    "ArrayContext",
    "get_context",
    "precision_of",
    "as_float_array",
    "as_complex_array",
    "BLOCK_BYTES",
    "row_blocks",
]

#: Supported working precisions, reference tier first.
PRECISIONS: Tuple[str, ...] = ("float64", "float32")

DEFAULT_PRECISION = "float64"

#: The waveform-backend registry every engine plugs into, mapping each
#: backend to the working precisions it supports.  ``batch`` is the
#: bit-parity reference pipeline, pinned to the per-exchange oracles in
#: tests/legacy_oracles.py and to the parity-epoch baselines; ``fast``
#: is the non-parity engine validated statistically
#: (tests/test_fast_equivalence.py).  Only ``fast`` supports the
#: float32 tier: ``batch`` *is* the float64 reference, so ``(backend,
#: precision)`` is validated as a pair by :func:`check_waveform_backend`.
WAVEFORM_BACKENDS: Dict[str, Tuple[str, ...]] = {
    "batch": ("float64",),
    "fast": PRECISIONS,
}


def check_waveform_backend(backend: str, precision: Optional[str] = None) -> str:
    """Validate a waveform ``(backend, precision)`` pair; return ``backend``.

    ``precision`` (when given) must be a registered precision *and* one
    the backend supports, so e.g. ``("batch", "float32")`` is rejected
    exactly like an unknown backend name.  The campaign engine and the
    batched exchange both validate through here, with one message.
    """
    if not isinstance(backend, str) or backend not in WAVEFORM_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (choose from {', '.join(WAVEFORM_BACKENDS)})"
        )
    if precision is not None:
        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r} "
                f"(choose from {', '.join(PRECISIONS)})"
            )
        if precision not in WAVEFORM_BACKENDS[backend]:
            raise ValueError(
                f"backend {backend!r} does not support precision {precision!r} "
                f"(supported: {', '.join(WAVEFORM_BACKENDS[backend])})"
            )
    return backend

_REAL_DTYPES = {"float64": np.dtype(np.float64), "float32": np.dtype(np.float32)}
_COMPLEX_DTYPES = {"float64": np.dtype(np.complex128), "float32": np.dtype(np.complex64)}


def precision_of(dtype: Any) -> str:
    """Map an array dtype onto the facade precision that produced it."""
    dt = np.dtype(dtype)
    if dt == _REAL_DTYPES["float32"] or dt == _COMPLEX_DTYPES["float32"]:
        return "float32"
    return "float64"


def as_float_array(values: Any) -> np.ndarray:
    """dtype-preserving replacement for ``np.asarray(x, dtype=float)``.

    float32 and float64 arrays pass through untouched (so the fast
    tier's single-precision streams are not silently promoted); every
    other input keeps the historic behaviour and becomes float64.
    """
    arr = np.asarray(values)
    if arr.dtype == np.float32 or arr.dtype == np.float64:
        return arr
    return arr.astype(np.float64)


def as_complex_array(values: Any) -> np.ndarray:
    """dtype-preserving replacement for ``np.asarray(x, dtype=complex)``."""
    arr = np.asarray(values)
    if arr.dtype == np.complex64 or arr.dtype == np.complex128:
        return arr
    if arr.dtype == np.float32:
        return arr.astype(np.complex64)
    return arr.astype(np.complex128)


@dataclass(frozen=True)
class ArrayContext:
    """One working precision plus its dtypes and FFT bindings."""

    #: Always ``"numpy"``; benchmark artifacts record it.
    name: str
    precision: str
    real_dtype: np.dtype
    complex_dtype: np.dtype
    rfft: Callable[..., Any]
    irfft: Callable[..., Any]
    fft: Callable[..., Any]
    ifft: Callable[..., Any]
    next_fast_len: Callable[..., int]
    rfftfreq: Callable[..., Any]


def _build_context(precision: str) -> ArrayContext:
    # scipy.fft is imported here, not at module level, so a process
    # that never builds a context (localization, fleets) never loads
    # it; contexts are cached, so this runs once per precision.
    import scipy.fft as _sp_fft

    # float64 keeps the historic bindings: scipy.fft for the real
    # stacked transforms, np.fft for the OFDM fft/ifft pair.  Changing
    # either would shift parity-epoch bits.
    single = precision == "float32"
    return ArrayContext(
        name="numpy",
        precision=precision,
        real_dtype=_REAL_DTYPES[precision],
        complex_dtype=_COMPLEX_DTYPES[precision],
        rfft=_sp_fft.rfft,
        irfft=_sp_fft.irfft,
        fft=_sp_fft.fft if single else np.fft.fft,
        ifft=_sp_fft.ifft if single else np.fft.ifft,
        next_fast_len=_sp_fft.next_fast_len,
        rfftfreq=np.fft.rfftfreq,
    )


_CONTEXTS: Dict[str, ArrayContext] = {}


def get_context(precision: str = DEFAULT_PRECISION) -> ArrayContext:
    """Resolve (and cache) the context for ``precision``.

    Contexts are cached per precision, so kernels can call this in hot
    paths.
    """
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r} (choose from {', '.join(PRECISIONS)})"
        )
    ctx = _CONTEXTS.get(precision)
    if ctx is None:
        ctx = _CONTEXTS[precision] = _build_context(precision)
    return ctx


#: Working-set budget of the stacked FFT kernels, in bytes per stacked
#: real array (16 float64 rows at a 32768-point transform).  Each
#: kernel walks its batch in :func:`row_blocks` and frees one block's
#: temporaries before the next, so its peak no longer grows with the
#: batch.  Blocking changes no bit: only rows are split, transform
#: lengths stay call-wide, and pocketfft transforms every row of a
#: stack independently (DESIGN.md §6, "Working set").
BLOCK_BYTES = 4 << 20


def row_blocks(count: int, row_bytes: int) -> Iterator[Tuple[int, int]]:
    """``(lo, hi)`` row ranges covering ``range(count)`` in order.

    ``row_bytes`` is the size of one row of the widest array a block
    allocates; a block holds as many rows as fit in
    :data:`BLOCK_BYTES`, and always at least one.
    """
    step = max(1, BLOCK_BYTES // max(1, int(row_bytes)))
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)
