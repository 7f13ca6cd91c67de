"""Batch-first correlation/peak kernels, bit-identical to the scalar path.

:func:`repro.signals.correlation.normalized_cross_correlation` and the
scalar peak predicate and segment auto-correlation of the test oracle
(``tests/scalar_receiver.py``) are the clarity-first reference; this
module is the engine the receiver runs on.  Every kernel here is
constructed so that its outputs are **bit-identical** to the scalar
reference on the same inputs — that is the contract
`tests/test_batchcorr.py` pins with hypothesis and
`tests/test_batch_parity.py` relies on end to end:

* FFT work uses the *same* transform lengths ``scipy.signal.fftconvolve``
  would pick (``next_fast_len`` of the per-row full convolution size);
  pocketfft applies the identical 1-D transform to every row of a 2-D
  batch, so stacking rows with equal transform length changes nothing.
* Template and window spectra are cached per transform length — the
  scalar path re-pays both FFTs on every call.
* Peak finding is pure comparisons, vectorised without arithmetic.
* Segment autocorrelation keeps the scalar reduction ops (`np.dot`,
  element-wise division) per candidate; only the window gather and the
  sign handling are restructured, using identities that are exact in
  IEEE-754 (``|-x| == |x|``, ``(-x)·y == -(x·y)``, ``1.0*x == x``).

The fast backend's kernels (:func:`normalized_cross_correlation_fused`
and the strided-Gram gate behind ``force_gemm=True``) are the
exceptions: same mathematics, different rounding.

Grouping helper
---------------
Streams in one batch usually differ in length by a few samples, but
``next_fast_len`` maps nearby sizes onto the same fast transform
length, so most rows share a group and stacked FFTs cover them.  The
stacked kernels walk each group :func:`repro.signals.xp.row_blocks`
rows at a time, so their working set is bounded by
:data:`repro.signals.xp.BLOCK_BYTES` rather than the batch size.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.signals.xp import as_float_array, get_context, precision_of, row_blocks

#: Precision of the parity-tier FFT bindings.  The float64 context
#: binds exactly the historic ``scipy.fft`` rfft/irfft/next_fast_len —
#: so routing through the facade here is a pure aliasing change (parity
#: epoch 2 baselines unaffected).  Kernels resolve it when they run,
#: not at import: importing this module (``service.store`` does, for
#: :func:`env_int`) must not load ``scipy.fft``.
_PARITY = "float64"

#: (variable, value) pairs already warned about, so a long campaign
#: complains once per bad setting instead of once per chunk flush.
_ENV_WARNED: Set[Tuple[str, str]] = set()


def env_int(name: str, default: int, minimum: int = 0) -> int:
    """Defensively parse an integer environment knob.

    A typo (``REPRO_FFT_WORKERS=auto``) must degrade to the default
    with a warning, not crash a campaign mid-run with a bare
    ``ValueError`` from deep inside a flush.  Warns once per
    (variable, value) pair; empty/unset values silently use the
    default.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return max(minimum, int(raw.strip()))
    except ValueError:
        key = (name, raw)
        if key not in _ENV_WARNED:
            _ENV_WARNED.add(key)
            warnings.warn(
                f"{name}={raw!r} is not an integer; falling back to the "
                f"default ({default})",
                RuntimeWarning,
                stacklevel=3,
            )
        return default


def env_str(name: str) -> Optional[str]:
    """Raw string value of an execution-knob environment variable.

    The sanctioned choke point for knob *lookup* (ENV001): callers that
    need to inspect the raw text (e.g. ``REPRO_PIPELINE_DEPTH=off``)
    read it here instead of touching ``os.environ`` themselves, keeping
    every environment read inside the audited helper modules.
    """
    return os.environ.get(name)


def fft_workers() -> int:
    """Worker count for multi-threaded stacked transforms (fast mode).

    The parity kernels never thread (a single pocketfft worker is the
    reference); the fast backend threads per-row transforms, which are
    deterministic per row regardless of the worker count.  Override
    with ``REPRO_FFT_WORKERS``; defaults to the machine's core count —
    except inside a child process (a ``--workers N`` campaign pool),
    where it defaults to 1 so N processes don't each spawn a full
    complement of FFT threads and thrash the machine.  Unparsable
    overrides warn once and use the default.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        default = 1
    else:
        default = max(1, os.cpu_count() or 1)
    return env_int("REPRO_FFT_WORKERS", default, minimum=1)


def shared_fast_len(full_sizes: Sequence[int]) -> int:
    """One 5-smooth transform length covering every row of a batch.

    The fast backend trades the parity backend's per-row legacy sizes
    for a single padded length: every row shares one stacked transform
    and one cached template spectrum.  Zero padding a linear
    convolution cannot alias it, so each row's first ``full`` samples
    still hold that row's exact linear convolution.
    """
    return get_context(_PARITY).next_fast_len(int(max(full_sizes)), True)


class CachedTemplate:
    """A correlation template with per-transform-length spectrum caches.

    Caches ``rfft(template[::-1], nf)`` (for cross-correlation) and
    ``rfft(ones(len(template)), nf)`` (for the local-energy window of
    the normalised cross-correlation) so a sweep of hundreds of streams
    pays each template transform once per distinct length instead of
    once per call.

    ``dtype`` fixes the working precision at construction: a float32
    template yields complex64 spectrum caches, so every correlation
    against it stays single-precision end to end.  The template norm is
    always accumulated in float64 (one scalar; cheap insurance against
    cancellation) and only the stored spectra follow ``dtype``.
    """

    def __init__(self, template: np.ndarray, dtype: Any = float):
        template = np.asarray(template, dtype=dtype)
        if template.size == 0:
            raise ValueError("template must be non-empty")
        self.template = template
        self.dtype = template.dtype
        self._ctx = get_context(precision_of(template.dtype))
        self.size = template.size
        tmpl64 = np.asarray(template, dtype=np.float64)  # repro: allow[DTYPE001] norm stays f64
        self.norm = float(np.linalg.norm(tmpl64))
        self._reversed = template[::-1].copy()
        self._rev_fft: Dict[int, np.ndarray] = {}
        self._window_fft: Dict[int, np.ndarray] = {}

    def reversed_fft(self, nf: int) -> np.ndarray:
        spec = self._rev_fft.get(nf)
        if spec is None:
            spec = self._ctx.rfft(self._reversed, nf)
            self._rev_fft[nf] = spec
        return spec

    def window_fft(self, nf: int) -> np.ndarray:
        spec = self._window_fft.get(nf)
        if spec is None:
            spec = self._ctx.rfft(np.ones(self.size, dtype=self.dtype), nf)
            self._window_fft[nf] = spec
        return spec


def _stack_padded(
    streams: Sequence[np.ndarray],
    rows: Sequence[int],
    nf: int,
    dtype: Any = np.float64,
) -> np.ndarray:
    out = np.zeros((len(rows), nf), dtype=dtype)
    for k, idx in enumerate(rows):
        s = streams[idx]
        out[k, : s.size] = s
    return out


def _grouped_rows(
    streams: Sequence[np.ndarray], rows: Sequence[int], template_size: int
) -> Dict[int, List[int]]:
    next_fast_len = get_context(_PARITY).next_fast_len
    groups: Dict[int, List[int]] = {}
    for idx in rows:
        nf = next_fast_len(streams[idx].size + template_size - 1, True)
        groups.setdefault(nf, []).append(idx)
    return groups


def normalized_cross_correlation_batch(
    streams: Sequence[np.ndarray], template: CachedTemplate | np.ndarray
) -> List[np.ndarray]:
    """Batched :func:`repro.signals.correlation.normalized_cross_correlation`.

    Rows sharing a transform length are correlated as stacked FFTs,
    :func:`~repro.signals.xp.row_blocks` rows at a time, so the working
    set stays bounded by the block budget rather than the batch size.
    Blocking splits only rows, never a transform, so every output is
    bit-identical to the scalar reference.
    """
    tmpl = template if isinstance(template, CachedTemplate) else CachedTemplate(template)
    streams = [np.asarray(s, dtype=float) for s in streams]  # repro: allow[DTYPE001] parity is f64
    for s in streams:
        if s.size == 0:
            raise ValueError("stream and template must be non-empty")
    if tmpl.norm == 0:
        raise ValueError("template has zero energy")
    out: List[Optional[np.ndarray]] = [None] * len(streams)
    start = tmpl.size - 1

    def _finish(idx: int, c: np.ndarray, e: np.ndarray) -> None:
        denom = np.sqrt(np.maximum(e, 0.0))
        np.maximum(denom, 1e-12, out=denom)
        denom *= tmpl.norm
        np.divide(c, denom, out=denom)
        out[idx] = np.clip(denom, -1.0, 1.0, out=denom)

    fft_rows = []
    for idx, s in enumerate(streams):
        if tmpl.size == 1 or s.size == 1:
            # fftconvolve drops length-1 axes and multiplies directly.
            corr = (s * tmpl._reversed)[start : start + s.size]
            energy = ((s * s) * np.ones(tmpl.size))[start : start + s.size]
            _finish(idx, corr, energy)
        else:
            fft_rows.append(idx)
    ctx = get_context(_PARITY)

    def _block(rows: Sequence[int], nf: int) -> None:
        stacked = _stack_padded(streams, rows, nf)
        spec = ctx.rfft(stacked, nf, axis=-1)
        spec *= tmpl.reversed_fft(nf)
        corr = ctx.irfft(spec, nf, axis=-1)
        del spec
        np.square(stacked, out=stacked)
        sq_spec = ctx.rfft(stacked, nf, axis=-1)
        del stacked
        energy = ctx.irfft(sq_spec * tmpl.window_fft(nf), nf, axis=-1)
        for k, idx in enumerate(rows):
            n = streams[idx].size
            _finish(idx, corr[k, start : start + n], energy[k, start : start + n])

    for nf, rows in _grouped_rows(streams, fft_rows, tmpl.size).items():
        for lo, hi in row_blocks(len(rows), nf * 8):
            _block(rows[lo:hi], nf)
    return out  # type: ignore[return-value]


def normalized_cross_correlation_fused(
    streams: Sequence[np.ndarray],
    template: CachedTemplate | np.ndarray,
    workers: Optional[int] = None,
) -> List[np.ndarray]:
    """Fast-mode NCC: shared transform length, fused normalisation.

    Statistically equivalent to (but **not** bit-identical with)
    :func:`normalized_cross_correlation_batch`:

    * every row is padded to one :func:`shared_fast_len` transform, so
      the whole batch shares a single cached template spectrum and runs
      as stacked FFTs (optionally threaded with ``workers``);
    * the local-energy denominator is a cumulative-sum sliding window —
      one O(n) pass instead of a second FFT convolution pair.  The
      window sums are mathematically identical and differ only in
      rounding, which the fast backend's equivalence contract absorbs
      (tests/test_fast_equivalence.py).

    The stacked transforms run :func:`~repro.signals.xp.row_blocks`
    rows at a time (sized by the float64 cumulative sum, the widest
    per-row array), and each block's temporaries are freed before the
    next, so the working set is bounded by the block budget instead of
    growing with the batch.  The transform length stays call-wide and
    ``cumsum`` runs along each row, so the outputs do not depend on the
    block size.

    The working precision follows the template's dtype (float32
    templates correlate float32 streams into float32 outputs).  The
    sliding-window energy is always *accumulated* in float64 — a long
    float32 cumsum loses low-order bits to catastrophic cancellation in
    the window difference — and the denominator is cast back to the
    working dtype before the divide, so the output dtype still matches
    the requested precision (DESIGN.md §11).
    """
    tmpl = template if isinstance(template, CachedTemplate) else CachedTemplate(template)
    streams = [as_float_array(s) for s in streams]
    for s in streams:
        if s.size == 0:
            raise ValueError("stream and template must be non-empty")
    if tmpl.norm == 0:
        raise ValueError("template has zero energy")
    if not streams:
        return []
    ctx = tmpl._ctx
    out: List[Optional[np.ndarray]] = [None] * len(streams)
    start = tmpl.size - 1
    w = fft_workers() if workers is None else workers

    def _block(rows: Sequence[int], nf: int) -> None:
        stacked = _stack_padded(streams, rows, nf, dtype=tmpl.dtype)
        spec = ctx.rfft(stacked, nf, axis=-1, workers=w)
        spec *= tmpl.reversed_fft(nf)
        corr = ctx.irfft(spec, nf, axis=-1, workers=w)
        del spec
        np.square(stacked, out=stacked)
        cum = np.cumsum(stacked, axis=-1, dtype=np.float64)  # repro: allow[DTYPE001] f64 cumsum
        del stacked
        for k, idx in enumerate(rows):
            n = streams[idx].size
            # Windowed energy of the L samples ending at full-conv index
            # start + i: cum[start + i] - cum[i - 1] (zero rows pad cum
            # flat beyond n, so the upper index never under-counts).
            upper = cum[k, start : start + n]
            energy = upper - np.concatenate(([0.0], cum[k, : n - 1]))
            denom = np.sqrt(np.maximum(energy, 0.0))
            np.maximum(denom, 1e-12, out=denom)
            denom *= tmpl.norm
            denom = denom.astype(corr.dtype, copy=False)
            np.divide(corr[k, start : start + n], denom, out=denom)
            out[idx] = np.clip(denom, -1.0, 1.0, out=denom)

    fft_rows = []
    for idx, s in enumerate(streams):
        if tmpl.size == 1 or s.size == 1:
            s = np.asarray(s, dtype=tmpl.dtype)
            corr = (s * tmpl._reversed)[start : start + s.size]
            energy = ((s * s) * np.ones(tmpl.size, dtype=tmpl.dtype))[
                start : start + s.size
            ]
            denom = np.sqrt(np.maximum(energy, 0.0))
            np.maximum(denom, 1e-12, out=denom)
            denom *= tmpl.norm
            out[idx] = np.clip(corr / denom, -1.0, 1.0)
        else:
            fft_rows.append(idx)
    if not fft_rows:
        return out  # type: ignore[return-value]

    nf = shared_fast_len([streams[i].size + tmpl.size - 1 for i in fft_rows])
    for lo, hi in row_blocks(len(fft_rows), nf * 8):
        _block(fft_rows[lo:hi], nf)
    return out  # type: ignore[return-value]


def peak_mask(values: np.ndarray) -> np.ndarray:
    """Vectorised ``IsPeak`` predicate over a 1-D array.

    Boundary samples count as peaks when they exceed their single
    neighbour (a conservative reading of the paper's ``IsPeak``).  Pure
    comparisons — bit-exact by construction against the scalar
    predicate applied per index.
    """
    values = np.asarray(values)
    n = values.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    left_ok = np.empty(n, dtype=bool)
    right_ok = np.empty(n, dtype=bool)
    left_ok[0] = True
    np.greater_equal(values[1:], values[:-1], out=left_ok[1:])
    right_ok[n - 1] = True
    np.greater_equal(values[: n - 1], values[1:], out=right_ok[: n - 1])
    strict = np.zeros(n, dtype=bool)
    np.greater(values[1:], values[:-1], out=strict[1:])
    strict[: n - 1] |= values[: n - 1] > values[1:]
    return left_ok & right_ok & strict


def local_peak_indices_fast(values: np.ndarray, min_height: float = 0.0) -> np.ndarray:
    """Indices of all local maxima (:func:`peak_mask`) above ``min_height``.

    Pure comparisons, so float32 inputs are scanned in place instead of
    being promoted to a float64 copy.
    """
    values = as_float_array(values)
    if values.size == 0:
        return np.array([], dtype=int)
    return np.nonzero((values > min_height) & peak_mask(values))[0]


def _segment_matrix(
    window: np.ndarray, num_segments: int, symbol_stride: int, symbol_len: int
) -> np.ndarray:
    """Contiguous ``(num_segments, symbol_len)`` view of one candidate window."""
    segs = np.empty((num_segments, symbol_len))
    for i in range(num_segments):
        segs[i] = window[i * symbol_stride : i * symbol_stride + symbol_len]
    return segs


def segment_autocorrelation_fast(
    window: np.ndarray, pn_signs, symbol_stride: int, symbol_len: int
) -> float:
    """PN-despread inter-segment correlation of one candidate window.

    The mean pairwise dot product of the sign-flipped, unit-normalised
    symbol segments (0 when a segment is silent), bit-exact against the
    scalar per-segment reference.

    Exploits two IEEE-754 identities to skip per-segment sign
    multiplies: ``norm(s*x) == norm(x)`` and
    ``dot(sa*a, sb*b) == (sa*sb) * dot(a, b)`` for ``s in {-1, +1}``
    (sign flips are exact, and float addition is sign-symmetric).  The
    remaining reductions are the very same ``np.dot`` / element-wise
    division calls the scalar reference issues, in the same order.
    """
    window = np.asarray(window, dtype=float)  # repro: allow[DTYPE001] parity is f64
    signs = list(pn_signs)
    num = len(signs)
    needed = symbol_stride * num
    if window.size < needed:
        raise ValueError(
            f"window too short for autocorrelation: {window.size} < {needed}"
        )
    dot = np.dot
    segs = _segment_matrix(window, num, symbol_stride, symbol_len)
    # math.sqrt and np.sqrt are both correctly-rounded IEEE sqrt, so the
    # norms match np.linalg.norm bit for bit.
    norms = [math.sqrt(dot(seg, seg)) for seg in segs]
    if min(norms) <= 1e-12:
        # Match the scalar early-out: a degenerate segment scores 0.0.
        return 0.0
    unit = segs / np.array(norms)[:, None]
    total = 0.0
    count = 0
    for a in range(num):
        for b in range(a + 1, num):
            total += signs[a] * signs[b] * float(dot(unit[a], unit[b]))
            count += 1
    return total / count


_GEMM_PROBE: Dict[Tuple[int, int], bool] = {}


def _gemm_matches_dot(num_segments: int, symbol_len: int) -> bool:
    """True when batched ``matmul`` reproduces per-pair ``np.dot`` bitwise.

    BLAS ``dgemm`` usually accumulates exactly like ``ddot`` for these
    skinny ``(S, L) @ (L, S)`` products, but that is an implementation
    detail of the BLAS build — so it is *probed once per segment shape*
    on this interpreter, and the scorer falls back to the per-pair
    scalar ops when the probe fails.  Either path is therefore
    bit-identical to the scalar reference on every platform.
    """
    key = (num_segments, symbol_len)
    cached = _GEMM_PROBE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(0xBA7C0)
    W = rng.standard_normal((3, num_segments, symbol_len))
    G = W @ W.transpose(0, 2, 1)
    ok = True
    for k in range(W.shape[0]):
        for a in range(num_segments):
            for b in range(num_segments):
                if G[k, a, b] != np.dot(W[k, a], W[k, b]):
                    ok = False
    if ok:
        idx = np.arange(num_segments)
        norms = np.sqrt(G[:, idx, idx])
        U = W / norms[:, :, None]
        G2 = U @ U.transpose(0, 2, 1)
        for k in range(W.shape[0]):
            for a in range(num_segments):
                for b in range(num_segments):
                    if G2[k, a, b] != np.dot(U[k, a], U[k, b]):
                        ok = False
    _GEMM_PROBE[key] = ok
    return ok


def _gather_windows(
    stream: np.ndarray,
    starts: Sequence[int],
    num_segments: int,
    symbol_stride: int,
    symbol_len: int,
    out: np.ndarray,
) -> None:
    """Gather a ``(len(starts), num_segments, symbol_len)`` segment stack
    into the caller's slab (one fancy-index gather per stream)."""
    offsets = np.asarray(starts, dtype=np.int64)[:, None] + (
        np.arange(num_segments, dtype=np.int64) * symbol_stride
    )
    out[...] = np.lib.stride_tricks.sliding_window_view(stream, symbol_len)[offsets]


def _gemm_gate_scores(W: np.ndarray, signs: Sequence[int]) -> np.ndarray:
    """Batched-GEMM gate scores for a ``(K, segments, symbol_len)`` stack.

    ``matmul`` over a 3-D stack runs one independent GEMM per slice, so
    each candidate's score depends only on its own windows — stacking
    candidates from *many streams* into one call changes nothing per
    candidate (the cross-stream single-GEMM gate relies on this).  The
    slab is the caller's private scratch: it is normalised in place
    (the same IEEE division as ``W / norms``, without a second slab).
    """
    G = W @ W.transpose(0, 2, 1)
    safe, degenerate = _gram_norms(G)
    U = np.divide(W, safe[:, :, None], out=W)
    G2 = U @ U.transpose(0, 2, 1)
    return _signed_pair_mean(G2, signs, degenerate)


def _gram_norms(G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment norms from a ``(K, S, S)`` Gram stack's diagonal.

    Returns ``(safe, degenerate)``: the norms with every degenerate
    (``<= 1e-12``) one replaced by 1.0 so dividing by them is harmless,
    and the per-candidate mask of candidates that must score 0.0.
    """
    idx = np.arange(G.shape[1])
    norms = np.sqrt(G[:, idx, idx])
    degenerate = (norms <= 1e-12).any(axis=1)
    return np.where(norms > 1e-12, norms, 1.0), degenerate


def _signed_pair_mean(Gn: np.ndarray, signs: Sequence[int], degenerate: np.ndarray) -> np.ndarray:
    """Mean PN-signed upper-triangle pair of each normalised Gram.

    An element-wise ``total ± pair`` fold in fixed pair order: each
    candidate's bits depend on its own Gram only, never on the stack
    height (a GEMV over the stacked pairs would not promise that).
    Candidates with a degenerate segment score 0.0.
    """
    num_segments = Gn.shape[1]
    total = np.zeros(Gn.shape[0], dtype=Gn.dtype)
    count = 0
    for a in range(num_segments):
        for b in range(a + 1, num_segments):
            pair = Gn[:, a, b]
            total = total + (pair if signs[a] * signs[b] == 1 else -pair)
            count += 1
    scores = total / count
    scores[degenerate] = 0.0
    return scores


def _strided_gram_scores(
    streams: Sequence[np.ndarray],
    starts_per_stream: Sequence[Sequence[int]],
    signs: Sequence[int],
    symbol_stride: int,
    symbol_len: int,
    dtype: Any,
) -> np.ndarray:
    """Fast-backend gate scores: one strided Gram per candidate, no slab.

    Each stream gets a read-only ``(n, segments, symbol_len)`` view
    whose row ``s`` *is* candidate ``s``'s segment matrix, so a
    candidate costs one ``(S, L) @ (L, S)`` product written straight
    into its slot of a ``(K, S, S)`` Gram stack.  Norms come from the
    Gram's diagonal and the tiny Gram is normalised as ``G / (n nᵀ)``
    instead of the windows.  Mathematically the parity scores; the
    bits differ by a few ulps, so the mean is clipped to [-1, 1].
    Starts must already be validated: ``as_strided`` does no bounds
    checking.
    """
    num_segments = len(signs)
    total = sum(len(starts) for starts in starts_per_stream)
    G = np.empty((total, num_segments, num_segments), dtype=dtype)
    matmul = np.matmul
    pos = 0
    for stream, starts in zip(streams, starts_per_stream):
        if not len(starts):
            continue
        stream = np.ascontiguousarray(stream, dtype=dtype)
        item = stream.itemsize
        V = np.lib.stride_tricks.as_strided(
            stream,
            shape=(stream.size - symbol_stride * num_segments + 1, num_segments, symbol_len),
            strides=(item, symbol_stride * item, item),
            writeable=False,
        )
        for s in starts:
            Wk = V[s]
            matmul(Wk, Wk.T, out=G[pos])
            pos += 1
    safe, degenerate = _gram_norms(G)
    G /= safe[:, :, None] * safe[:, None, :]
    scores = _signed_pair_mean(G, signs, degenerate)
    return np.clip(scores, -1.0, 1.0, out=scores)


def _check_gate_starts(
    streams: Sequence[np.ndarray],
    starts_per_stream: Sequence[Sequence[int]],
    needed: int,
) -> None:
    """Every start must leave a full ``needed``-sample window in its stream."""
    for stream, starts in zip(streams, starts_per_stream):
        if not len(starts):
            continue
        arr = np.asarray(starts, dtype=np.int64)
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi + needed > stream.size:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"gate start {bad} out of range: needs 0 <= start and "
                f"start + {needed} <= {stream.size}"
            )


def segment_autocorrelation_scores_multi(
    streams: Sequence[np.ndarray],
    starts_per_stream: Sequence[Sequence[int]],
    pn_signs,
    symbol_stride: int,
    symbol_len: int,
    force_gemm: bool = False,
) -> List[np.ndarray]:
    """Candidate-gate scores for *all streams of a flush* in one call.

    The parity backends gather every stream's candidate windows into a
    single ``(sum(K_i), segments, symbol_len)`` stack and score it with
    one :func:`_gemm_gate_scores` call, then split the scores back per
    stream.  Because ``matmul`` runs an independent GEMM per slice,
    each candidate's score is bit-identical to the per-stream call's —
    the parity path whenever the :func:`_gemm_matches_dot` probe
    passes; where it does not, the per-candidate scalar reductions
    (exact :func:`segment_autocorrelation_fast`) run instead.

    ``force_gemm`` (the fast backend) skips the probe and the slab:
    :func:`_strided_gram_scores` computes one Gram per candidate from a
    strided view of its stream.  Every path validates the starts up
    front and raises ``ValueError`` for a window that leaves its stream.
    """
    if len(streams) != len(starts_per_stream):
        raise ValueError("streams and starts_per_stream must align")
    signs = list(pn_signs)
    num_segments = len(signs)
    if symbol_len > symbol_stride:
        raise ValueError(f"symbol_len {symbol_len} exceeds symbol_stride {symbol_stride}")
    needed = symbol_stride * num_segments
    streams = [as_float_array(s) for s in streams]
    _check_gate_starts(streams, starts_per_stream, needed)
    dtype = (
        np.result_type(*[s.dtype for s in streams]) if streams else np.float64
    )
    counts = [len(starts) for starts in starts_per_stream]
    total = sum(counts)
    if total == 0:
        return [np.zeros(0, dtype=dtype) for _ in counts]
    if not force_gemm and not _gemm_matches_dot(num_segments, symbol_len):
        out = []
        for stream, starts in zip(streams, starts_per_stream):
            out.append(
                np.array(
                    [
                        segment_autocorrelation_fast(
                            stream[int(s) : int(s) + needed],
                            signs,
                            symbol_stride,
                            symbol_len,
                        )
                        for s in starts
                    ]
                )
            )
        return out
    if force_gemm:
        scores = _strided_gram_scores(
            streams, starts_per_stream, signs, symbol_stride, symbol_len, dtype
        )
    else:
        W = np.empty((total, num_segments, symbol_len), dtype=dtype)
        pos = 0
        for stream, starts in zip(streams, starts_per_stream):
            if not len(starts):
                continue
            _gather_windows(
                stream,
                starts,
                num_segments,
                symbol_stride,
                symbol_len,
                out=W[pos : pos + len(starts)],
            )
            pos += len(starts)
        scores = _gemm_gate_scores(W, signs)
    out = []
    pos = 0
    for k in counts:
        out.append(scores[pos : pos + k])
        pos += k
    return out
