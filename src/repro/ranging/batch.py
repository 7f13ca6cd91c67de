"""Batched receiver pipeline: detection, LS estimation, direct-path search.

The paper's receiver (section 2.2), the only one the package runs:
the per-exchange :func:`repro.simulate.one_way_range` is this pipeline
at K = 1.  It is bit-identical to the scalar per-stream chain it was
derived from, which ``tests/scalar_receiver.py`` keeps as the oracle
that ``tests/test_batch_parity.py`` pins it to.  The heavy stages
batch across streams:

* normalised cross-correlation shares cached template/window spectra
  and stacks equal-FFT-length streams into single transforms;
* candidate gating scores *every* stream's shortlisted windows in one
  call per flush: the parity backends stack them into one exact-parity
  GEMM (scalar-reduction fallback where BLAS does not reproduce
  ``ddot`` bitwise); the fast backend computes one strided Gram per
  candidate and never copies the windows;
* LS channel estimation FFTs all detected streams' OFDM symbols in one
  stacked transform and accumulates per-symbol terms in legacy order;
* peak scans are vectorised comparisons instead of per-sample Python.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.constants import NOISE_FLOOR_TAPS
from repro.ranging.detector import Detection, DetectionConfig
from repro.ranging.estimator import DirectPathEstimate
from repro.ranging.pairwise import ArrivalEstimate
from repro.signals.batchcorr import (
    CachedTemplate,
    local_peak_indices_fast,
    normalized_cross_correlation_batch,
    normalized_cross_correlation_fused,
    segment_autocorrelation_scores_multi,
)
from repro.signals.ofdm import band_bins
from repro.signals.peaks import noise_floor
from repro.signals.preamble import Preamble
from repro.signals.xp import (
    as_complex_array,
    as_float_array,
    get_context,
    precision_of,
)


def detect_preamble_batch(
    streams: Sequence[np.ndarray],
    preamble: Preamble,
    configs: Optional[Sequence[Optional[DetectionConfig]]] = None,
    template: Optional[CachedTemplate] = None,
    fast: bool = False,
) -> List[Optional[Detection]]:
    """Find the preamble in each stream (paper section 2.2.1).

    Among candidates passing both gates (normalised cross-correlation,
    then the segment auto-correlation), each stream's detection is the
    *earliest* one whose cross-correlation is within
    ``early_peak_ratio`` of the best accepted score: early significant
    peaks are closer to the direct path than the global maximum (which
    often sits on a strong reflection).  Coarse sync only needs to land
    within the fine stage's search window.

    One NCC pass over all long-enough streams (grouped by transform
    length), one cross-stream candidate-gate call over every stream's
    shortlisted windows (:func:`segment_autocorrelation_scores_multi`),
    then the scalar accept logic per stream on the bit-identical
    correlation arrays and scores.

    ``fast=True`` swaps in the non-parity kernels: fused-normalisation
    NCC over one shared transform length and the strided-Gram candidate
    gate.  Same candidate logic on last-ulp-different scores — the
    statistical contract of the fast backend.
    """
    if configs is None:
        configs = [None] * len(streams)
    tmpl = template or CachedTemplate(preamble.waveform)
    streams = [as_float_array(s) for s in streams]
    eligible = [i for i, s in enumerate(streams) if s.size >= len(preamble)]
    results: List[Optional[Detection]] = [None] * len(streams)
    if not eligible:
        return results
    if fast:
        correlate = normalized_cross_correlation_fused
    else:
        correlate = normalized_cross_correlation_batch
    nccs = correlate([streams[i] for i in eligible], tmpl)
    stride = preamble.config.symbol_stride
    sym_len = preamble.config.ofdm.n_fft
    num_symbols = preamble.config.num_symbols
    signs = preamble.config.pn_signs
    window = stride * num_symbols
    # Shortlist candidates per stream, then score every stream's
    # windows in a single gate call instead of one call per stream.
    pending: List[tuple] = []  # (result row, ncc, config, valid starts)
    for k, i in enumerate(eligible):
        cfg = configs[i] or DetectionConfig()
        stream, ncc = streams[i], nccs[k]
        candidates = local_peak_indices_fast(ncc, cfg.xcorr_threshold)
        if candidates.size == 0:
            continue
        order = np.argsort(ncc[candidates])[::-1][: cfg.max_candidates]
        shortlisted = candidates[order]
        valid = [int(s) for s in shortlisted if int(s) + window <= stream.size]
        pending.append((i, ncc, cfg, valid))
    if not pending:
        return results
    batch_scores = segment_autocorrelation_scores_multi(
        [streams[i] for i, _, _, _ in pending],
        [valid for _, _, _, valid in pending],
        signs,
        stride,
        sym_len,
        force_gemm=fast,
    )
    for (i, ncc, cfg, valid), scores in zip(pending, batch_scores):
        accepted: List[Detection] = []
        for start, score in zip(valid, scores):
            if score >= cfg.autocorr_threshold:
                accepted.append(
                    Detection(
                        start_index=start,
                        xcorr_score=float(ncc[start]),
                        autocorr_score=float(score),
                    )
                )
        if not accepted:
            continue
        best_score = max(det.xcorr_score for det in accepted)
        significant = [
            det
            for det in accepted
            if det.xcorr_score >= cfg.early_peak_ratio * best_score
        ]
        results[i] = min(significant, key=lambda det: det.start_index)
    return results


def ls_channel_estimate_batch(
    streams: Sequence[np.ndarray],
    preamble: Preamble,
    start_indices: Sequence[int],
) -> np.ndarray:
    """Least-squares in-band channel estimates, one row per stream.

    Each row is ``H(k) = (1/4) sum_i Y_i(k) / (PN_i X(k))`` over the
    received OFDM symbols at the stream's start index (paper section
    2.2.1).  Every stream must contain all preamble symbols there
    (guaranteed on mic 1 by detection's window check); a row that does
    not raises ``ValueError``.
    """
    cfg = preamble.config
    n_fft = cfg.ofdm.n_fft
    bins = band_bins(cfg.ofdm)
    streams = [as_float_array(s) for s in streams]
    rows = len(streams)
    dtype = np.result_type(*[s.dtype for s in streams]) if streams else np.float64
    ctx = get_context(precision_of(dtype))
    if rows == 0:
        return np.zeros((0, bins.size), dtype=ctx.complex_dtype)
    symbols = np.empty((rows, cfg.num_symbols, n_fft), dtype=dtype)
    for r, (stream, start) in enumerate(zip(streams, start_indices)):
        for j, sym_start in enumerate(preamble.symbol_starts(int(start))):
            sym_start = int(sym_start)
            if sym_start < 0 or sym_start + n_fft > stream.size:
                raise ValueError(
                    "start_index leaves an incomplete OFDM symbol in stream"
                )
            symbols[r, j] = stream[sym_start : sym_start + n_fft]
    spectra = ctx.fft(symbols, axis=-1)[..., bins]
    base = np.asarray(preamble.base_bins).astype(ctx.complex_dtype, copy=False)
    # Accumulate per-symbol terms sequentially (legacy += order): numpy's
    # pairwise sum over the symbol axis would round differently.
    accum = np.zeros((rows, bins.size), dtype=ctx.complex_dtype)
    for j, sign in enumerate(cfg.pn_signs):
        ref = base if sign == 1 else -base
        accum += spectra[:, j, :] / ref
    return accum / cfg.num_symbols


def channel_impulse_response_batch(
    h_rows: np.ndarray, ofdm, normalize: bool = True
) -> np.ndarray:
    """Magnitude CIRs of in-band estimates, one row each.

    Places each row on the FFT grid (Hermitian-symmetric, zero out of
    band, so the response is band-limited as on the real system),
    inverse transforms, and with ``normalize`` scales each row to peak
    1, as the joint direct-path search expects.
    """
    bins = band_bins(ofdm)
    h = as_complex_array(h_rows)
    if h.ndim != 2 or h.shape[1] != bins.size:
        raise ValueError(f"expected (rows, {bins.size}) in-band values")
    ctx = get_context(precision_of(h.dtype))
    spectrum = np.zeros((h.shape[0], ofdm.n_fft), dtype=h.dtype)
    spectrum[:, bins] = h
    spectrum[:, -bins] = np.conj(h)
    cir = np.abs(ctx.ifft(spectrum, axis=-1))
    if normalize:
        for r in range(cir.shape[0]):
            peak = cir[r].max()
            if peak > 0:
                cir[r] = cir[r] / peak
    return cir


def _peaks_above(h: np.ndarray, floor: float, margin: float, limit: int) -> np.ndarray:
    peaks = local_peak_indices_fast(h, floor + margin)
    return peaks[peaks < limit]


def estimate_direct_path_fast(
    channel1: np.ndarray,
    channel2: np.ndarray,
    mic_separation_m: float,
    sound_speed: float,
    sample_rate: float,
    margin: float,
    search_limit: Optional[int] = None,
) -> Optional[DirectPathEstimate]:
    """Solve the constrained earliest-joint-peak problem.

    ``(n + m) / 2`` over peaks ``n`` of ``channel1`` and ``m`` of
    ``channel2`` above each channel's noise floor plus ``margin``, with
    ``|n - m|`` within the inter-mic travel time, searched below
    ``search_limit`` (default: all but the noise-floor tail).  Returns
    ``None`` when no pair satisfies the constraints.
    """
    h1 = as_float_array(channel1)
    h2 = as_float_array(channel2)
    peak1 = np.max(np.abs(h1))
    peak2 = np.max(np.abs(h2))
    if peak1 <= 0 or peak2 <= 0:
        raise ValueError("channel has no energy")
    h1 = np.abs(h1) / peak1
    h2 = np.abs(h2) / peak2
    if h1.size != h2.size:
        raise ValueError("channel estimates must have equal length")
    w1 = noise_floor(h1, NOISE_FLOOR_TAPS)
    w2 = noise_floor(h2, NOISE_FLOOR_TAPS)
    limit = h1.size - NOISE_FLOOR_TAPS if search_limit is None else search_limit
    limit = max(min(limit, h1.size), 1)
    max_offset = int(np.ceil(mic_separation_m / sound_speed * sample_rate))

    peaks1 = _peaks_above(h1, w1, margin, limit)
    peaks2 = _peaks_above(h2, w2, margin, limit)
    if peaks1.size == 0 or peaks2.size == 0:
        return None
    best: Optional[DirectPathEstimate] = None
    for n in peaks1:
        close = peaks2[np.abs(peaks2 - n) <= max_offset]
        if close.size == 0:
            continue
        m = int(close[np.argmin(np.abs(close - n))])
        tau = (int(n) + m) / 2.0
        if best is None or tau < best.tap:
            best = DirectPathEstimate(tap=tau, tap_mic1=int(n), tap_mic2=m)
    return best


def single_mic_direct_path_fast(
    channel: np.ndarray,
    margin: float,
    search_limit: Optional[int] = None,
) -> Optional[int]:
    """Single-microphone ablation (Fig. 11b): earliest non-negligible peak.

    The naive estimator the dual-mic search is compared against; it is
    fooled by pre-direct-path noise peaks the joint constraint filters
    out.
    """
    h = as_float_array(channel)
    peak = np.max(np.abs(h))
    if peak <= 0:
        raise ValueError("channel has no energy")
    h = np.abs(h) / peak
    w = noise_floor(h, NOISE_FLOOR_TAPS)
    limit = h.size - NOISE_FLOOR_TAPS if search_limit is None else search_limit
    limit = max(min(limit, h.size), 1)
    peaks = _peaks_above(h, w, margin, limit)
    if peaks.size == 0:
        return None
    return int(peaks[0])


class BatchArrivalEstimator:
    """Arrival estimates of many dual-mic receptions at once.

    Detects on mic 1, estimates both mics' channels at that start,
    rotates the CIRs by ``wrap_margin`` (a slightly late coarse sync
    wraps the direct path to the top taps) and runs the joint search.
    Holds the cached preamble template across calls so repeated chunks
    of a sweep reuse every template spectrum.
    """

    def __init__(
        self,
        preamble: Preamble,
        search_window: int = 512,
        wrap_margin: int = 96,
        fast: bool = False,
        precision: str = "float64",
    ):
        from repro.constants import DIRECT_PATH_MARGIN

        ctx = get_context(precision)
        self.preamble = preamble
        self.template = CachedTemplate(preamble.waveform, dtype=ctx.real_dtype)
        self.search_window = search_window
        self.wrap_margin = wrap_margin
        self.margin = DIRECT_PATH_MARGIN
        self.fast = bool(fast)
        self.precision = ctx.precision

    def estimate_many(
        self,
        streams_mic1: Sequence[np.ndarray],
        streams_mic2: Sequence[np.ndarray],
        mic_separations: Sequence[float],
        sound_speeds: Sequence[float],
        detection_configs: Optional[Sequence[Optional[DetectionConfig]]] = None,
    ) -> List[Optional[ArrivalEstimate]]:
        sample_rate = self.preamble.config.ofdm.sample_rate
        detections = detect_preamble_batch(
            streams_mic1, self.preamble, detection_configs, self.template, fast=self.fast
        )
        results: List[Optional[ArrivalEstimate]] = [None] * len(streams_mic1)
        hit_rows = [i for i, d in enumerate(detections) if d is not None]
        if not hit_rows:
            return results
        # A mic-2 row shorter than its mic-1 detection window raises
        # here; rendered receptions cut both mics to one length.
        starts = [detections[i].start_index for i in hit_rows]
        h1 = ls_channel_estimate_batch(
            [streams_mic1[i] for i in hit_rows], self.preamble, starts
        )
        h2 = ls_channel_estimate_batch(
            [streams_mic2[i] for i in hit_rows], self.preamble, starts
        )
        ofdm = self.preamble.config.ofdm
        cir1 = np.roll(channel_impulse_response_batch(h1, ofdm), self.wrap_margin, axis=-1)
        cir2 = np.roll(channel_impulse_response_batch(h2, ofdm), self.wrap_margin, axis=-1)
        for k, i in enumerate(hit_rows):
            detection = detections[i]
            estimate = estimate_direct_path_fast(
                cir1[k],
                cir2[k],
                mic_separation_m=mic_separations[i],
                sound_speed=sound_speeds[i],
                sample_rate=sample_rate,
                margin=self.margin,
                search_limit=self.search_window + self.wrap_margin,
            )
            if estimate is None:
                continue
            unwrapped = DirectPathEstimate(
                tap=estimate.tap - self.wrap_margin,
                tap_mic1=estimate.tap_mic1 - self.wrap_margin,
                tap_mic2=estimate.tap_mic2 - self.wrap_margin,
            )
            results[i] = ArrivalEstimate(
                arrival_index=float(detection.start_index + unwrapped.tap),
                detection=detection,
                direct_path=unwrapped,
                arrival_sign=int(np.sign(unwrapped.tap_mic1 - unwrapped.tap_mic2)),
            )
        return results


def power_threshold_hits(
    stream: np.ndarray,
    thresholds_db: Sequence[float],
    window: int = 256,
    noise_window: int = 4096,
) -> List[Optional[int]]:
    """:func:`repro.ranging.detector.detect_power_threshold` for many
    thresholds at once — the power profile is computed a single time
    (the threshold only enters a comparison, so results are identical
    per threshold).  The power profile follows the stream's working
    dtype (float32 streams convolve at single width); the noise floor
    and dB ratios are scalars/compares either way."""
    x = as_float_array(stream)
    if x.size < noise_window + window:
        return [None] * len(thresholds_db)
    power = np.convolve(x**2, np.ones(window, dtype=x.dtype) / window, mode="valid")
    noise = float(np.mean(power[: noise_window - window + 1]))
    if noise <= 0:
        noise = 1e-12
    ratio_db = 10.0 * np.log10(np.maximum(power, 1e-20) / noise)
    tail = ratio_db[noise_window:]
    out: List[Optional[int]] = []
    for th in thresholds_db:
        hits = np.nonzero(tail > th)[0]
        out.append(int(hits[0] + noise_window) if hits.size else None)
    return out
