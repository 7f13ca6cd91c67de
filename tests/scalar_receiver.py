"""The scalar receiver chain: one exchange, one stream, one Python loop.

Production renders and ranges through the batched engine
(:mod:`repro.simulate.batch_exchange`, :mod:`repro.ranging.batch`);
the public per-exchange call ``one_way_range`` is that engine at K = 1.  This module keeps the
per-exchange implementation the batched engine was derived from, as
the oracle it is pinned to: tap lists rendered one microphone at a
time, the scalar detector, LS channel estimate and dual-mic search
(paper §2.2), and the per-sample peak predicate.

It must never reach the batched engine, or parity would compare the
engine with itself: ``tests/test_batch_parity.py`` checks that its
import closure contains neither :mod:`repro.simulate.batch_exchange`
nor :mod:`repro.ranging.batch`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.multipath import PathTap, image_method_taps
from repro.channel.noise import make_noise
from repro.channel.occlusion import Occlusion
from repro.channel.render import apply_channel
from repro.constants import (
    DIRECT_PATH_MARGIN,
    MIC_SEPARATION_M,
    NOISE_FLOOR_TAPS,
    SAMPLE_RATE,
)
from repro.devices.models import DeviceModel
from repro.ranging.detector import Detection, DetectionConfig
from repro.ranging.estimator import DirectPathEstimate
from repro.ranging.pairwise import ArrivalEstimate
from repro.signals.correlation import normalized_cross_correlation
from repro.signals.ofdm import OfdmConfig, band_bins
from repro.signals.peaks import noise_floor
from repro.signals.preamble import Preamble
from repro.signals.xp import get_context
from repro.simulate.waveform_sim import (
    ExchangeConfig,
    RangingMeasurement,
    _channel_fluctuation,
    _rx_mic_positions,
    directivity_gain_array,
    directivity_tap_gains,
)

# ---------------------------------------------------------------------------
# Peaks and segment auto-correlation
# ---------------------------------------------------------------------------


def is_peak(index: int, values: np.ndarray) -> bool:
    """True if ``values[index]`` is a local maximum.

    Boundary samples count as peaks when they exceed their single
    neighbour; this matches a conservative reading of the paper's
    ``IsPeak`` predicate.
    """
    values = np.asarray(values)
    n = values.size
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for length {n}")
    left_ok = index == 0 or values[index] >= values[index - 1]
    right_ok = index == n - 1 or values[index] >= values[index + 1]
    strict = (index > 0 and values[index] > values[index - 1]) or (
        index < n - 1 and values[index] > values[index + 1]
    )
    return bool(left_ok and right_ok and strict)


def local_peak_indices(values: np.ndarray, min_height: float = 0.0) -> np.ndarray:
    """Indices of all local maxima with value above ``min_height``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.array([], dtype=int)
    candidates = [i for i in range(values.size) if values[i] > min_height and is_peak(i, values)]
    return np.asarray(candidates, dtype=int)


def segment_autocorrelation(
    window: np.ndarray, pn_signs, symbol_stride: int, symbol_len: int
) -> float:
    """PN-despread inter-segment correlation of one candidate window.

    The stream is split into the preamble's symbol segments, each is
    multiplied by its PN sign and normalised, and the result is the
    mean pairwise dot product, in ``[-1, 1]``: close to 1 for a genuine
    preamble, low for noise however spiky (paper §2.2.1).
    """
    window = np.asarray(window, dtype=float)
    signs = list(pn_signs)
    needed = symbol_stride * len(signs)
    if window.size < needed:
        raise ValueError(
            f"window too short for autocorrelation: {window.size} < {needed}"
        )
    segments = []
    for idx, sign in enumerate(signs):
        start = idx * symbol_stride
        seg = sign * window[start : start + symbol_len]
        norm = np.linalg.norm(seg)
        if norm <= 1e-12:
            return 0.0
        segments.append(seg / norm)
    total = 0.0
    count = 0
    for a in range(len(segments)):
        for b in range(a + 1, len(segments)):
            total += float(np.dot(segments[a], segments[b]))
            count += 1
    return total / count


# ---------------------------------------------------------------------------
# Detection, LS channel estimation, direct-path search
# ---------------------------------------------------------------------------


def detect_preamble(
    stream: np.ndarray,
    preamble: Preamble,
    config: DetectionConfig | None = None,
) -> Optional[Detection]:
    """Find the preamble in a microphone stream.

    Among candidates passing both gates, returns the *earliest* one
    whose cross-correlation is within a factor of the best accepted
    score.
    """
    cfg = config or DetectionConfig()
    stream = np.asarray(stream, dtype=float)
    if stream.size < len(preamble):
        return None
    ncc = normalized_cross_correlation(stream, preamble.waveform)
    candidates = local_peak_indices(ncc, min_height=cfg.xcorr_threshold)
    if candidates.size == 0:
        return None
    # Strongest candidates first, cap the list, then verify with the
    # auto-correlation gate and keep the earliest survivor.
    order = np.argsort(ncc[candidates])[::-1][: cfg.max_candidates]
    shortlisted = candidates[order]
    stride = preamble.config.symbol_stride
    sym_len = preamble.config.ofdm.n_fft
    accepted: List[Detection] = []
    for start in shortlisted:
        start = int(start)
        window_end = start + stride * preamble.config.num_symbols
        if window_end > stream.size:
            continue
        score = segment_autocorrelation(
            stream[start:window_end], preamble.config.pn_signs, stride, sym_len
        )
        if score >= cfg.autocorr_threshold:
            accepted.append(
                Detection(
                    start_index=start,
                    xcorr_score=float(ncc[start]),
                    autocorr_score=float(score),
                )
            )
    if not accepted:
        return None
    best_score = max(det.xcorr_score for det in accepted)
    significant = [
        det for det in accepted if det.xcorr_score >= cfg.early_peak_ratio * best_score
    ]
    return min(significant, key=lambda det: det.start_index)


def ls_channel_estimate(
    stream: np.ndarray, preamble: Preamble, start_index: int
) -> np.ndarray:
    """LS estimate ``H(k) = mean_i Y_i(k) / (PN_i X(k))`` over the in-band
    bins, from every complete OFDM symbol at ``start_index``."""
    stream = np.asarray(stream, dtype=float)
    cfg = preamble.config
    n_fft = cfg.ofdm.n_fft
    bins = band_bins(cfg.ofdm)
    accum = np.zeros(len(bins), dtype=complex)
    count = 0
    for sign, sym_start in zip(cfg.pn_signs, preamble.symbol_starts(start_index)):
        sym_start = int(sym_start)
        if sym_start < 0 or sym_start + n_fft > stream.size:
            continue
        symbol = stream[sym_start : sym_start + n_fft]
        spectrum = get_context().fft(symbol)
        accum += spectrum[bins] / (sign * preamble.base_bins)
        count += 1
    if count == 0:
        raise ValueError("start_index leaves no complete OFDM symbol in stream")
    return accum / count


def channel_impulse_response(
    h_freq: np.ndarray, ofdm: OfdmConfig, normalize: bool = True
) -> np.ndarray:
    """Magnitude of the band-limited impulse response of an in-band
    estimate (Hermitian grid, zero out of band), peak-normalised."""
    bins = band_bins(ofdm)
    h = np.asarray(h_freq, dtype=complex)
    if h.shape != bins.shape:
        raise ValueError(f"expected {bins.size} in-band values, got {h.size}")
    spectrum = np.zeros(ofdm.n_fft, dtype=complex)
    spectrum[bins] = h
    spectrum[-bins] = np.conj(h)
    cir = np.abs(get_context().ifft(spectrum))
    if normalize:
        peak = cir.max()
        if peak > 0:
            cir = cir / peak
    return cir


def _normalise(channel: np.ndarray) -> np.ndarray:
    peak = np.max(np.abs(channel))
    if peak <= 0:
        raise ValueError("channel has no energy")
    return np.abs(channel) / peak


def estimate_direct_path(
    channel1: np.ndarray,
    channel2: np.ndarray,
    mic_separation_m: float = MIC_SEPARATION_M,
    sound_speed: float = 1480.0,
    sample_rate: float = SAMPLE_RATE,
    margin: float = DIRECT_PATH_MARGIN,
    search_limit: int | None = None,
) -> Optional[DirectPathEstimate]:
    """Earliest joint peak pair ``(n, m)`` above each channel's noise
    floor plus ``margin`` with ``|n - m|`` within the inter-mic travel
    time; ``None`` when no pair satisfies the constraints."""
    h1 = _normalise(np.asarray(channel1, dtype=float))
    h2 = _normalise(np.asarray(channel2, dtype=float))
    if h1.size != h2.size:
        raise ValueError("channel estimates must have equal length")
    w1 = noise_floor(h1, NOISE_FLOOR_TAPS)
    w2 = noise_floor(h2, NOISE_FLOOR_TAPS)
    limit = h1.size - NOISE_FLOOR_TAPS if search_limit is None else search_limit
    limit = max(min(limit, h1.size), 1)
    max_offset = int(np.ceil(mic_separation_m / sound_speed * sample_rate))

    peaks1 = [p for p in local_peak_indices(h1, min_height=w1 + margin) if p < limit]
    peaks2 = [p for p in local_peak_indices(h2, min_height=w2 + margin) if p < limit]
    if not peaks1 or not peaks2:
        return None
    peaks2_arr = np.asarray(peaks2)

    best: Optional[DirectPathEstimate] = None
    for n in peaks1:
        close = peaks2_arr[np.abs(peaks2_arr - n) <= max_offset]
        if close.size == 0:
            continue
        m = int(close[np.argmin(np.abs(close - n))])
        tau = (n + m) / 2.0
        if best is None or tau < best.tap:
            best = DirectPathEstimate(tap=tau, tap_mic1=int(n), tap_mic2=m)
    return best


def single_mic_direct_path(
    channel: np.ndarray,
    margin: float = DIRECT_PATH_MARGIN,
    search_limit: int | None = None,
) -> Optional[int]:
    """Single-microphone ablation (Fig. 11b): earliest non-negligible peak."""
    h = _normalise(np.asarray(channel, dtype=float))
    w = noise_floor(h, NOISE_FLOOR_TAPS)
    limit = h.size - NOISE_FLOOR_TAPS if search_limit is None else search_limit
    limit = max(min(limit, h.size), 1)
    peaks = [p for p in local_peak_indices(h, min_height=w + margin) if p < limit]
    if not peaks:
        return None
    return int(min(peaks))


def estimate_arrival(
    stream_mic1: np.ndarray,
    stream_mic2: np.ndarray,
    preamble: Preamble,
    mic_separation_m: float = MIC_SEPARATION_M,
    sound_speed: float = 1480.0,
    detection_config: DetectionConfig | None = None,
    search_window: int = 512,
    wrap_margin: int = 96,
) -> Optional[ArrivalEstimate]:
    """Detect on mic 1, LS-estimate both mics at that start, rotate the
    CIRs by ``wrap_margin`` (early coarse sync wraps the direct path to
    the top taps) and run the joint search."""
    sample_rate = preamble.config.ofdm.sample_rate
    detection = detect_preamble(stream_mic1, preamble, detection_config)
    if detection is None:
        return None
    try:
        h1 = ls_channel_estimate(stream_mic1, preamble, detection.start_index)
        h2 = ls_channel_estimate(stream_mic2, preamble, detection.start_index)
    except ValueError:
        return None
    cir1 = channel_impulse_response(h1, preamble.config.ofdm)
    cir2 = channel_impulse_response(h2, preamble.config.ofdm)
    # Rotate so wrapped (negative) delays sit at the start of the array.
    cir1 = np.roll(cir1, wrap_margin)
    cir2 = np.roll(cir2, wrap_margin)
    estimate = estimate_direct_path(
        cir1,
        cir2,
        mic_separation_m=mic_separation_m,
        sound_speed=sound_speed,
        sample_rate=sample_rate,
        search_limit=search_window + wrap_margin,
    )
    if estimate is None:
        return None
    unwrapped = DirectPathEstimate(
        tap=estimate.tap - wrap_margin,
        tap_mic1=estimate.tap_mic1 - wrap_margin,
        tap_mic2=estimate.tap_mic2 - wrap_margin,
    )
    arrival = detection.start_index + unwrapped.tap
    return ArrivalEstimate(
        arrival_index=float(arrival),
        detection=detection,
        direct_path=unwrapped,
        arrival_sign=int(np.sign(unwrapped.tap_mic1 - unwrapped.tap_mic2)),
    )


# ---------------------------------------------------------------------------
# One exchange
# ---------------------------------------------------------------------------


def apply_occlusion(taps: Sequence[PathTap], occlusion: Occlusion) -> List[PathTap]:
    """Return a new tap list with the occlusion applied (the tap-list twin of
    :func:`repro.channel.occlusion.occlusion_gain_array`, same gains bit for bit)."""
    direct_gain = 10.0 ** (-occlusion.direct_attenuation_db / 20.0)
    low_gain = 10.0 ** (-occlusion.low_order_attenuation_db / 20.0)
    out: List[PathTap] = []
    for tap in taps:
        total_bounces = tap.surface_bounces + tap.bottom_bounces
        if tap.is_direct:
            gain = direct_gain
        elif total_bounces == 1:
            gain = low_gain
        else:
            gain = 1.0
        out.append(
            PathTap(
                delay_s=tap.delay_s,
                amplitude=tap.amplitude * gain,
                surface_bounces=tap.surface_bounces,
                bottom_bounces=tap.bottom_bounces,
            )
        )
    return out


def _with_case_multipath(taps: Sequence[PathTap], model: DeviceModel) -> List[PathTap]:
    """Each arrival spawns a trailing reflection inside the waterproof case."""
    out = list(taps)
    for tap in taps:
        out.append(
            PathTap(
                delay_s=tap.delay_s + model.case_multipath_delay_s,
                amplitude=tap.amplitude * model.case_multipath_amp,
                surface_bounces=tap.surface_bounces,
                bottom_bounces=tap.bottom_bounces,
            )
        )
    out.sort(key=lambda t: t.delay_s)
    return out


def _directivity_scaled(
    taps: Sequence[PathTap],
    config: ExchangeConfig,
    tx_pos: np.ndarray,
    rx_pos: np.ndarray,
    water_depth_m: float,
) -> List[PathTap]:
    """Scale taps by speaker directivity at their departure angles."""
    gains = directivity_tap_gains(config, tx_pos, rx_pos, water_depth_m)
    per_tap = directivity_gain_array(
        np.array([t.surface_bounces for t in taps]),
        np.array([t.bottom_bounces for t in taps]),
        gains,
    )
    return [
        PathTap(
            delay_s=tap.delay_s,
            amplitude=tap.amplitude * gain,
            surface_bounces=tap.surface_bounces,
            bottom_bounces=tap.bottom_bounces,
        )
        for tap, gain in zip(taps, per_tap)
    ]


def simulate_reception(
    preamble: Preamble,
    tx_pos,
    rx_pos,
    config: ExchangeConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """Render the two microphone streams of one reception.

    Returns ``(mic1, mic2, guard_samples, true_arrival_index)``.
    """
    env = config.environment
    fs = preamble.config.ofdm.sample_rate
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    # The *actual* session sound speed deviates from the receiver's
    # configured value; the receiver never learns the deviation.
    nominal_speed = env.sound_speed(float((tx[2] + rx[2]) / 2))
    sound_speed = nominal_speed * (
        1.0 + rng.normal(0.0, config.sound_speed_error_std)
    )
    guard = int(config.guard_s * fs)
    mic_positions = _rx_mic_positions(config, rx)

    streams = []
    true_arrival = None
    # One fluctuation realisation per reception, shared by both mics:
    # they are 16 cm apart and see the same eigenrays.
    fluctuation_seed = int(rng.integers(0, 2**32))
    for mic_index, mic_pos in enumerate(mic_positions):
        taps = image_method_taps(
            tx,
            mic_pos,
            env.water_depth_m,
            sound_speed,
            max_order=env.max_image_order,
            surface_coeff=env.surface_coeff,
            bottom_coeff=env.bottom_coeff,
        )
        if config.occlusion is not None:
            taps = apply_occlusion(taps, config.occlusion)
        taps = _directivity_scaled(taps, config, tx, mic_pos, env.water_depth_m)
        if mic_index == 0:
            direct = min(taps, key=lambda t: t.delay_s if t.is_direct else np.inf)
            true_arrival = guard + direct.delay_s * fs
        distance = float(np.linalg.norm(mic_pos - tx))
        taps = _channel_fluctuation(
            taps, distance, np.random.default_rng(fluctuation_seed), sample_rate=fs
        )
        taps = _with_case_multipath(taps, config.rx_model)
        wave = config.amplitude * config.tx_model.source_level * preamble.waveform
        tail = int(0.08 * fs)
        # apply_channel right-sizes the channel FIR internally via the
        # shared fir_length_for contract (parity epoch 2); the output
        # length below is the *stream body* axis, not the FIR size.
        body = apply_channel(
            wave,
            taps,
            fs,
            output_length=len(preamble) + int(max(t.delay_s for t in taps) * fs) + tail,
        )
        stream = np.concatenate([np.zeros(guard), body])
        noise = make_noise(stream.size, env.noise, rng, fs)
        hw_noise = config.rx_model.mic_noise_rms[mic_index] * rng.standard_normal(
            stream.size
        )
        streams.append(stream + noise + hw_noise)
    n = min(s.size for s in streams)
    return streams[0][:n], streams[1][:n], guard, float(true_arrival)


def one_way_range(
    preamble: Preamble,
    tx_pos,
    rx_pos,
    config: ExchangeConfig,
    rng: np.random.Generator,
) -> RangingMeasurement:
    """One transmit-and-detect ranging attempt with a shared timebase."""
    fs = preamble.config.ofdm.sample_rate
    env = config.environment
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    sound_speed = env.sound_speed(float((tx[2] + rx[2]) / 2))
    mic1, mic2, guard, _true_idx = simulate_reception(preamble, tx, rx, config, rng)
    true_distance = float(np.linalg.norm(rx - tx))
    estimate = estimate_arrival(
        mic1,
        mic2,
        preamble,
        mic_separation_m=config.rx_model.mic_separation_m,
        sound_speed=sound_speed,
        detection_config=config.detection,
    )
    if estimate is None:
        return RangingMeasurement(true_distance, float("nan"), detected=False)
    # Distance from tx instant (sample `guard`) to the mic-1 direct path,
    # corrected to the device centre (mic 1 is half a separation off).
    mic1_pos = _rx_mic_positions(config, rx)[0]
    mic1_true = float(np.linalg.norm(mic1_pos - tx))
    est_mic1 = (estimate.arrival_index - guard) / fs * sound_speed
    est_center = est_mic1 + (true_distance - mic1_true)
    return RangingMeasurement(
        true_distance, float(est_center), detected=True, arrival=estimate
    )
