"""Fig. 12: comparison against BeepBeep and CAT (FMCW).

(a) Signal-detection robustness: false-positive / false-negative rates
of our cross+auto-correlation detector vs the window-power FMCW
detector across power thresholds, with preambles transmitted through
the boathouse channel (spiky noise) plus noise-only trials.
(b) 1D ranging error at 10/20/28 m for our dual-mic pipeline,
BeepBeep's correlation peak, and CAT's FMCW dechirp.

``backend="batch"`` renders/detects our pipeline batch-wise and
evaluates the power-threshold sweep off a single power profile per
stream (the threshold only enters a comparison); results are
bit-identical to the per-stream oracle in ``tests/legacy_oracles.py``.
The baselines keep their per-trial evaluation — they already share
the batch-rendered channel randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.environment import BOATHOUSE
from repro.channel.noise import make_noise, spiky_noise, synth_noise_rows
from repro.channel.render import CachedWaveform, apply_channel_batch, fir_length_for
from repro.experiments import engine
from repro.experiments.metrics import ErrorSummary, summarize_errors
from repro.ranging.baselines import (
    CAT_POWER_THRESHOLD_DB,
    beepbeep_arrival,
    beepbeep_pick,
    cat_fmcw_delay,
)
from repro.ranging.batch import detect_preamble_batch, power_threshold_hits
from repro.ranging.detector import DetectionConfig, detect_power_threshold
from repro.signals.batchcorr import (
    CachedTemplate,
    fft_workers,
    normalized_cross_correlation_fused,
)
from repro.signals.chirp import linear_chirp
from repro.signals.fmcw import FmcwConfig
from repro.signals.preamble import make_preamble
from repro.signals.xp import get_context
from repro.simulate.batch_exchange import (
    BatchExchangeRenderer,
    BatchOneWay,
    spawn_substream,
)
from repro.simulate.waveform_sim import ExchangeConfig

#: Paper-reported mean 1D errors (m), read off Fig. 12b.
PAPER_FIG12B = {
    "ours": {10: 0.25, 20: 0.4, 28: 0.5},
    "beepbeep": {10: 0.6, 20: 1.0, 28: 1.3},
    "cat": {10: 0.9, 20: 1.4, 28: 1.9},
}


@dataclass(frozen=True)
class DetectionRates:
    """FP/FN rates of one detector at one threshold."""

    detector: str
    threshold_db: float
    false_positive: float
    false_negative: float


def _detection_counts(
    rng: np.random.Generator,
    thresholds_db: Sequence[float],
    num_trials: int,
    distance_m: float,
    backend: str,
    precision: str = "float64",
) -> Dict[str, object]:
    """Raw FP/FN counts for both detectors (chunk-mergeable)."""
    engine.check_backend(backend, "fig12", precision=precision)
    fast = backend == "fast"
    preamble = make_preamble()
    fs = preamble.config.ofdm.sample_rate
    config = ExchangeConfig(environment=BOATHOUSE)
    tol = int(0.05 * fs)

    # Pre-render signal-present and noise-only streams (shared across
    # thresholds so the comparison is paired).
    renderer = BatchExchangeRenderer(preamble, fast=fast, precision=precision)
    for _ in range(num_trials):
        tx = np.array([0.0, 0.0, 1.0 + rng.uniform(-0.2, 0.2)])
        rx = np.array([distance_m, 0.0, 1.0 + rng.uniform(-0.2, 0.2)])
        renderer.add(tx, rx, config, rng)
    present = [(r.mic1, r.true_arrival) for r in renderer.render()]
    if fast:
        noise_rng = spawn_substream(rng)
        length = int(0.6 * fs)
        rows = synth_noise_rows(
            [length] * num_trials,
            [BOATHOUSE.noise.ambient_rms] * num_trials,
            [0.0] * num_trials,
            noise_rng,
            fs,
            workers=fft_workers(),
            precision=precision,
        )
        absent = [
            rows[i]
            + spiky_noise(length, BOATHOUSE.noise, noise_rng, fs).astype(
                rows.dtype, copy=False
            )
            for i in range(num_trials)
        ]
    else:
        absent = [
            make_noise(int(0.6 * fs), BOATHOUSE.noise, rng, fs)
            for _ in range(num_trials)
        ]

    n_present = len(present)
    detections = detect_preamble_batch(
        [stream for stream, _ in present] + absent,
        preamble,
        [DetectionConfig()] * (n_present + len(absent)),
        template=CachedTemplate(
            preamble.waveform, dtype=get_context(precision).real_dtype
        ),
        fast=fast,
    )
    ours_fn = sum(
        1
        for (stream, true_idx), det in zip(present, detections[:n_present])
        if det is None or abs(det.start_index - true_idx) > tol
    )
    ours_fp = sum(1 for det in detections[n_present:] if det is not None)
    fmcw_fn = {float(th): 0 for th in thresholds_db}
    fmcw_fp = {float(th): 0 for th in thresholds_db}
    for stream, true_idx in present:
        for th, hit in zip(thresholds_db, power_threshold_hits(stream, thresholds_db)):
            if hit is None or abs(hit - true_idx) > tol:
                fmcw_fn[float(th)] += 1
    for stream in absent:
        for th, hit in zip(thresholds_db, power_threshold_hits(stream, thresholds_db)):
            if hit is not None:
                fmcw_fp[float(th)] += 1
    return {
        "num_trials": num_trials,
        "thresholds_db": [float(th) for th in thresholds_db],
        "ours_fp": ours_fp,
        "ours_fn": ours_fn,
        "fmcw_fp": fmcw_fp,
        "fmcw_fn": fmcw_fn,
    }


def _rates_from_counts(counts: Dict) -> List[DetectionRates]:
    num_trials = counts["num_trials"]
    results: List[DetectionRates] = []
    for th in counts["thresholds_db"]:
        results.append(
            DetectionRates(
                "ours",
                float(th),
                counts["ours_fp"] / num_trials,
                counts["ours_fn"] / num_trials,
            )
        )
        results.append(
            DetectionRates(
                "fmcw",
                float(th),
                counts["fmcw_fp"][th] / num_trials,
                counts["fmcw_fn"][th] / num_trials,
            )
        )
    return results


def run_detection_comparison(
    rng: np.random.Generator,
    thresholds_db: Sequence[float] = (3.0, 6.0, 10.0, 15.0, 20.0),
    num_trials: int = 40,
    distance_m: float = 20.0,
    backend: str = "batch",
    precision: str = "float64",
) -> List[DetectionRates]:
    """Fig. 12a: detection FP/FN, ours vs window-power threshold.

    FN: preamble transmitted but not detected (or detected >50 ms off).
    FP: detection fired on a noise-only stream.  Our detector has no dB
    threshold; its row repeats (constant) across the sweep.
    """
    return _rates_from_counts(
        _detection_counts(
            rng, thresholds_db, num_trials, distance_m, backend, precision
        )
    )


@dataclass(frozen=True)
class BaselineRangingResult:
    """Per-algorithm error summary at one distance."""

    algorithm: str
    distance_m: float
    summary: ErrorSummary


def _baseline_errors(
    rng: np.random.Generator,
    distances_m: Sequence[float],
    num_exchanges: int,
    depth_m: float,
    backend: str,
    pipeline: Optional[int] = None,
    precision: str = "float64",
) -> Dict[str, List[Tuple[float, np.ndarray]]]:
    """Raw per-algorithm, per-distance errors (chunk-mergeable)."""
    engine.check_backend(backend, "fig12", precision=precision)
    preamble = make_preamble()
    fs = preamble.config.ofdm.sample_rate
    duration_s = len(preamble) / fs
    chirp = linear_chirp(duration_s, 1_000.0, 5_000.0, fs)
    fmcw_cfg = FmcwConfig(duration_s=duration_s)
    config = ExchangeConfig(environment=BOATHOUSE)

    errors: Dict[str, Dict[float, List[float]]] = {
        name: {d: [] for d in distances_m} for name in ("ours", "beepbeep", "cat")
    }
    from repro.channel.multipath import image_method_taps
    from repro.channel.render import apply_channel
    from repro.simulate.waveform_sim import _channel_fluctuation

    # Guard long enough that the power detector's noise window (first
    # ~4k samples) sees only noise; tail leaves room for the dechirp.
    guard = int(0.12 * fs)
    tail = fmcw_cfg.num_samples
    margin = 2_048
    fast = backend == "fast"
    real_dtype = get_context(precision).real_dtype
    chirp_wave = CachedWaveform(chirp, dtype=real_dtype) if fast else None
    chirp_template = CachedTemplate(chirp, dtype=real_dtype) if fast else None

    for distance in distances_m:
        sim = BatchOneWay(
            preamble, backend=backend, pipeline=pipeline, precision=precision
        )
        noise_rng = spawn_substream(rng) if fast else None
        trial_taps = []
        trial_true = []
        nominal_speed = BOATHOUSE.sound_speed(depth_m)
        for _ in range(num_exchanges):
            tx = np.array([0.0, 0.0, depth_m + rng.uniform(-0.1, 0.1)])
            rx = np.array([distance, 0.0, depth_m + rng.uniform(-0.1, 0.1)])
            true_d = float(np.linalg.norm(rx - tx))

            # Ours: the standard pipeline.
            sim.add(tx, rx, config, rng)

            # Baselines ride the same channel realism: per-exchange tap
            # fluctuation and the same sound-speed uncertainty (receivers
            # convert with the nominal speed).
            actual_speed = nominal_speed * (
                1.0 + rng.normal(0.0, config.sound_speed_error_std)
            )
            taps = image_method_taps(
                tx,
                rx,
                BOATHOUSE.water_depth_m,
                actual_speed,
                max_order=BOATHOUSE.max_image_order,
                surface_coeff=BOATHOUSE.surface_coeff,
                bottom_coeff=BOATHOUSE.bottom_coeff,
            )
            taps = _channel_fluctuation(taps, true_d, rng, sample_rate=fs)
            if fast:
                # Defer to the batched baseline pipeline below.
                trial_taps.append(taps)
                trial_true.append(true_d)
                continue
            for name, wave in (("beepbeep", chirp), ("cat", chirp)):
                body = apply_channel(wave, taps, fs)
                stream = np.concatenate([np.zeros(guard), body, np.zeros(tail)])
                stream = stream + make_noise(stream.size, BOATHOUSE.noise, rng, fs)
                if name == "beepbeep":
                    arrival = beepbeep_arrival(stream, chirp)
                    if arrival is None:
                        errors[name][distance].append(np.nan)
                    else:
                        est = (arrival - guard) / fs * nominal_speed
                        errors[name][distance].append(est - true_d)
                else:
                    coarse = detect_power_threshold(
                        stream, threshold_db=CAT_POWER_THRESHOLD_DB
                    )
                    if coarse is None:
                        errors[name][distance].append(np.nan)
                        continue
                    delay = cat_fmcw_delay(stream, coarse, fmcw_cfg, margin_samples=margin)
                    if delay is None:
                        errors[name][distance].append(np.nan)
                    else:
                        anchor = max(coarse - margin, 0)
                        est = ((anchor - guard) / fs + delay) * nominal_speed
                        errors[name][distance].append(est - true_d)
        if fast and trial_taps:
            beep, cat = _fast_baseline_trials(
                trial_taps,
                chirp_wave,
                chirp_template,
                fmcw_cfg,
                noise_rng,
                fs,
                guard,
                tail,
                margin,
                precision=precision,
            )
            for true_d, arrival, cat_est in zip(trial_true, beep, cat):
                errors["beepbeep"][distance].append(
                    np.nan
                    if arrival is None
                    else (arrival - guard) / fs * nominal_speed - true_d
                )
                errors["cat"][distance].append(
                    np.nan if cat_est is None else cat_est * nominal_speed - true_d
                )
        errors["ours"][distance] = [m.error_m for m in sim.run()]

    return {
        name: [
            (float(d), np.asarray(errs, dtype=float))
            for d, errs in by_distance.items()
        ]
        for name, by_distance in errors.items()
    }


def _fast_baseline_trials(
    trial_taps,
    chirp_wave: CachedWaveform,
    chirp_template: CachedTemplate,
    fmcw_cfg: FmcwConfig,
    noise_rng: np.random.Generator,
    fs: float,
    guard: int,
    tail: int,
    margin: int,
    precision: str = "float64",
) -> Tuple[List[Optional[int]], List[Optional[float]]]:
    """Batched BeepBeep/CAT evaluation of one distance's trials.

    Fast-mode counterpart of the per-trial baseline loop: the shared
    chirp body is convolved once per trial in one grouped transform
    (the per-trial loop computes the identical body twice, once per
    baseline), the per-baseline noise is synthesised frequency-domain
    from the dedicated substream, and the BeepBeep chirp correlations
    run as one fused-NCC batch.  CAT keeps its per-trial dechirp (one
    small FFT).

    Returns (BeepBeep arrival index | None, CAT delay-from-guard in
    seconds | None) per trial.
    """
    workers = fft_workers()
    positions = []
    amplitudes = []
    fir_lengths = []
    output_lengths = []
    for taps in trial_taps:
        delays = np.array([t.delay_s for t in taps])
        amps = np.array([t.amplitude for t in taps])
        fir_len = fir_length_for(float(delays.max()), fs)
        positions.append(delays * fs)
        amplitudes.append(amps)
        fir_lengths.append(fir_len)
        output_lengths.append(chirp_wave.size + fir_len)
    bodies = apply_channel_batch(
        chirp_wave,
        list(zip(positions, amplitudes)),
        fir_lengths,
        output_lengths,
        shared_length=True,
        workers=workers,
    )
    # Two independent noise realisations per trial (BeepBeep, then CAT),
    # matching the per-trial loop's separate streams.
    lengths = [guard + body.size + tail for body in bodies]
    ambient = BOATHOUSE.noise.ambient_rms
    noise = synth_noise_rows(
        [n for n in lengths for _ in range(2)],
        [ambient] * (2 * len(bodies)),
        [0.0] * (2 * len(bodies)),
        noise_rng,
        fs,
        workers=workers,
        precision=precision,
    )
    beep_streams = []
    cat_streams = []
    for i, body in enumerate(bodies):
        n = lengths[i]
        for j, sink in enumerate((beep_streams, cat_streams)):
            stream = noise[2 * i + j, :n].copy()
            stream += spiky_noise(n, BOATHOUSE.noise, noise_rng, fs)
            stream[guard : guard + body.size] += body
            sink.append(stream)

    beep: List[Optional[int]] = [
        beepbeep_pick(ncc)
        for ncc in normalized_cross_correlation_fused(
            beep_streams, chirp_template, workers=workers
        )
    ]

    cat: List[Optional[float]] = []
    for stream in cat_streams:
        coarse = power_threshold_hits(stream, (CAT_POWER_THRESHOLD_DB,))[0]
        if coarse is None:
            cat.append(None)
            continue
        delay = cat_fmcw_delay(stream, coarse, fmcw_cfg, margin_samples=margin)
        if delay is None:
            cat.append(None)
        else:
            anchor = max(coarse - margin, 0)
            cat.append((anchor - guard) / fs + delay)
    return beep, cat


def run_baseline_ranging(
    rng: np.random.Generator,
    distances_m: Sequence[float] = (10.0, 20.0, 28.0),
    num_exchanges: int = 30,
    depth_m: float = 1.0,
    backend: str = "batch",
    precision: str = "float64",
) -> List[BaselineRangingResult]:
    """Fig. 12b: 1D ranging error, ours vs BeepBeep vs CAT.

    All three signals share duration and bandwidth (the paper's "fair
    comparison" control).
    """
    raw = _baseline_errors(
        rng, distances_m, num_exchanges, depth_m, backend, precision=precision
    )
    out = []
    for name, by_distance in raw.items():
        for distance, errs in by_distance:
            out.append(
                BaselineRangingResult(
                    algorithm=name,
                    distance_m=float(distance),
                    summary=summarize_errors(errs),
                )
            )
    return out


def format_detection(results: List[DetectionRates]) -> str:
    lines = ["Fig. 12a: detector @ threshold -> FP / FN rate"]
    for r in results:
        lines.append(
            f"  {r.detector:>8s} @ {r.threshold_db:>4.0f} dB -> "
            f"{r.false_positive:.2f} / {r.false_negative:.2f}"
        )
    return "\n".join(lines)


def format_baseline_ranging(results: List[BaselineRangingResult]) -> str:
    lines = ["Fig. 12b: algorithm @ distance -> mean|err| (m) [paper]"]
    for r in sorted(results, key=lambda x: (x.algorithm, x.distance_m)):
        ref = PAPER_FIG12B.get(r.algorithm, {}).get(int(r.distance_m))
        ref_str = f"{ref:.2f}" if ref is not None else "-"
        lines.append(
            f"  {r.algorithm:>8s} @ {r.distance_m:>4.0f} m -> "
            f"{r.summary.mean:.2f}  [{ref_str}]"
        )
    return "\n".join(lines)


def _summarize_raw(raw: Dict) -> engine.ExperimentOutput:
    detection = _rates_from_counts(raw["detection"])
    ranging = [
        BaselineRangingResult(
            algorithm=name,
            distance_m=float(distance),
            summary=summarize_errors(errs),
        )
        for name, by_distance in raw["ranging"].items()
        for distance, errs in by_distance
    ]
    measured = {
        "detection": {
            f"{r.detector}@{r.threshold_db:g}dB": {
                "false_positive": r.false_positive,
                "false_negative": r.false_negative,
            }
            for r in detection
        },
        "mean_error_m": {},
        "median_error_m": {},
    }
    for r in ranging:
        measured["mean_error_m"].setdefault(r.algorithm, {})[
            int(r.distance_m)
        ] = r.summary.mean
        # The median rides outliers far better than the mean on the
        # spiky boathouse channel; it is the quantile the fast-mode
        # equivalence contract gates (see fast_contract.TOLERANCES).
        measured["median_error_m"].setdefault(r.algorithm, {})[
            int(r.distance_m)
        ] = r.summary.median
    report = format_detection(detection) + "\n" + format_baseline_ranging(ranging)
    return engine.ExperimentOutput(measured=measured, report=report)


@engine.register(
    name="fig12",
    title="Detection and ranging vs BeepBeep and CAT",
    paper_ref="Fig. 12",
    paper={"mean_error_m": PAPER_FIG12B},
    cost="heavy",
    sweepable=("num_trials", "num_exchanges", "backend"),
    summarize=_summarize_raw,
    backends=engine.WAVEFORM_BACKENDS,
)
def campaign(
    rng,
    *,
    scale: float = 1.0,
    num_trials: int = 40,
    num_exchanges: int = 25,
    backend: str = "batch",
    precision: str = "float64",
    pipeline: Optional[int] = None,
    chunk: Optional[Tuple[int, int]] = None,
):
    """Raw counts of the Fig. 12a detector comparison and errors of the
    Fig. 12b baseline ranging."""
    detection = _detection_counts(
        rng,
        (3.0, 6.0, 10.0, 15.0, 20.0),
        engine.chunk_share(engine.scaled(num_trials, scale), chunk),
        20.0,
        backend,
        precision,
    )
    ranging = _baseline_errors(
        rng,
        (10.0, 20.0, 28.0),
        engine.chunk_share(engine.scaled(num_exchanges, scale), chunk),
        1.0,
        backend,
        pipeline,
        precision=precision,
    )
    return {"detection": detection, "ranging": ranging}
