"""Fig. 11: 1D ranging accuracy vs device separation (waveform level).

Paper section 3.1: two Samsung S9 phones at the dock, submerged 2.5 m,
separations 10/20/35/45 m, ~60 exchanges per distance. (a) CDF of the
absolute ranging error per distance; (b) 95th-percentile error using
both microphones vs the bottom or top microphone alone.

Both studies run on either waveform backend (``backend="batch"`` is
the default and is bit-identical to the per-exchange oracle in
``tests/legacy_oracles.py``; see ``tests/test_batch_parity.py``), and
the campaign entry supports trial chunking for intra-experiment
parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.environment import DOCK
from repro.constants import DIRECT_PATH_MARGIN
from repro.experiments import engine
from repro.experiments.metrics import ErrorSummary, summarize_errors
from repro.ranging.batch import (
    channel_impulse_response_batch,
    detect_preamble_batch,
    estimate_direct_path_fast,
    ls_channel_estimate_batch,
    single_mic_direct_path_fast,
)
from repro.signals.batchcorr import CachedTemplate
from repro.signals.preamble import make_preamble
from repro.signals.xp import get_context
from repro.simulate.batch_exchange import BatchExchangeRenderer, BatchOneWay
from repro.simulate.waveform_sim import ExchangeConfig

#: Paper-reported median ranging errors (m) by separation.
PAPER_MEDIAN_ERROR_M = {10: 0.48, 20: 0.80, 35: 0.86}

#: Paper-reported 95th percentile improvement at 45 m using both mics.
PAPER_DUAL_MIC_GAIN_45M = 4.52

#: Device separations (m) of both Fig. 11 studies.
DISTANCES_M = (10.0, 20.0, 35.0, 45.0)

#: Taps treated as negative delays by the fine stage (see pairwise.py).
_WRAP_MARGIN = 96


@dataclass(frozen=True)
class RangingSweepResult:
    """Summary per separation distance."""

    distance_m: float
    summary: ErrorSummary


def _sweep_errors(
    rng, distances_m, num_exchanges, depth_m, backend, precision
) -> List[Tuple[float, np.ndarray]]:
    """Raw per-distance ranging errors of the Fig. 11a sweep."""
    engine.check_backend(backend, "fig11", precision=precision)
    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    results = []
    for distance in distances_m:
        sim = BatchOneWay(preamble, backend=backend, precision=precision)
        for _ in range(num_exchanges):
            # Sessions vary slightly in geometry (the paper re-submerged
            # the phones every ~20 measurements).
            depth_tx = depth_m + rng.uniform(-0.2, 0.2)
            depth_rx = depth_m + rng.uniform(-0.2, 0.2)
            tx = np.array([0.0, 0.0, depth_tx])
            rx = np.array([distance + rng.uniform(-0.1, 0.1), 0.0, depth_rx])
            sim.add(tx, rx, config, rng)
        results.append((float(distance), np.asarray([m.error_m for m in sim.run()])))
    return results


@dataclass(frozen=True)
class MicAblationResult:
    """95th-percentile ranging error per microphone configuration."""

    distance_m: float
    p95_both_m: float
    p95_bottom_only_m: float
    p95_top_only_m: float


def _mic_result(distance: float, errs: Dict[str, List[float]]) -> MicAblationResult:
    return MicAblationResult(
        distance_m=float(distance),
        p95_both_m=summarize_errors(errs["both"]).p95,
        p95_bottom_only_m=summarize_errors(errs["bottom"]).p95,
        p95_top_only_m=summarize_errors(errs["top"]).p95,
    )


def _ablation_errors_batch(
    rng, preamble, config, distance, num_exchanges, depth_m, fs, fast=False,
    precision="float64",
) -> Dict[str, List[float]]:
    from repro.constants import MIC_SEPARATION_M

    renderer = BatchExchangeRenderer(preamble, fast=fast, precision=precision)
    for _ in range(num_exchanges):
        tx = np.array([0.0, 0.0, depth_m + rng.uniform(-0.2, 0.2)])
        rx = np.array(
            [distance + rng.uniform(-0.1, 0.1), 0.0, depth_m + rng.uniform(-0.2, 0.2)]
        )
        renderer.add(tx, rx, config, rng)
    receptions = renderer.render()
    sound_speed = DOCK.sound_speed(depth_m)
    template = CachedTemplate(
        preamble.waveform, dtype=get_context(precision).real_dtype
    )
    detections = detect_preamble_batch(
        [r.mic1 for r in receptions],
        preamble,
        [config.detection] * len(receptions),
        template=template,
        fast=fast,
    )
    hit = [i for i, d in enumerate(detections) if d is not None]
    cir1 = cir2 = None
    if hit:
        starts = [detections[i].start_index for i in hit]
        h1 = ls_channel_estimate_batch([receptions[i].mic1 for i in hit], preamble, starts)
        h2 = ls_channel_estimate_batch([receptions[i].mic2 for i in hit], preamble, starts)
        ofdm = preamble.config.ofdm
        cir1 = np.roll(channel_impulse_response_batch(h1, ofdm), _WRAP_MARGIN, axis=-1)
        cir2 = np.roll(channel_impulse_response_batch(h2, ofdm), _WRAP_MARGIN, axis=-1)
    errs: Dict[str, List[float]] = {"both": [], "bottom": [], "top": []}
    row_of = {i: k for k, i in enumerate(hit)}
    for i, reception in enumerate(receptions):
        detection = detections[i]
        if detection is None:
            for key in errs:
                errs[key].append(np.nan)
            continue
        k = row_of[i]
        true_idx = reception.true_arrival
        joint = estimate_direct_path_fast(
            cir1[k],
            cir2[k],
            mic_separation_m=MIC_SEPARATION_M,
            sound_speed=sound_speed,
            sample_rate=fs,
            margin=DIRECT_PATH_MARGIN,
        )
        if joint is not None:
            est = detection.start_index + joint.tap - _WRAP_MARGIN
            errs["both"].append((est - true_idx) / fs * sound_speed)
        else:
            errs["both"].append(np.nan)
        for key, cir in (("bottom", cir1[k]), ("top", cir2[k])):
            tap = single_mic_direct_path_fast(
                cir, margin=DIRECT_PATH_MARGIN, search_limit=512 + _WRAP_MARGIN
            )
            if tap is None:
                errs[key].append(np.nan)
            else:
                est = detection.start_index + tap - _WRAP_MARGIN
                errs[key].append((est - true_idx) / fs * sound_speed)
    return errs


def _ablation_errors(
    rng, distances_m, num_exchanges, depth_m, backend, precision
) -> List[Tuple[float, Dict[str, List[float]]]]:
    """Raw per-distance, per-microphone errors of the Fig. 11b ablation.

    The same received streams go through the joint estimator and the
    single-channel earliest-peak estimator, so the comparison is paired.
    """
    engine.check_backend(backend, "fig11", precision=precision)
    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    fs = preamble.config.ofdm.sample_rate
    return [
        (
            float(distance),
            _ablation_errors_batch(
                rng, preamble, config, distance, num_exchanges, depth_m, fs,
                fast=backend == "fast", precision=precision,
            ),
        )
        for distance in distances_m
    ]


def format_ranging_sweep(results: List[RangingSweepResult]) -> str:
    """Paper-vs-measured table for Fig. 11a."""
    lines = ["Fig. 11a: distance -> median / p95 ranging error (m) [paper median]"]
    for r in results:
        ref = PAPER_MEDIAN_ERROR_M.get(int(r.distance_m))
        ref_str = f"{ref:.2f}" if ref is not None else "-"
        lines.append(
            f"  {r.distance_m:>5.0f} m -> {r.summary.median:.2f} / "
            f"{r.summary.p95:.2f}  [{ref_str}]"
        )
    return "\n".join(lines)


def format_mic_ablation(results: List[MicAblationResult]) -> str:
    """Table for Fig. 11b."""
    lines = ["Fig. 11b: distance -> p95 both / bottom-only / top-only (m)"]
    for r in results:
        lines.append(
            f"  {r.distance_m:>5.0f} m -> {r.p95_both_m:.2f} / "
            f"{r.p95_bottom_only_m:.2f} / {r.p95_top_only_m:.2f}"
        )
    return "\n".join(lines)


def _summarize_raw(raw: Dict) -> engine.ExperimentOutput:
    """Build the campaign output from raw per-trial errors."""
    sweep = [
        RangingSweepResult(distance_m=float(distance), summary=summarize_errors(errors))
        for distance, errors in raw["sweep"]
    ]
    ablation = [_mic_result(distance, errs) for distance, errs in raw["ablation"]]
    measured = {
        "median_by_distance": {int(r.distance_m): r.summary.median for r in sweep},
        "p95_by_distance": {int(r.distance_m): r.summary.p95 for r in sweep},
        "mic_p95": {
            int(r.distance_m): {
                "both": r.p95_both_m,
                "bottom": r.p95_bottom_only_m,
                "top": r.p95_top_only_m,
            }
            for r in ablation
        },
    }
    report = format_ranging_sweep(sweep) + "\n" + format_mic_ablation(ablation)
    return engine.ExperimentOutput(measured=measured, report=report)


@engine.register(
    name="fig11",
    title="1D ranging accuracy vs device separation",
    paper_ref="Fig. 11",
    paper={"median_error_m": PAPER_MEDIAN_ERROR_M,
           "dual_mic_gain_45m_p95": PAPER_DUAL_MIC_GAIN_45M},
    cost="heavy",
    sweepable=("num_exchanges", "backend"),
    summarize=_summarize_raw,
    backends=engine.WAVEFORM_BACKENDS,
)
def campaign(
    rng,
    *,
    scale: float = 1.0,
    num_exchanges: int = 40,
    ablation_exchanges: int = 25,
    backend: str = "batch",
    precision: str = "float64",
    chunk: Optional[Tuple[int, int]] = None,
):
    """Raw errors of the Fig. 11a sweep and the Fig. 11b microphone ablation."""
    n_sweep = engine.chunk_share(engine.scaled(num_exchanges, scale), chunk)
    n_ablation = engine.chunk_share(engine.scaled(ablation_exchanges, scale), chunk)
    return {
        "sweep": _sweep_errors(rng, DISTANCES_M, n_sweep, 2.5, backend, precision),
        "ablation": [
            (distance, {k: np.asarray(v, dtype=float) for k, v in errs.items()})
            for distance, errs in _ablation_errors(
                rng, DISTANCES_M, n_ablation, 2.5, backend, precision
            )
        ],
    }
