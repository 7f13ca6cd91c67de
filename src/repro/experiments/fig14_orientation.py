"""Fig. 14: effect of phone orientation and of mixed phone models.

(a) Ranging error at 20 m / 2.5 m depth (dock) with the sender rotated
to different azimuth/polar angles; the upward-facing case is worst
because it points at the water surface (strong reflections).
(b) Ranging error for the three phone-model pairs (Pixel+Samsung,
Pixel+OnePlus, Samsung+OnePlus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.environment import DOCK
from repro.devices.models import GOOGLE_PIXEL, ONEPLUS, SAMSUNG_S9
from repro.experiments import engine
from repro.experiments.metrics import ErrorSummary, summarize_errors
from repro.signals.preamble import make_preamble
from repro.simulate.batch_exchange import BatchOneWay
from repro.simulate.waveform_sim import ExchangeConfig

#: Paper: medians range from 0.54 to 1.25 m across orientations.
PAPER_ORIENTATION_MEDIAN_RANGE = (0.54, 1.25)

#: The orientation cases of Fig. 14a: (label, azimuth deg, polar deg)
#: for the sender; polar 90 = horizontal, 0 = facing the surface.
ORIENTATION_CASES = (
    ("facing (az 0)", 0.0, 90.0),
    ("az 90", 90.0, 90.0),
    ("az 180", 180.0, 90.0),
    ("upward", 0.0, 0.0),
)


@dataclass(frozen=True)
class OrientationResult:
    """Error summary for one sender orientation."""

    label: str
    azimuth_deg: float
    polar_deg: float
    summary: ErrorSummary


def run_orientation_sweep(
    rng: np.random.Generator,
    cases: Sequence[Tuple[str, float, float]] = ORIENTATION_CASES,
    num_exchanges: int = 25,
    distance_m: float = 20.0,
    depth_m: float = 2.5,
    backend: str = "batch",
    precision: str = "float64",
) -> List[OrientationResult]:
    """Fig. 14a: error vs sender orientation at 20 m."""
    results = []
    for label, errors in _orientation_errors(
        rng, cases, num_exchanges, distance_m, depth_m, backend,
        precision=precision,
    ):
        case = next(c for c in cases if c[0] == label)
        results.append(
            OrientationResult(
                label=label,
                azimuth_deg=case[1],
                polar_deg=case[2],
                summary=summarize_errors(errors),
            )
        )
    return results


def _orientation_errors(
    rng: np.random.Generator,
    cases: Sequence[Tuple[str, float, float]],
    num_exchanges: int,
    distance_m: float,
    depth_m: float,
    backend: str,
    pipeline: Optional[int] = None,
    precision: str = "float64",
) -> List[Tuple[str, np.ndarray]]:
    engine.check_backend(backend, "fig14", precision=precision)
    preamble = make_preamble()
    out = []
    for label, az_deg, pol_deg in cases:
        # Upward-facing devices sit nearer the surface (paper: worst case
        # partly because the speaker points at the surface).
        case_depth = 1.0 if pol_deg == 0.0 else depth_m
        config = ExchangeConfig(
            environment=DOCK,
            tx_azimuth_rad=np.deg2rad(az_deg),
            tx_polar_rad=np.deg2rad(pol_deg),
        )
        sim = BatchOneWay(
            preamble, backend=backend, pipeline=pipeline, precision=precision
        )
        for _ in range(num_exchanges):
            tx = np.array([0.0, 0.0, case_depth + rng.uniform(-0.1, 0.1)])
            rx = np.array([distance_m, 0.0, depth_m + rng.uniform(-0.1, 0.1)])
            sim.add(tx, rx, config, rng)
        errors = [m.error_m for m in sim.run()]
        out.append((label, np.asarray(errors, dtype=float)))
    return out


@dataclass(frozen=True)
class ModelPairResult:
    """Error summary for one phone-model pair."""

    pair: str
    summary: ErrorSummary


MODEL_PAIRS = (
    ("pixel+samsung", GOOGLE_PIXEL, SAMSUNG_S9),
    ("pixel+oneplus", GOOGLE_PIXEL, ONEPLUS),
    ("samsung+oneplus", SAMSUNG_S9, ONEPLUS),
)


def run_model_pairs(
    rng: np.random.Generator,
    num_exchanges: int = 25,
    distance_m: float = 20.0,
    depth_m: float = 2.5,
    backend: str = "batch",
    precision: str = "float64",
) -> List[ModelPairResult]:
    """Fig. 14b: error across smartphone model pairs."""
    return [
        ModelPairResult(pair=name, summary=summarize_errors(errors))
        for name, errors in _model_pair_errors(
            rng, num_exchanges, distance_m, depth_m, backend,
            precision=precision,
        )
    ]


def _model_pair_errors(
    rng: np.random.Generator,
    num_exchanges: int,
    distance_m: float,
    depth_m: float,
    backend: str,
    pipeline: Optional[int] = None,
    precision: str = "float64",
) -> List[Tuple[str, np.ndarray]]:
    engine.check_backend(backend, "fig14", precision=precision)
    preamble = make_preamble()
    out = []
    for name, tx_model, rx_model in MODEL_PAIRS:
        config = ExchangeConfig(
            environment=DOCK, tx_model=tx_model, rx_model=rx_model
        )
        sim = BatchOneWay(
            preamble, backend=backend, pipeline=pipeline, precision=precision
        )
        for _ in range(num_exchanges):
            tx = np.array([0.0, 0.0, depth_m + rng.uniform(-0.1, 0.1)])
            rx = np.array([distance_m, 0.0, depth_m + rng.uniform(-0.1, 0.1)])
            sim.add(tx, rx, config, rng)
        errors = [m.error_m for m in sim.run()]
        out.append((name, np.asarray(errors, dtype=float)))
    return out


def format_orientation(results: List[OrientationResult]) -> str:
    lo, hi = PAPER_ORIENTATION_MEDIAN_RANGE
    lines = [f"Fig. 14a: orientation -> median error (m) [paper range {lo}-{hi}]"]
    for r in results:
        lines.append(f"  {r.label:>14s} -> {r.summary.median:.2f}")
    return "\n".join(lines)


def format_model_pairs(results: List[ModelPairResult]) -> str:
    lines = ["Fig. 14b: model pair -> median error (m)"]
    for r in results:
        lines.append(f"  {r.pair:>16s} -> {r.summary.median:.2f}")
    return "\n".join(lines)


def _summarize_raw(raw: Dict) -> engine.ExperimentOutput:
    orientation = []
    for label, errors in raw["orientation"]:
        case = next(c for c in ORIENTATION_CASES if c[0] == label)
        orientation.append(
            OrientationResult(
                label=label,
                azimuth_deg=case[1],
                polar_deg=case[2],
                summary=summarize_errors(errors),
            )
        )
    pairs = [
        ModelPairResult(pair=name, summary=summarize_errors(errors))
        for name, errors in raw["pairs"]
    ]
    measured = {
        "orientation_median_m": {r.label: r.summary.median for r in orientation},
        "model_pair_median_m": {r.pair: r.summary.median for r in pairs},
    }
    report = format_orientation(orientation) + "\n" + format_model_pairs(pairs)
    return engine.ExperimentOutput(measured=measured, report=report)


@engine.register(
    name="fig14",
    title="Ranging vs phone orientation and model pairs",
    paper_ref="Fig. 14",
    paper={"orientation_median_range_m": PAPER_ORIENTATION_MEDIAN_RANGE},
    cost="heavy",
    sweepable=("num_exchanges", "backend"),
    summarize=_summarize_raw,
    backends=engine.WAVEFORM_BACKENDS,
)
def campaign(
    rng,
    *,
    scale: float = 1.0,
    num_exchanges: int = 25,
    backend: str = "batch",
    precision: str = "float64",
    pipeline: Optional[int] = None,
    chunk: Optional[Tuple[int, int]] = None,
):
    """Raw errors of the Fig. 14a orientation sweep and the Fig. 14b
    model-pair study."""
    n = engine.chunk_share(engine.scaled(num_exchanges, scale), chunk)
    return {
        "orientation": _orientation_errors(
            rng, ORIENTATION_CASES, n, 20.0, 2.5, backend, pipeline,
            precision=precision,
        ),
        "pairs": _model_pair_errors(
            rng, n, 20.0, 2.5, backend, pipeline, precision=precision
        ),
    }
