"""Fig. 13: effect of device depth, and depth-sensor accuracy.

(a) Ranging-error CDFs with both devices at 2/5/8 m depth, 18 m apart,
at the dock (total depth 9 m): errors are lowest mid-column (5 m)
because multipath is strongest near the surface and the bottom.
(b) Measured vs reference depth for the smartwatch depth gauge and the
phone pressure sensor, 0-9 m in 1 m steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.environment import DOCK
from repro.devices.sensors import phone_pressure_sensor, smartwatch_depth_gauge
from repro.experiments import engine
from repro.experiments.metrics import ErrorSummary, summarize_errors
from repro.signals.preamble import make_preamble
from repro.simulate.batch_exchange import BatchOneWay
from repro.simulate.waveform_sim import ExchangeConfig

#: Paper: median / p95 at the best depth (5 m).
PAPER_BEST_DEPTH = {"depth_m": 5.0, "median": 0.28, "p95": 0.73}

#: Paper: average absolute depth error (mean +/- std), per sensor.
PAPER_DEPTH_SENSORS = {
    "smartwatch_depth_gauge": (0.15, 0.11),
    "phone_pressure_sensor": (0.42, 0.18),
}


@dataclass(frozen=True)
class DepthRangingResult:
    """Ranging-error summary at one device depth."""

    depth_m: float
    summary: ErrorSummary


def _depth_errors(
    rng, depths_m, num_exchanges, separation_m, backend, precision
) -> List[Tuple[float, np.ndarray]]:
    """Raw per-depth ranging errors of the Fig. 13a sweep."""
    engine.check_backend(backend, "fig13", precision=precision)
    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    results = []
    for depth in depths_m:
        sim = BatchOneWay(preamble, backend=backend, precision=precision)
        for _ in range(num_exchanges):
            # The rope lets the phone sway slightly (paper setup).
            tx = np.array([0.0, 0.0, depth + rng.uniform(-0.15, 0.15)])
            rx = np.array(
                [separation_m + rng.uniform(-0.2, 0.2), 0.0, depth + rng.uniform(-0.15, 0.15)]
            )
            tx[2] = np.clip(tx[2], 0.2, DOCK.water_depth_m - 0.2)
            rx[2] = np.clip(rx[2], 0.2, DOCK.water_depth_m - 0.2)
            sim.add(tx, rx, config, rng)
        results.append((float(depth), np.asarray([m.error_m for m in sim.run()])))
    return results


@dataclass(frozen=True)
class DepthSensorResult:
    """Depth-sensor accuracy summary.

    ``mean_abs_error_m`` / ``std_abs_error_m`` mirror the paper's
    "0.15 +/- 0.11 m" reporting.
    """

    sensor: str
    mean_abs_error_m: float
    std_abs_error_m: float


def _sensor_result(
    name: str, references: np.ndarray, readings: List[List[float]]
) -> DepthSensorResult:
    abs_errors: List[float] = []
    for ref, values in zip(references, readings):
        abs_errors.extend(np.abs(np.asarray(values) - ref))
    abs_arr = np.asarray(abs_errors)
    return DepthSensorResult(
        sensor=name,
        mean_abs_error_m=float(np.mean(abs_arr)),
        std_abs_error_m=float(np.std(abs_arr)),
    )


def _sensor_readings(
    rng: np.random.Generator, max_depth_m: float, readings_per_depth: int
) -> Tuple[np.ndarray, List[Tuple[str, List[List[float]]]]]:
    """Fig. 13b: reference depths in 1 m steps and each sensor's raw
    readings at every one, smartwatch gauge then phone pressure sensor."""
    references = np.arange(0.0, max_depth_m + 0.5, 1.0)
    sensors = [
        (
            sensor.name,
            [
                [float(v) for v in sensor.measure_many(float(ref), readings_per_depth, rng)]
                for ref in references
            ],
        )
        for sensor in (smartwatch_depth_gauge(), phone_pressure_sensor())
    ]
    return references, sensors


def format_depth_sweep(results: List[DepthRangingResult]) -> str:
    lines = ["Fig. 13a: depth -> median / p95 ranging error (m)"]
    for r in results:
        lines.append(
            f"  {r.depth_m:>4.0f} m -> {r.summary.median:.2f} / {r.summary.p95:.2f}"
        )
    best = PAPER_BEST_DEPTH
    lines.append(
        f"  [paper: best at {best['depth_m']:.0f} m with "
        f"{best['median']:.2f} / {best['p95']:.2f}]"
    )
    return "\n".join(lines)


def format_depth_sensors(results: List[DepthSensorResult]) -> str:
    lines = ["Fig. 13b: sensor -> mean|err| +/- std (m) [paper]"]
    for r in results:
        ref = PAPER_DEPTH_SENSORS.get(r.sensor)
        ref_str = f"{ref[0]:.2f}±{ref[1]:.2f}" if ref else "-"
        lines.append(
            f"  {r.sensor:>26s} -> {r.mean_abs_error_m:.2f}±{r.std_abs_error_m:.2f}"
            f"  [{ref_str}]"
        )
    return "\n".join(lines)


def _summarize_raw(raw: Dict) -> engine.ExperimentOutput:
    sweep = [
        DepthRangingResult(depth_m=float(depth), summary=summarize_errors(errors))
        for depth, errors in raw["ranging"]
    ]
    references = np.asarray(raw["references"])
    sensors = [
        _sensor_result(name, references, readings)
        for name, readings in raw["sensors"]
    ]
    measured = {
        "ranging_by_depth": {
            int(r.depth_m): {"median": r.summary.median, "p95": r.summary.p95}
            for r in sweep
        },
        "sensors": {
            r.sensor: {"mean_abs_m": r.mean_abs_error_m, "std_abs_m": r.std_abs_error_m}
            for r in sensors
        },
    }
    report = format_depth_sweep(sweep) + "\n" + format_depth_sensors(sensors)
    return engine.ExperimentOutput(measured=measured, report=report)


@engine.register(
    name="fig13",
    title="Ranging vs device depth, and depth-sensor accuracy",
    paper_ref="Fig. 13",
    paper={"best_depth": PAPER_BEST_DEPTH, "sensors": PAPER_DEPTH_SENSORS},
    cost="heavy",
    sweepable=("num_exchanges", "backend"),
    summarize=_summarize_raw,
    backends=engine.WAVEFORM_BACKENDS,
)
def campaign(
    rng,
    *,
    scale: float = 1.0,
    num_exchanges: int = 30,
    readings_per_depth: int = 30,
    backend: str = "batch",
    precision: str = "float64",
    chunk: Optional[Tuple[int, int]] = None,
):
    """Raw errors of the Fig. 13a depth sweep and readings of the
    Fig. 13b sensor comparison."""
    ranging = _depth_errors(
        rng,
        (2.0, 5.0, 8.0),
        engine.chunk_share(engine.scaled(num_exchanges, scale), chunk),
        18.0,
        backend,
        precision,
    )
    references, sensors = _sensor_readings(
        rng, 9.0, engine.chunk_share(engine.scaled(readings_per_depth, scale), chunk)
    )
    return {
        "ranging": ranging,
        "references": [float(v) for v in references],
        "sensors": [
            (name, np.asarray(readings, dtype=float)) for name, readings in sensors
        ],
    }
