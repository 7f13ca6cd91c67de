"""Fig. 15: 1D ranging of a continuously moving device.

One phone static, one moved back and forth along a path parallel to
the shore at 32 and 56 cm/s, transmitting a preamble every second.
The paper reports median / 95th-percentile 1D errors of 0.51 / 1.17 m
over both trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.environment import DOCK
from repro.experiments import engine
from repro.experiments.metrics import ErrorSummary, summarize_errors
from repro.signals.preamble import make_preamble
from repro.simulate.batch_exchange import BatchOneWay
from repro.simulate.mobility import LinearBackForthTrajectory
from repro.simulate.waveform_sim import ExchangeConfig

#: Paper: combined median / p95 over both speeds.
PAPER_MOTION = {"median": 0.51, "p95": 1.17}


@dataclass(frozen=True)
class MotionRangingResult:
    """Tracking-error summary for one trajectory speed."""

    speed_mps: float
    times_s: np.ndarray
    true_distances_m: np.ndarray
    estimated_distances_m: np.ndarray
    summary: ErrorSummary


def run_motion_tracking(
    rng: np.random.Generator,
    speeds_mps: Sequence[float] = (0.32, 0.56),
    duration_s: float = 60.0,
    interval_s: float = 1.0,
    base_distance_m: float = 10.0,
    amplitude_m: float = 5.0,
    depth_m: float = 1.5,
    backend: str = "batch",
    pipeline: Optional[int] = None,
    time_slice: Optional[Tuple[int, int]] = None,
    precision: str = "float64",
) -> List[MotionRangingResult]:
    """Range once per second while the device sweeps back and forth.

    ``time_slice=(offset, count)`` restricts each trajectory to a
    contiguous run of time steps (used by campaign trial chunking).
    """
    tracks = _motion_tracks(
        rng, speeds_mps, duration_s, interval_s, base_distance_m, amplitude_m,
        depth_m, backend, pipeline, time_slice, precision,
    )
    return [_motion_result(*track) for track in tracks]


def _motion_result(
    speed: float, times: np.ndarray, true_d: np.ndarray, est_d: np.ndarray
) -> MotionRangingResult:
    return MotionRangingResult(
        speed_mps=float(speed),
        times_s=times,
        true_distances_m=true_d,
        estimated_distances_m=est_d,
        summary=summarize_errors(est_d - true_d),
    )


def _motion_tracks(
    rng, speeds_mps, duration_s, interval_s, base_distance_m, amplitude_m,
    depth_m, backend, pipeline, time_slice, precision,
) -> List[Tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """Raw (speed, times, true distances, estimates) per trajectory."""
    engine.check_backend(backend, "fig15", precision=precision)
    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    static = np.array([0.0, 0.0, depth_m])
    results = []
    for speed in speeds_mps:
        trajectory = LinearBackForthTrajectory(
            center=np.array([base_distance_m, 0.0, depth_m]),
            direction=np.array([1.0, 0.0, 0.0]),
            amplitude_m=amplitude_m,
            speed_mps=speed,
        )
        times = np.arange(0.0, duration_s, interval_s)
        if time_slice is not None:
            offset, count = time_slice
            times = times[offset : offset + count]
        sim = BatchOneWay(
            preamble, backend=backend, pipeline=pipeline, precision=precision
        )
        for t in times:
            pos = trajectory.position(float(t))
            sim.add(static, pos, config, rng)
        measurements = sim.run()
        true_arr = np.asarray([m.true_distance_m for m in measurements])
        est_arr = np.asarray([m.estimated_distance_m for m in measurements])
        results.append((float(speed), times, true_arr, est_arr))
    return results


def format_motion(results: List[MotionRangingResult]) -> str:
    lines = ["Fig. 15: speed -> median / p95 1D error (m)"]
    all_errors = []
    for r in results:
        lines.append(
            f"  {r.speed_mps * 100:>4.0f} cm/s -> {r.summary.median:.2f} / "
            f"{r.summary.p95:.2f}"
        )
        all_errors.extend(r.estimated_distances_m - r.true_distances_m)
    combined = summarize_errors(all_errors)
    lines.append(
        f"  combined -> {combined.median:.2f} / {combined.p95:.2f}  "
        f"[paper {PAPER_MOTION['median']:.2f} / {PAPER_MOTION['p95']:.2f}]"
    )
    return "\n".join(lines)


def _summarize_raw(raw: Dict) -> engine.ExperimentOutput:
    results = [_motion_result(*track) for track in raw["tracks"]]
    combined = summarize_errors(
        np.concatenate(
            [r.estimated_distances_m - r.true_distances_m for r in results]
        )
    )
    measured = {
        "by_speed": {
            f"{r.speed_mps:g}": {"median": r.summary.median, "p95": r.summary.p95}
            for r in results
        },
        "combined": {"median": combined.median, "p95": combined.p95},
    }
    return engine.ExperimentOutput(measured=measured, report=format_motion(results))


@engine.register(
    name="fig15",
    title="1D ranging of a continuously moving device",
    paper_ref="Fig. 15",
    paper={"combined": PAPER_MOTION},
    cost="heavy",
    sweepable=("duration_s", "backend"),
    summarize=_summarize_raw,
    backends=engine.WAVEFORM_BACKENDS,
)
def campaign(
    rng,
    *,
    scale: float = 1.0,
    duration_s: float = 60.0,
    backend: str = "batch",
    precision: str = "float64",
    pipeline: Optional[int] = None,
    chunk: Optional[Tuple[int, int]] = None,
):
    """Raw tracks of both trajectory speeds, once per second for the
    scaled duration."""
    duration = max(4.0, duration_s * scale)
    time_slice = None
    if chunk is not None:
        steps = np.arange(0.0, duration, 1.0).size
        time_slice = (
            engine.chunk_offset(steps, chunk),
            engine.chunk_share(steps, chunk),
        )
    tracks = _motion_tracks(
        rng,
        speeds_mps=(0.32, 0.56),
        duration_s=duration,
        interval_s=1.0,
        base_distance_m=10.0,
        amplitude_m=5.0,
        depth_m=1.5,
        backend=backend,
        pipeline=pipeline,
        time_slice=time_slice,
        precision=precision,
    )
    return {"tracks": tracks}
