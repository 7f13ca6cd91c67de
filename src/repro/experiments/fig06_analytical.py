"""Fig. 6: analytical evaluation of the topology-based algorithm.

Paper section 2.1.5: N devices in a 60 x 60 x 10 m volume, uniform
measurement errors ``[-eps, +eps]`` on pairwise distances, height and
pointing angle; 200 random samples per configuration; mean 2D error
over all divers excluding the leader. Four sweeps:

(a) error vs pairwise-distance error (N=6, eps_h=0.4 m, eps_theta=0),
(b) error vs number of users (eps_1d=0.8 m),
(c) error vs pointing error (N=6, eps_1d=0.8 m),
(d) error vs number of dropped links (N=6, eps_1d=0.8 m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments import engine
from repro.geometry.topology import (
    drop_links,
    full_weight_matrix,
    pairwise_distance_matrix,
    random_scenario_positions,
)
from repro.geometry.transforms import angle_of
from repro.localization.ambiguity import mic_arrival_sign
from repro.localization.pipeline import LocalizationInputs, LocalizationResult, localize_many

#: Approximate series read off the paper's Fig. 6 (for shape comparison).
PAPER_FIG6A = {0.0: 0.1, 0.5: 0.55, 1.0: 1.1, 1.5: 1.7, 2.0: 2.3}
PAPER_FIG6B = {3: 1.9, 4: 1.35, 5: 1.15, 6: 1.0, 7: 0.95, 8: 0.9}
PAPER_FIG6C = {0: 1.0, 5: 1.2, 10: 1.6, 15: 2.1, 20: 2.6}
PAPER_FIG6D = {0: 1.0, 1: 1.1, 2: 1.25, 3: 1.45}


@dataclass(frozen=True)
class AnalyticalPoint:
    """One sweep point: the swept parameter value and the mean error."""

    parameter: float
    mean_error_m: float
    num_samples: int


def _draw_trial(
    num_devices: int,
    eps_1d: float,
    eps_h: float,
    eps_theta_deg: float,
    num_dropped_links: int,
    rng: np.random.Generator,
) -> Tuple[LocalizationInputs, np.ndarray]:
    """One random draw: the localization inputs and the true 2D positions."""
    positions = random_scenario_positions(num_devices, rng)
    true_d = pairwise_distance_matrix(positions)
    n = num_devices

    noisy_d = true_d + rng.uniform(-eps_1d, eps_1d, size=true_d.shape)
    noisy_d = np.triu(noisy_d, 1)
    noisy_d = noisy_d + noisy_d.T
    noisy_d = np.clip(noisy_d, 0.0, None)

    depths = positions[:, 2] + rng.uniform(-eps_h, eps_h, size=n)
    true_azimuth = angle_of(positions[1, :2] - positions[0, :2])
    pointing = true_azimuth + np.deg2rad(rng.uniform(-eps_theta_deg, eps_theta_deg))

    weights = full_weight_matrix(n)
    if num_dropped_links:
        weights, _ = drop_links(weights, num_dropped_links, rng)

    # The analytical evaluation isolates the topology algorithm from the
    # mic hardware: flip votes are exact.
    leader = positions[0]
    axis = np.array([np.cos(pointing), np.sin(pointing), 0.0])
    perp = np.array([-axis[1], axis[0], 0.0])
    left = leader + 0.08 * perp
    right = leader - 0.08 * perp
    signs = {
        i: mic_arrival_sign(left, right, positions[i]) for i in range(2, n)
    }
    signs = {i: s for i, s in signs.items() if s != 0}

    inputs = LocalizationInputs(
        noisy_d,
        depths,
        pointing_azimuth_rad=pointing,
        arrival_signs=signs,
        weights=weights,
    )
    return inputs, positions[:, :2] - positions[0, :2]


def _trial_error(true_leader_frame: np.ndarray, result: LocalizationResult) -> float:
    """Mean 2D localization error (m) across divers for one draw."""
    errors = np.linalg.norm(result.positions2d - true_leader_frame, axis=1)
    return float(np.mean(errors[1:]))


def _sweep(
    values: Sequence[float],
    make_kwargs,
    num_samples: int,
    rng: np.random.Generator,
) -> List[AnalyticalPoint]:
    points = []
    for value in values:
        kwargs = make_kwargs(value)
        errors = localize_many(
            lambda _: _draw_trial(rng=rng, **kwargs), _trial_error, num_samples, rng
        )
        points.append(
            AnalyticalPoint(
                parameter=float(value),
                mean_error_m=float(np.mean(errors)),
                num_samples=num_samples,
            )
        )
    return points


def run_fig6a(
    rng: np.random.Generator,
    eps_1d_values: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    num_samples: int = 200,
) -> List[AnalyticalPoint]:
    """2D error vs pairwise ranging error (N=6, eps_h=0.4 m)."""
    return _sweep(
        eps_1d_values,
        lambda v: dict(
            num_devices=6, eps_1d=v, eps_h=0.4, eps_theta_deg=0.0, num_dropped_links=0
        ),
        num_samples,
        rng,
    )


def run_fig6b(
    rng: np.random.Generator,
    user_counts: Sequence[int] = (3, 4, 5, 6, 7, 8),
    num_samples: int = 200,
) -> List[AnalyticalPoint]:
    """2D error vs number of users (eps_1d=0.8 m, eps_h=0.4 m)."""
    return _sweep(
        user_counts,
        lambda v: dict(
            num_devices=int(v),
            eps_1d=0.8,
            eps_h=0.4,
            eps_theta_deg=0.0,
            num_dropped_links=0,
        ),
        num_samples,
        rng,
    )


def run_fig6c(
    rng: np.random.Generator,
    theta_values_deg: Sequence[float] = (0, 5, 10, 15, 20),
    num_samples: int = 200,
) -> List[AnalyticalPoint]:
    """2D error vs pointing error (N=6, eps_1d=0.8 m, eps_h=0.4 m)."""
    return _sweep(
        theta_values_deg,
        lambda v: dict(
            num_devices=6, eps_1d=0.8, eps_h=0.4, eps_theta_deg=v, num_dropped_links=0
        ),
        num_samples,
        rng,
    )


def run_fig6d(
    rng: np.random.Generator,
    drop_counts: Sequence[int] = (0, 1, 2, 3),
    num_samples: int = 200,
) -> List[AnalyticalPoint]:
    """2D error vs dropped links (N=6, eps_1d=0.8 m, eps_h=0.4 m)."""
    return _sweep(
        drop_counts,
        lambda v: dict(
            num_devices=6,
            eps_1d=0.8,
            eps_h=0.4,
            eps_theta_deg=0.0,
            num_dropped_links=int(v),
        ),
        num_samples,
        rng,
    )


def format_sweep(
    label: str, points: List[AnalyticalPoint], paper: Dict[float, float]
) -> str:
    """Paper-vs-measured comparison table for one sweep."""
    lines = [f"Fig. 6{label}: parameter -> mean 2D error (m) [paper]"]
    for p in points:
        ref = paper.get(p.parameter, paper.get(int(p.parameter), None))
        ref_str = f"{ref:.2f}" if ref is not None else "-"
        lines.append(f"  {p.parameter:>6.2f} -> {p.mean_error_m:.2f}  [{ref_str}]")
    return "\n".join(lines)


@engine.register(
    name="fig6",
    title="Analytical evaluation of the topology algorithm",
    paper_ref="Fig. 6",
    paper={"fig6a": PAPER_FIG6A, "fig6b": PAPER_FIG6B,
           "fig6c": PAPER_FIG6C, "fig6d": PAPER_FIG6D},
    cost="moderate",
    sweepable=("num_samples",),
)
def campaign(rng, *, scale: float = 1.0, num_samples: int = 100):
    """All four analytical sweeps with a shared sample budget."""
    n = engine.scaled(num_samples, scale)
    sweeps = {
        "fig6a": (run_fig6a(rng, num_samples=n), PAPER_FIG6A),
        "fig6b": (run_fig6b(rng, num_samples=n), PAPER_FIG6B),
        "fig6c": (run_fig6c(rng, num_samples=n), PAPER_FIG6C),
        "fig6d": (run_fig6d(rng, num_samples=n), PAPER_FIG6D),
    }
    measured = {
        label: {p.parameter: p.mean_error_m for p in points}
        for label, (points, _paper) in sweeps.items()
    }
    report = "\n".join(
        format_sweep(label[-1], points, paper)
        for label, (points, paper) in sweeps.items()
    )
    return engine.ExperimentOutput(measured=measured, report=report)
