"""Timestamp-level N-device network simulation.

Runs the full system at per-round granularity: protocol round (with a
waveform-calibrated ranging-error model), depth sensing, optional
uplink quantisation, distance-matrix assembly, and the localization
pipeline. Used by the paper's network experiments (Figs. 6, 18, 19, 20
and the latency/flipping tables), where rendering hundreds of
multi-device rounds at audio rate would be needlessly slow.

The error-model defaults are calibrated against
:mod:`repro.simulate.waveform_sim` runs at the dock environment (see
DESIGN.md section 2: the waveform pipeline's per-detection error grows
roughly linearly with range).

The protocol round itself is the first-arrival event loop of
:func:`repro.protocol.round.run_protocol_round` — this class is a thin
adapter that draws the per-round error realisations and feeds the
resulting reports to the localization pipeline. The round is pinned
bit for bit to two test oracles, the original straight-line round and
a round on a generic per-event simulator (DESIGN.md section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.localization.ambiguity import flip_candidates
from repro.localization.pipeline import (
    LocalizationInputs,
    LocalizationResult,
    localize,
    localize_many,
)
from repro.protocol.ranging_matrix import pairwise_distances_from_reports
from repro.protocol.round import RoundOutcome, run_protocol_round
from repro.protocol.uplink import (
    decode_report,
    encode_report,
    normalize_report_to_leader_zero,
)
from repro.simulate.scenario import Scenario


@dataclass(frozen=True)
class RangingErrorModel:
    """Per-detection arrival-error model (calibrated from waveform runs).

    Attributes
    ----------
    base_std_m / std_per_m:
        Detection error std in metres: ``base + slope * distance``.
        Pinned to the paper's *field-measured* pairwise errors (medians
        0.48-0.86 m over 10-35 m): the waveform substrate reproduces the
        error *growth* with range but is tamer in absolute terms than a
        real lake, so the network model uses the paper's levels (a
        conservative superset of the waveform pipeline's behaviour).
    outlier_prob:
        Chance a non-occluded detection locks onto a reflection.
    outlier_bias_m:
        (low, high) extra metres added by such a wrong lock.
    occluded_bias_m:
        (low, high) bias for occluded links (the first *audible* path is
        a reflection; the paper's Fig. 19a setting).
    occluded_std_m:
        Extra jitter on occluded links.
    loss_prob:
        Directional packet-loss probability.
    flip_tdoa_noise_samples:
        Noise on the dual-mic arrival-offset measurement (in samples at
        44.1 kHz) used for the left/right flipping vote. A diver near
        the leader/user-1 line produces a tiny true offset, so its vote
        flips easily; a diver far off-line is reliable. The default is
        tuned so the *average* single-voter flip accuracy lands at the
        paper's 90.1%.
    """

    base_std_m: float = 0.25
    std_per_m: float = 0.012
    outlier_prob: float = 0.01
    outlier_bias_m: Tuple[float, float] = (2.0, 8.0)
    occluded_bias_m: Tuple[float, float] = (3.0, 8.0)
    occluded_std_m: float = 0.8
    loss_prob: float = 0.02
    flip_tdoa_noise_samples: float = 1.3

    def detection_error_m(
        self, distance_m: float, occluded: bool, rng: np.random.Generator
    ) -> float:
        """Sample one detection error in metres."""
        if occluded:
            return rng.uniform(*self.occluded_bias_m) + rng.normal(
                0.0, self.occluded_std_m
            )
        err = rng.normal(0.0, self.base_std_m + self.std_per_m * distance_m)
        if rng.random() < self.outlier_prob:
            err += rng.uniform(*self.outlier_bias_m)
        return err


@dataclass
class RoundResult:
    """Outcome of one simulated localization round.

    Attributes
    ----------
    result:
        The localization pipeline output.
    distances / weights:
        The measured distance matrix handed to the solver.
    true_positions_leader_frame:
        Ground-truth 3D positions with the leader at the origin.
    errors_2d:
        Horizontal localization error per device (leader entry is 0).
    link_distance_to_leader:
        True distance of each device to the leader (for the paper's
        per-link-distance breakdown).
    flip_correct:
        Whether the flip vote picked the true mirror candidate.
    protocol:
        Raw protocol round outcome.
    """

    result: LocalizationResult
    distances: np.ndarray
    weights: np.ndarray
    true_positions_leader_frame: np.ndarray
    errors_2d: np.ndarray
    link_distance_to_leader: np.ndarray
    flip_correct: bool
    protocol: RoundOutcome


class NetworkSimulator:
    """Simulate repeated localization rounds over one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        error_model: RangingErrorModel | None = None,
        rng: Optional[np.random.Generator] = None,
        quantize_uplink: bool = True,
        drop_links: Optional[List[Tuple[int, int]]] = None,
        stress_threshold: Optional[float] = None,
    ):
        """Create a simulator.

        Parameters
        ----------
        scenario:
            Device placement and environment.
        error_model:
            Ranging-error model (defaults to the dock calibration).
        quantize_uplink:
            Round-trip the timestamp reports through the uplink
            encoding (0.2 m depth, 2-sample timestamps).
        drop_links:
            Links to forcibly remove (the Fig. 19b link-removal study);
            distinct from occlusions, which keep the link but corrupt it.
        stress_threshold:
            Override for Algorithm 1's stress threshold; ``np.inf``
            disables outlier detection entirely (the Fig. 19a ablation).
        """
        self.scenario = scenario
        self.error_model = error_model or RangingErrorModel()
        self.rng = rng or np.random.default_rng(0)
        self.quantize_uplink = quantize_uplink
        self.drop_links = [tuple(sorted(l)) for l in (drop_links or [])]
        self.stress_threshold = stress_threshold

    # ------------------------------------------------------------------

    def _connectivity(self) -> np.ndarray:
        conn = self.scenario.connectivity().copy()
        for i, j in self.drop_links:
            conn[i, j] = conn[j, i] = False
        n = conn.shape[0]
        for i in range(n):
            for j in range(n):
                if i != j and conn[i, j] and self.rng.random() < self.error_model.loss_prob:
                    conn[i, j] = False
        return conn

    def _arrival_noise(self, sound_speed: float):
        """The round's per-detection delay draw (seconds) at ``sound_speed``."""

        def noise(receiver: int, sender: int, distance: float, rng) -> float:
            occluded = self.scenario.is_occluded(receiver, sender)
            return self.error_model.detection_error_m(distance, occluded, rng) / sound_speed

        return noise

    def _sensor_depths(self) -> np.ndarray:
        return np.array(
            [dev.measure_depth(self.rng) for dev in self.scenario.devices]
        )

    def _flip_signs(self, pointing_azimuth: float) -> Dict[int, int]:
        """Dual-mic arrival-order signs observed by the leader.

        The underlying measurement is the tap offset between the two
        microphones (at most ~4.8 samples for 16 cm at 44.1 kHz). We add
        Gaussian tap noise and take the sign, so divers near the
        leader/user-1 line — whose true offset is small — flip their
        vote more often, exactly as multipath does in the real system.
        """
        leader = self.scenario.devices[0]
        # The leader faces the pointed diver; its lateral mic pair is
        # perpendicular to that azimuth.
        leader_oriented = leader.moved_to(leader.position)
        leader_oriented.azimuth_rad = pointing_azimuth
        left, right = leader_oriented.mic_positions(lateral=True)
        fs = 44_100.0
        sound_speed = self.scenario.sound_speed()
        signs: Dict[int, int] = {}
        for dev in self.scenario.devices[2:]:
            d_left = float(np.linalg.norm(dev.position - left))
            d_right = float(np.linalg.norm(dev.position - right))
            true_offset_samples = (d_left - d_right) / sound_speed * fs
            noisy = true_offset_samples + self.rng.normal(
                0.0, self.error_model.flip_tdoa_noise_samples
            )
            sign = int(np.sign(noisy))
            if sign == 0:
                continue
            signs[dev.device_id] = sign
        return signs

    # ------------------------------------------------------------------

    def _draw_round(
        self, flip_voters: Optional[int] = None
    ) -> Tuple[LocalizationInputs, "_DrawnRound"]:
        """Everything a round draws before localization.

        Returns the localization inputs and what :meth:`_finish_round`
        needs besides the localization result.
        """
        scenario = self.scenario
        n = scenario.num_devices
        sound_speed = scenario.sound_speed()
        true_d = scenario.true_distances()
        conn = self._connectivity()
        clocks = [dev.clock for dev in scenario.devices]

        outcome = run_protocol_round(
            true_d,
            conn,
            sound_speed,
            clocks=clocks,
            depths=scenario.depths,
            arrival_noise=self._arrival_noise(sound_speed),
            rng=self.rng,
        )

        sensor_depths = self._sensor_depths()
        reports = []
        for dev_id, report in outcome.reports.items():
            report.depth_m = float(sensor_depths[dev_id])
            if self.quantize_uplink and dev_id != 0:
                normalized, ok = normalize_report_to_leader_zero(report, n)
                if ok:
                    bits = encode_report(normalized, n)
                    report = decode_report(bits, dev_id, n)
            reports.append(report)

        distances, weights = pairwise_distances_from_reports(
            reports, sound_speed, num_devices=n
        )
        measured_depths = np.array(
            [
                next(
                    (r.depth_m for r in reports if r.device_id == i),
                    float(sensor_depths[i]),
                )
                for i in range(n)
            ]
        )

        true_azimuth = scenario.true_pointing_azimuth()
        pointing = scenario.pointing.sample_azimuth(true_azimuth, self.rng)
        arrival_signs = self._flip_signs(pointing)
        if flip_voters is not None:
            keys = sorted(arrival_signs)[:flip_voters]
            arrival_signs = {k: arrival_signs[k] for k in keys}

        nan_mask = ~np.isfinite(distances)
        distances = np.where(nan_mask, 0.0, distances)
        weights = np.where(nan_mask, 0.0, weights)

        inputs = LocalizationInputs(
            distances,
            measured_depths,
            pointing_azimuth_rad=pointing,
            arrival_signs=arrival_signs,
            weights=weights,
            stress_threshold=self.stress_threshold,
        )
        drawn = _DrawnRound(
            distances=distances,
            weights=weights,
            true_positions_leader_frame=scenario.positions - scenario.positions[0],
            link_distance_to_leader=true_d[0],
            protocol=outcome,
        )
        return inputs, drawn

    @staticmethod
    def _finish_round(drawn: "_DrawnRound", result: LocalizationResult) -> RoundResult:
        """Score a localized round against the truth it was drawn from."""
        true_leader_frame = drawn.true_positions_leader_frame
        errors = np.linalg.norm(
            result.positions2d - true_leader_frame[:, :2], axis=1
        )
        errors[0] = 0.0

        # Flip correctness: did the vote pick the candidate closer to truth?
        original, mirrored = flip_candidates(result.positions2d)
        err_orig = np.linalg.norm(original - true_leader_frame[:, :2], axis=1)[2:].sum()
        err_mirr = np.linalg.norm(mirrored - true_leader_frame[:, :2], axis=1)[2:].sum()
        flip_correct = bool(err_orig <= err_mirr)

        return RoundResult(
            result=result,
            distances=drawn.distances,
            weights=drawn.weights,
            true_positions_leader_frame=true_leader_frame,
            errors_2d=errors,
            link_distance_to_leader=drawn.link_distance_to_leader,
            flip_correct=flip_correct,
            protocol=drawn.protocol,
        )

    def run_round(self, flip_voters: Optional[int] = None) -> RoundResult:
        """Execute one full round and localize.

        Parameters
        ----------
        flip_voters:
            Limit the number of divers contributing flip votes (the
            paper's 1-voter vs 3-voter study); ``None`` uses all.
        """
        inputs, drawn = self._draw_round(flip_voters)
        return self._finish_round(drawn, localize(**vars(inputs), rng=self.rng))

    def run_many(
        self,
        num_rounds: int,
        flip_voters: Optional[int] = None,
        skip_failures: bool = True,
    ) -> List[RoundResult]:
        """Run several independent rounds (errors re-drawn each time).

        Rounds that cannot be localized — e.g. packet losses disconnect
        the measurement graph — are skipped when ``skip_failures`` is
        True (the real leader would simply re-run the protocol), so the
        returned list may be shorter than ``num_rounds``. The results
        and the generator's final state are those of ``num_rounds``
        :meth:`run_round` calls; the base solves run as one stack
        (:func:`run_rounds`).
        """
        return run_rounds(lambda _: self, num_rounds, self.rng, flip_voters, skip_failures)


def run_rounds(
    simulator: Callable[[int], NetworkSimulator],
    num_rounds: int,
    rng: np.random.Generator,
    flip_voters: Optional[int] = None,
    skip_failures: bool = True,
) -> List[RoundResult]:
    """Rounds whose simulators are set up one round at a time.

    ``simulator(i)`` returns the simulator of round ``i``; it may draw
    from ``rng`` (a fresh scenario, a moved device), and each simulator
    it returns draws from ``rng`` as well. The results, the exception
    raised and the state ``rng`` is left in are those of::

        for i in range(num_rounds):
            results.append(simulator(i).run_round(flip_voters))

    with each round that raises ``LocalizationError`` skipped when
    ``skip_failures`` is set. The base solves run as one stack
    (:func:`~repro.localization.pipeline.localize_many`), which may
    call ``simulator(i)`` again for a round it restages, so what it
    returns must depend only on what it draws.
    """
    return localize_many(
        lambda index: simulator(index)._draw_round(flip_voters),
        NetworkSimulator._finish_round,
        num_rounds,
        rng,
        skip_failures=skip_failures,
    )


@dataclass(frozen=True)
class _DrawnRound:
    """A round's draws that its score needs besides the localization."""

    distances: np.ndarray
    weights: np.ndarray
    true_positions_leader_frame: np.ndarray
    link_distance_to_leader: np.ndarray
    protocol: RoundOutcome
