"""Frozen reference implementations the production paths are pinned to.

Production runs one waveform engine per parity contract (``batch``),
one protocol round (the first-arrival loop of
``repro.protocol.round``) and one fleet round (``fleetvec``).  The
simpler or more general twins they were derived from live here,
frozen, as test oracles — the way ``_frozen_smacof`` pins SMACOF in
``tests/test_smacof.py``:

* **Per-exchange waveform paths.**  :class:`LegacyOneWay` has
  :class:`~repro.simulate.batch_exchange.BatchOneWay`'s ``add``/``run``
  interface but calls the scalar ``one_way_range`` of
  ``tests/scalar_receiver.py`` at ``add`` time,
  so the experiment's random stream is consumed interleaved with the
  figure loop exactly as the original per-exchange code did.  The
  figure paths that never went through ``BatchOneWay`` (fig11's
  microphone ablation, fig12's detection study, fig22's SNR sweep) are
  frozen copies of their original per-exchange branches.
* **Two protocol rounds.**  :func:`legacy_protocol_round` is the
  original straight-line fixed point; :func:`des_protocol_round` runs
  the round on the generic per-event simulator of
  ``tests/des_oracle.py``.  Both take the pre-drawn inputs of
  ``repro.protocol.round._first_arrival_round``.
* **Per-trial localization loops.**  :func:`fig6_sweep_legacy` (with
  :func:`fig6_trial_legacy`, fig6's original ``_one_trial``),
  :func:`run_many_legacy`, :func:`moving_rounds_legacy` (fig20's
  moving rounds) and :func:`flipping_accuracy_legacy` (tables'
  flipping study) localize one trial at a time with
  :func:`~repro.localization.pipeline.localize`, where production
  stacks the base solves of a sweep point or a batch of rounds with
  :func:`~repro.localization.pipeline.localize_many`.
* **The per-event fleet round.**  :func:`event_fleet_round` runs a
  fleet round with one ``DesNode`` per device on the same simulator
  (with :class:`ContentionMac`, the per-event contention policy) and
  has :func:`~repro.simulate.des.fleetvec.run_fleet_round_vec`'s
  signature and results.

Nothing in ``src/`` knows these exist: :func:`legacy_waveform`,
:func:`legacy_round`, :func:`des_round`, :func:`per_trial_localization`
and :func:`event_fleet` swap them in through :func:`swap_oracles`, which patches module attributes
for the duration of a ``with`` block and fails if no call reached an
oracle.  The parity tests (``tests/test_batch_parity.py``,
``tests/test_des_parity.py``, ``tests/test_localize_many.py``,
``tests/test_fleetvec_parity.py``)
compare the patched run against the unpatched one bit for bit.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from des_oracle import AcousticMedium, Arrival, DesNode, EnergyAccount, Simulator, TdmaMac
from repro.channel.environment import BOATHOUSE, DOCK
from repro.channel.multipath import image_method_taps
from repro.channel.noise import make_noise
from repro.channel.render import apply_channel
from repro.constants import DELTA0_S, T_PACKET_S
from repro.devices.clock import DeviceClock
from repro.devices.device import Device
from repro.errors import ConfigurationError, LocalizationError
from repro.experiments.fig06_analytical import AnalyticalPoint
from repro.geometry.topology import (
    drop_links,
    full_weight_matrix,
    pairwise_distance_matrix,
    random_scenario_positions,
)
from repro.geometry.transforms import angle_of
from repro.localization.ambiguity import mic_arrival_sign
from repro.localization.pipeline import localize
from repro.protocol.messages import Beacon, TimestampReport
from repro.protocol.sync import infer_transmit_slot
from repro.ranging.detector import DetectionConfig, detect_power_threshold
from repro.signals.ofdm import OfdmConfig, band_bins, ofdm_symbol_from_zc
from repro.signals.preamble import Preamble, make_preamble
from repro.simulate.des.energy import EnergyModel
from repro.simulate.des.fleet import FleetConfig, FleetRoundStats, _finish_round
from repro.simulate.mobility import LinearBackForthTrajectory
from repro.simulate.network_sim import NetworkSimulator
from repro.simulate.scenario import Scenario, testbed_scenario
from repro.simulate.waveform_sim import ExchangeConfig, RangingMeasurement
from scalar_receiver import (
    channel_impulse_response,
    detect_preamble,
    estimate_direct_path,
    ls_channel_estimate,
    one_way_range,
    simulate_reception,
    single_mic_direct_path,
)

#: Taps treated as negative delays by the fine stage (fig11's margin).
_WRAP_MARGIN = 96


@contextlib.contextmanager
def swap_oracles(swaps: Sequence[Tuple[str, object]], unreached: str) -> Iterator[None]:
    """Patch each ``(dotted target, oracle)`` for a ``with`` block.

    Every call to a swapped-in oracle is counted, and the block fails
    with the ``unreached`` message if none was made, so a parity test
    cannot silently compare production with itself.
    """
    calls = []

    def counted(oracle):
        def call(*args, **kwargs):
            calls.append(oracle)
            return oracle(*args, **kwargs)

        return call

    with contextlib.ExitStack() as stack:
        for target, oracle in swaps:
            stack.enter_context(mock.patch(target, counted(oracle)))
        yield
    assert calls, unreached


# ---------------------------------------------------------------------------
# Waveform tier
# ---------------------------------------------------------------------------


class LegacyOneWay:
    """``BatchOneWay``'s interface over the scalar per-exchange path.

    ``add`` ranges the exchange immediately (the random stream is
    consumed at the call site, as the original figure loops did);
    ``run`` returns the measurements in submission order.  Constructor
    options of the batched engine are accepted and ignored.
    """

    def __init__(self, preamble: Preamble, *args, **kwargs):
        self.preamble = preamble
        self._results: List[RangingMeasurement] = []

    def add(self, tx_pos, rx_pos, config: ExchangeConfig, rng: np.random.Generator) -> None:
        self._results.append(one_way_range(self.preamble, tx_pos, rx_pos, config, rng))

    def run(self) -> List[RangingMeasurement]:
        results, self._results = self._results, []
        return results


def ablation_errors_legacy(
    rng, preamble, config, distance, num_exchanges, depth_m, fs, fast=False,
    precision="float64",
) -> Dict[str, List[float]]:
    """Fig. 11b per exchange: one stream, scalar detector and estimators."""
    errs: Dict[str, List[float]] = {"both": [], "bottom": [], "top": []}
    for _ in range(num_exchanges):
        tx = np.array([0.0, 0.0, depth_m + rng.uniform(-0.2, 0.2)])
        rx = np.array(
            [distance + rng.uniform(-0.1, 0.1), 0.0, depth_m + rng.uniform(-0.2, 0.2)]
        )
        sound_speed = DOCK.sound_speed(depth_m)
        mic1, mic2, guard, true_idx = simulate_reception(preamble, tx, rx, config, rng)
        detection = detect_preamble(mic1, preamble, config.detection)
        if detection is None:
            for key in errs:
                errs[key].append(np.nan)
            continue
        cirs = []
        for stream in (mic1, mic2):
            h = ls_channel_estimate(stream, preamble, detection.start_index)
            cirs.append(
                np.roll(channel_impulse_response(h, preamble.config.ofdm), _WRAP_MARGIN)
            )
        joint = estimate_direct_path(
            cirs[0], cirs[1], sound_speed=sound_speed, sample_rate=fs
        )
        if joint is not None:
            est = detection.start_index + joint.tap - _WRAP_MARGIN
            errs["both"].append((est - true_idx) / fs * sound_speed)
        else:
            errs["both"].append(np.nan)
        for key, cir in (("bottom", cirs[0]), ("top", cirs[1])):
            tap = single_mic_direct_path(cir, search_limit=512 + _WRAP_MARGIN)
            if tap is None:
                errs[key].append(np.nan)
            else:
                est = detection.start_index + tap - _WRAP_MARGIN
                errs[key].append((est - true_idx) / fs * sound_speed)
    return errs


def detection_counts_legacy(
    rng: np.random.Generator,
    thresholds_db: Sequence[float],
    num_trials: int,
    distance_m: float,
    backend: str,
    precision: str = "float64",
) -> Dict[str, object]:
    """Fig. 12a per stream: scalar rendering, detector and power sweep."""
    preamble = make_preamble()
    fs = preamble.config.ofdm.sample_rate
    config = ExchangeConfig(environment=BOATHOUSE)
    tol = int(0.05 * fs)

    present = []
    for _ in range(num_trials):
        tx = np.array([0.0, 0.0, 1.0 + rng.uniform(-0.2, 0.2)])
        rx = np.array([distance_m, 0.0, 1.0 + rng.uniform(-0.2, 0.2)])
        mic1, _mic2, _guard, true_idx = simulate_reception(preamble, tx, rx, config, rng)
        present.append((mic1, true_idx))
    absent = [
        make_noise(int(0.6 * fs), BOATHOUSE.noise, rng, fs) for _ in range(num_trials)
    ]

    ours_fn = 0
    for stream, true_idx in present:
        det = detect_preamble(stream, preamble, DetectionConfig())
        if det is None or abs(det.start_index - true_idx) > tol:
            ours_fn += 1
    ours_fp = 0
    for stream in absent:
        if detect_preamble(stream, preamble, DetectionConfig()) is not None:
            ours_fp += 1
    fmcw_fn = {float(th): 0 for th in thresholds_db}
    fmcw_fp = {float(th): 0 for th in thresholds_db}
    for th in thresholds_db:
        for stream, true_idx in present:
            hit = detect_power_threshold(stream, threshold_db=th)
            if hit is None or abs(hit - true_idx) > tol:
                fmcw_fn[float(th)] += 1
        for stream in absent:
            if detect_power_threshold(stream, threshold_db=th) is not None:
                fmcw_fp[float(th)] += 1
    return {
        "num_trials": num_trials,
        "thresholds_db": [float(th) for th in thresholds_db],
        "ours_fp": ours_fp,
        "ours_fn": ours_fn,
        "fmcw_fp": fmcw_fp,
        "fmcw_fn": fmcw_fn,
    }


def snr_measurement_legacy(
    rng: np.random.Generator,
    distances_m: Sequence[float] = (10.0, 20.0, 28.0),
    num_symbols: int = 8,
    depth_m: float = 1.0,
    backend: str = "batch",
    precision: str = "float64",
):
    """Fig. 22 per distance: one ``apply_channel`` and noise draw each."""
    from repro.experiments.fig22_snr import SnrProfile

    ofdm = OfdmConfig()
    bins = band_bins(ofdm)
    base = ofdm_symbol_from_zc(ofdm, add_cp=False)
    base_bins_fft = np.fft.fft(base)[bins]
    fs = ofdm.sample_rate
    sound_speed = BOATHOUSE.sound_speed(depth_m)
    wave = np.tile(base, num_symbols + 2)

    profiles = []
    for distance in distances_m:
        tx = np.array([0.0, 0.0, depth_m])
        rx = np.array([float(distance), 0.0, depth_m])
        taps = image_method_taps(
            tx,
            rx,
            BOATHOUSE.water_depth_m,
            sound_speed,
            max_order=BOATHOUSE.max_image_order,
            surface_coeff=BOATHOUSE.surface_coeff,
            bottom_coeff=BOATHOUSE.bottom_coeff,
        )
        received = apply_channel(wave, taps, fs)
        received = received + make_noise(received.size, BOATHOUSE.noise, rng, fs)
        first_arrival = int(taps[0].delay_s * fs)
        estimates = []
        for k in range(1, num_symbols + 1):
            start = first_arrival + k * ofdm.n_fft
            symbol = received[start : start + ofdm.n_fft]
            if symbol.size < ofdm.n_fft:
                break
            estimates.append(np.fft.fft(symbol)[bins] / base_bins_fft)
        h = np.vstack(estimates)
        signal_power = np.abs(h.mean(axis=0)) ** 2
        noise_power = h.var(axis=0) + 1e-15
        profiles.append(
            SnrProfile(
                distance_m=float(distance),
                frequencies_hz=bins * ofdm.bin_spacing_hz,
                snr_db=10.0 * np.log10(signal_power / noise_power),
            )
        )
    return profiles


#: ``(module, attribute, oracle)`` swaps that turn every waveform figure
#: entry into its per-exchange reference.
_WAVEFORM_ORACLES = (
    ("repro.experiments.fig11_ranging", "BatchOneWay", LegacyOneWay),
    ("repro.experiments.fig11_ranging", "_ablation_errors_batch", ablation_errors_legacy),
    ("repro.experiments.fig12_baselines", "BatchOneWay", LegacyOneWay),
    ("repro.experiments.fig12_baselines", "_detection_counts", detection_counts_legacy),
    ("repro.experiments.fig13_depth", "BatchOneWay", LegacyOneWay),
    ("repro.experiments.fig14_orientation", "BatchOneWay", LegacyOneWay),
    ("repro.experiments.fig15_motion", "BatchOneWay", LegacyOneWay),
    ("repro.experiments.fig22_snr", "run_snr_measurement", snr_measurement_legacy),
)


def legacy_waveform():
    """Run the waveform figure entries on the per-exchange oracles.

    Inside the block, a figure entry called with ``backend="batch"``
    computes what the original per-exchange backend computed.
    """
    return swap_oracles(
        [(f"{module}.{attribute}", oracle) for module, attribute, oracle in _WAVEFORM_ORACLES],
        "no waveform figure path reached a per-exchange oracle",
    )


# ---------------------------------------------------------------------------
# Protocol round
# ---------------------------------------------------------------------------


def legacy_protocol_round(
    d: np.ndarray,
    conn: np.ndarray,
    sound_speed: float,
    clocks: List[DeviceClock],
    depths: np.ndarray,
    noise: Dict[Tuple[int, int], float],
    delta0_s: float,
    delta1_s: float,
):
    """The original straight-line round: fixed-point slot assignment."""
    from repro.protocol.round import RoundOutcome

    n = d.shape[0]
    global_tx: Dict[int, float] = {0: 0.0}
    sync_ref: Dict[int, int] = {0: 0}
    missed: List[int] = []

    def first_arrival(i: int) -> Optional[Tuple[float, int]]:
        """Earliest (global) arrival at device i from known transmitters."""
        best: Optional[Tuple[float, int]] = None
        for j, t_j in global_tx.items():
            if j == i or not conn[i, j]:
                continue
            t_arr = t_j + d[i, j] / sound_speed + noise[(i, j)]
            if best is None or t_arr < best[0]:
                best = (t_arr, j)
        return best

    # Recompute until every reachable device has a stable transmit time
    # (a newly known transmission can only move a first arrival earlier).
    pending = set(range(1, n))
    for _ in range(n + 2):
        changed = False
        for i in sorted(pending):
            arrival = first_arrival(i)
            if arrival is None:
                continue
            t_arr_global, ref = arrival
            local_arrival = clocks[i].local_time(t_arr_global)
            tx_local, deferred = infer_transmit_slot(
                i, ref, local_arrival, n, delta0_s, delta1_s
            )
            tx_global = clocks[i].global_time(tx_local)
            if i not in global_tx or not np.isclose(global_tx[i], tx_global):
                global_tx[i] = tx_global
                sync_ref[i] = ref
                if deferred and i not in missed:
                    missed.append(i)
                changed = True
        if not changed:
            break

    silent = [i for i in range(1, n) if i not in global_tx]
    # Ascending ids, like the DES (the fixed point may discover
    # deferrals in any order across passes).
    missed.sort()

    reports: Dict[int, TimestampReport] = {}
    last_event = 0.0
    beacons: List[Beacon] = []
    for i, t_i in sorted(global_tx.items()):
        beacons.append(
            Beacon(
                sender_id=i,
                sync_ref_id=sync_ref[i],
                tx_local_time_s=clocks[i].local_time(t_i),
            )
        )
    for i in range(n):
        if i not in global_tx:
            continue
        receptions: Dict[int, float] = {}
        for j, t_j in global_tx.items():
            if j == i or not conn[i, j]:
                continue
            t_arr = t_j + d[i, j] / sound_speed + noise[(i, j)]
            receptions[j] = clocks[i].local_time(t_arr)
            last_event = max(last_event, t_arr)
        reports[i] = TimestampReport(
            device_id=i,
            depth_m=float(depths[i]),
            own_tx_local_s=clocks[i].local_time(global_tx[i]),
            receptions=receptions,
        )

    return RoundOutcome(
        reports=reports,
        beacons=beacons,
        global_tx_times=global_tx,
        missed_slot_ids=missed,
        silent_ids=silent,
        duration_s=last_event,
    )


def des_protocol_round(
    d: np.ndarray,
    conn: np.ndarray,
    sound_speed: float,
    clocks: List[DeviceClock],
    depths: np.ndarray,
    noise: Dict[Tuple[int, int], float],
    delta0_s: float,
    delta1_s: float,
):
    """The round on the per-event simulator: one :class:`DesNode` per
    device, a zero-airtime :class:`TdmaMac`, and a medium that adds the
    pre-drawn noise."""
    from repro.protocol.round import RoundOutcome

    n = d.shape[0]
    sim = Simulator()
    medium = AcousticMedium(
        sim,
        sound_speed,
        distance_fn=lambda rx, tx, t: d[rx, tx],
        connectivity_fn=lambda rx, tx, dist: bool(conn[rx, tx]),
        delay_noise_fn=lambda rx, tx, dist: noise[(rx, tx)],
    )
    mac = TdmaMac(n, delta0_s, delta1_s)
    devices = [Device(device_id=i, position=np.zeros(3), clock=clocks[i]) for i in range(n)]
    nodes = [DesNode(device, sim, medium, mac) for device in devices]
    sim.run()

    global_tx = {
        node.device_id: node.tx_time_global_s
        for node in nodes
        if node.tx_time_global_s is not None
    }
    reports: Dict[int, TimestampReport] = {}
    last_event = 0.0
    for i in global_tx:
        for global_arrival, _local in nodes[i].received.values():
            last_event = max(last_event, global_arrival)
        reports[i] = nodes[i].report(float(depths[i]))
    return RoundOutcome(
        reports=reports,
        beacons=[
            Beacon(
                sender_id=i,
                sync_ref_id=nodes[i].sync_ref if nodes[i].sync_ref is not None else 0,
                tx_local_time_s=clocks[i].local_time(t_i),
            )
            for i, t_i in global_tx.items()
        ],
        global_tx_times=global_tx,
        missed_slot_ids=[i for i in global_tx if nodes[i].missed_slot],
        silent_ids=[i for i in range(1, n) if i not in global_tx],
        duration_s=last_event,
    )


#: The production round loop both round oracles replace.
_ROUND_LOOP = "repro.protocol.round._first_arrival_round"


def legacy_round():
    """Run ``run_protocol_round`` (and so ``NetworkSimulator``) on the
    fixed-point oracle instead of the first-arrival loop."""
    return swap_oracles(
        [(_ROUND_LOOP, legacy_protocol_round)],
        "no protocol round reached the fixed-point oracle",
    )


def des_round():
    """Run ``run_protocol_round`` (and so ``NetworkSimulator``) on the
    per-event DES round oracle instead of the first-arrival loop."""
    return swap_oracles(
        [(_ROUND_LOOP, des_protocol_round)],
        "no protocol round reached the DES round oracle",
    )


# ---------------------------------------------------------------------------
# Per-trial localization loops
# ---------------------------------------------------------------------------


def fig6_trial_legacy(
    num_devices: int,
    eps_1d: float,
    eps_h: float,
    eps_theta_deg: float,
    num_dropped_links: int,
    rng: np.random.Generator,
) -> float:
    """Mean 2D localization error (m) across divers for one random draw."""
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

    leader = positions[0]
    axis = np.array([np.cos(pointing), np.sin(pointing), 0.0])
    perp = np.array([-axis[1], axis[0], 0.0])
    left = leader + 0.08 * perp
    right = leader - 0.08 * perp
    signs = {i: mic_arrival_sign(left, right, positions[i]) for i in range(2, n)}
    signs = {i: s for i, s in signs.items() if s != 0}

    result = localize(
        noisy_d,
        depths,
        pointing_azimuth_rad=pointing,
        arrival_signs=signs,
        weights=weights,
        rng=rng,
    )
    true_leader_frame = positions[:, :2] - positions[0, :2]
    errors = np.linalg.norm(result.positions2d - true_leader_frame, axis=1)
    return float(np.mean(errors[1:]))


def fig6_sweep_legacy(
    values: Sequence[float], make_kwargs, num_samples: int, rng: np.random.Generator
) -> List[AnalyticalPoint]:
    """fig6's ``_sweep`` as one :func:`fig6_trial_legacy` call per sample."""
    points = []
    for value in values:
        errors = [fig6_trial_legacy(rng=rng, **make_kwargs(value)) for _ in range(num_samples)]
        points.append(
            AnalyticalPoint(
                parameter=float(value),
                mean_error_m=float(np.mean(errors)),
                num_samples=num_samples,
            )
        )
    return points


def run_many_legacy(sim, num_rounds: int, flip_voters=None, skip_failures: bool = True):
    """``NetworkSimulator.run_many`` as one ``run_round`` call per round."""
    results = []
    for _ in range(num_rounds):
        try:
            results.append(sim.run_round(flip_voters=flip_voters))
        except LocalizationError:
            if not skip_failures:
                raise
    return results


def flipping_accuracy_legacy(
    rng: np.random.Generator, voter_counts: Sequence[int] = (1, 3), num_rounds: int = 50
):
    """tables' ``run_flipping_accuracy`` as one ``run_round`` per attempt."""
    from repro.experiments.tables import FlippingResult

    results = []
    for voters in voter_counts:
        correct = 0
        completed = 0
        attempts = 0
        while completed < num_rounds and attempts < 3 * num_rounds:
            attempts += 1
            scenario = testbed_scenario("dock", num_devices=5, rng=rng)
            sim = NetworkSimulator(scenario, rng=rng)
            try:
                outcome = sim.run_round(flip_voters=voters)
            except LocalizationError:
                continue  # disconnected round; the leader would re-run
            completed += 1
            correct += int(outcome.flip_correct)
        results.append(
            FlippingResult(
                num_voters=int(voters),
                accuracy=correct / max(completed, 1),
                num_rounds=completed,
            )
        )
    return results


def moving_rounds_legacy(rng, scenario, trajectory, moving_device: int, num_rounds: int):
    """fig20's ``_moving_rounds`` as one ``run_round`` per round."""
    outcomes = []
    for _ in range(num_rounds):
        # Random phase along the sweep for each round.
        t = float(rng.uniform(0, 4 * trajectory.amplitude_m / trajectory.speed_mps))
        scenario.devices[moving_device].position = trajectory.position(t)
        sim_moving = NetworkSimulator(scenario, rng=rng)
        try:
            outcomes.append(sim_moving.run_round())
        except LocalizationError:
            continue  # disconnected round; the leader would re-run
    return outcomes


def per_trial_localization():
    """Run fig6's sweeps, ``NetworkSimulator.run_many`` (and so
    fig18-20's static rounds), fig20's moving rounds and tables'
    flipping study one ``localize`` call per trial instead of on the
    stacked driver."""
    return swap_oracles(
        [
            ("repro.experiments.fig06_analytical._sweep", fig6_sweep_legacy),
            ("repro.simulate.network_sim.NetworkSimulator.run_many", run_many_legacy),
            ("repro.experiments.fig20_mobility._moving_rounds", moving_rounds_legacy),
            ("repro.experiments.tables.run_flipping_accuracy", flipping_accuracy_legacy),
        ],
        "no localization loop reached a per-trial oracle",
    )


# ---------------------------------------------------------------------------
# Fleet round
# ---------------------------------------------------------------------------


class ContentionMac:
    """Random-access with binary-exponential backoff (beyond paper).

    After hearing the leader's kickoff, a device waits the processing
    margin plus a uniform backoff in ``[0, window_s)``; if the channel
    is busy at fire time it re-draws from a doubled window, giving up
    after ``max_attempts`` tries. A gave-up device keeps listening but
    counts as silent for the round: with no transmission of its own it
    has no ``own_tx`` timestamp, so it cannot be ranged and produces
    no report.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        window_s: float = 4.0,
        delta0_s: float = DELTA0_S,
        packet_duration_s: float = T_PACKET_S,
        max_attempts: int = 4,
    ):
        if window_s <= 0:
            raise ConfigurationError("contention window must be positive")
        if max_attempts < 1:
            raise ConfigurationError("need at least one transmit attempt")
        self.rng = rng
        self.window_s = window_s
        self.delta0_s = delta0_s
        self.packet_duration_s = packet_duration_s
        self.max_attempts = max_attempts
        self.gave_up = 0

    def start(self, node: DesNode) -> None:
        if node.device_id == 0:
            node.sim.at(0.0, node.transmit, self.packet_duration_s, 0.0)

    def on_receive(self, node: DesNode, arrival: Arrival) -> None:
        if node.device_id == 0 or node.sync_ref is not None:
            return
        if not node.may_transmit:
            return  # duty-cycle budget exhausted: no backoff draw either
        node.sync_ref = arrival.sender_id
        backoff = self.delta0_s + float(self.rng.uniform(0.0, self.window_s))
        node.sim.after(backoff, self._attempt, node, 1)

    def _attempt(self, node: DesNode, attempt: int) -> None:
        if node.rx_busy or node.tx_busy:
            # Carrier busy: binary exponential backoff.
            if attempt >= self.max_attempts:
                self.gave_up += 1
                return
            window = self.window_s * (2.0**attempt)
            backoff = float(self.rng.uniform(0.0, window))
            node.sim.after(backoff, self._attempt, node, attempt + 1)
            return
        node.transmit(self.packet_duration_s)


def event_fleet_round(
    scenario: Scenario,
    active: List[int],
    trajectories: Dict[int, LinearBackForthTrajectory],
    campaign_time_s: float,
    config: FleetConfig,
    rng: np.random.Generator,
    may_transmit: Optional[np.ndarray] = None,
    epoch_eff: Optional[np.ndarray] = None,
) -> Tuple[FleetRoundStats, Dict[int, TimestampReport], float, Dict[int, float]]:
    """One fleet round with one :class:`DesNode` per device on the
    generic event loop; same arguments and results as
    :func:`~repro.simulate.des.fleetvec.run_fleet_round_vec`."""
    sound_speed = scenario.sound_speed()
    sim = Simulator()

    def position_of(device_id: int, t_s: float) -> np.ndarray:
        trajectory = trajectories.get(device_id)
        if trajectory is None:
            return scenario.devices[device_id].position
        return trajectory.position(campaign_time_s + t_s)

    def distance_fn(rx: int, tx: int, t_s: float) -> float:
        # Squared-difference reduction, NOT np.linalg.norm: the BLAS dot
        # behind the 1-D norm contracts with FMA and disagrees with any
        # batched row norm in the last bit, while this formulation is
        # bit-identical to the vec engine's vectorized distance rows
        # (and to Scenario.true_distances / PositionDistances rows).
        diff = position_of(rx, t_s) - position_of(tx, t_s)
        return float(np.sqrt((diff**2).sum()))

    error_model = config.error_model
    medium = AcousticMedium(
        sim,
        sound_speed,
        distance_fn=distance_fn,
        connectivity_fn=lambda rx, tx, dist: dist <= config.max_range_m,
        loss_fn=lambda rx, tx: bool(rng.random() < error_model.loss_prob),
        delay_noise_fn=lambda rx, tx, dist: error_model.detection_error_m(
            dist, False, rng
        )
        / sound_speed,
    )
    if config.mac == "tdma":
        mac = TdmaMac(
            scenario.num_devices, packet_duration_s=config.packet_duration_s
        )
    else:
        mac = ContentionMac(
            rng,
            window_s=config.contention_window_s,
            packet_duration_s=config.packet_duration_s,
        )
    nodes: Dict[int, DesNode] = {}
    for device_id in active:
        device = scenario.devices[device_id]
        if epoch_eff is not None:
            device.clock = DeviceClock(
                skew_ppm=device.clock.skew_ppm,
                epoch_s=float(epoch_eff[device_id]),
            )
        nodes[device_id] = DesNode(
            device,
            sim,
            medium,
            mac,
            energy=EnergyAccount(EnergyModel.from_device_model(device.model)),
            may_transmit=(
                True if may_transmit is None else bool(may_transmit[device_id])
            ),
        )
    duration = sim.run()
    for node in nodes.values():
        node.energy.settle_idle(duration)

    reports = {
        device_id: node.report(scenario.devices[device_id].depth_m)
        for device_id, node in nodes.items()
        if node.own_tx_local_s is not None
    }
    tx_times = {
        device_id: float(node.tx_time_global_s)
        for device_id, node in nodes.items()
        if node.tx_time_global_s is not None
    }
    energies = [node.energy.total_joules for _, node in sorted(nodes.items())]
    stats, elapsed = _finish_round(
        scenario,
        config,
        active,
        reports,
        leader_heard=set(nodes[0].received),
        missed_slots=sum(1 for n_ in nodes.values() if n_.missed_slot),
        collisions=sum(n_.collisions for n_ in nodes.values()),
        tx_attempts=sum(n_.tx_attempts for n_ in nodes.values()),
        gave_up=getattr(mac, "gave_up", 0),
        energies=energies,
        duration=duration,
    )
    return stats, reports, elapsed, tx_times


def event_fleet():
    """Run ``run_fleet_campaign`` (and so the ``fleet`` experiment) on
    the per-event round oracle instead of the vectorized engine."""
    return swap_oracles(
        [("repro.simulate.des.fleet.run_fleet_round_vec", event_fleet_round)],
        "no fleet round reached the per-event oracle",
    )
