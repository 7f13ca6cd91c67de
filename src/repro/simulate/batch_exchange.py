"""Batch-first rendering of waveform exchanges (the bit-parity engine).

The scalar per-exchange chain this engine was derived from
(``tests/scalar_receiver.py``, the test oracle) simulates one exchange
at a time: every trial pays its own template FFTs, filter designs,
Python tap loops and per-sample peak scans.  This module splits each
exchange into

* **Phase A** (``add``): everything that touches the experiment's
  random stream — geometry-independent draws, tap realisation, noise
  draws — executed trial by trial in *exactly* the scalar path's order,
  so the generator state after ``add`` matches it sample for sample;
  and
* **Phase B** (``render``): the heavy, RNG-free array work — FIR
  scatter, channel convolution, noise shaping, stream assembly —
  executed batched across trials, grouped by FFT length so every row
  uses the very transform sizes the scalar path would have used.

The combination makes the rendered microphone streams **bit-identical**
to the scalar chain while paying template/filter/waveform preparation
once per batch instead of once per trial.  The public per-exchange
call :func:`repro.simulate.waveform_sim.one_way_range` is this engine at
K = 1, and a :class:`BatchExchangeRenderer` given one exchange renders
that exchange's streams.  ``tests/test_batch_parity.py`` pins streams, measurements and
every waveform figure to the per-exchange oracles of
``tests/scalar_receiver.py`` and ``tests/legacy_oracles.py`` and to the
parity-epoch baselines.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.channel.multipath import image_method_tap_arrays
from repro.channel.noise import (
    bandpass_sos,
    spiky_noise,
    synth_noise_rows,
    synth_noise_shape,
)
from repro.channel.occlusion import occlusion_gain_array
from repro.channel.render import CachedWaveform, apply_channel_batch, fir_length_for
from repro.signals.batchcorr import env_int, env_str, fft_workers
from repro.signals.xp import check_waveform_backend, get_context
from repro.simulate.waveform_sim import (
    ExchangeConfig,
    RangingMeasurement,
    _rx_mic_positions,
    directivity_gain_array,
    directivity_tap_gains,
    fluctuate_tap_arrays,
)
from repro.signals.preamble import Preamble

#: Default chunks in flight on the Phase-B consumer thread (1 = render
#: chunk N while planning chunk N+1; 0 would disable pipelining).
DEFAULT_PIPELINE_DEPTH = 1


def pipeline_depth() -> int:
    """Flush-pipeline depth from ``REPRO_PIPELINE_DEPTH``.

    ``0`` (or ``off``/``none``/``false``) disables the pipeline: chunk
    flushes run synchronously on the caller's thread, exactly the
    pre-pipeline executor.  Depth ``N`` lets up to N flushed chunks be
    in flight on the single Phase-B worker thread while Phase A plans
    the next chunk; the producer blocks once the window is full, so
    memory stays bounded.  Results are bit-identical at every depth
    (see DESIGN.md §8).  Unparsable values warn once and use the
    default.
    """
    raw = env_str("REPRO_PIPELINE_DEPTH")
    if raw is not None and raw.strip().lower() in ("off", "none", "false"):
        return 0
    return env_int("REPRO_PIPELINE_DEPTH", DEFAULT_PIPELINE_DEPTH, minimum=0)


class PipelinedFlusher:
    """Runs flush jobs on one background thread, strictly in order.

    The producer/consumer split of the batch waveform pipeline: Phase A
    (RNG-consuming planning) stays on the caller's thread, while the
    RNG-free Phase B (stacked FFTs, channel convolution, estimation) of
    an already-planned chunk runs here.  A **single** worker thread
    executing submissions FIFO is what keeps every backend
    deterministic: shared spectrum caches are only ever touched by one
    Phase-B job at a time, in the same order a sequential run would
    touch them.  ``depth`` bounds the in-flight window — ``submit``
    blocks once ``depth`` jobs are pending, giving backpressure instead
    of unbounded plan buffering.
    """

    def __init__(self, depth: int = DEFAULT_PIPELINE_DEPTH):
        self.depth = max(1, int(depth))
        self._slots = threading.BoundedSemaphore(self.depth)
        self._executor: Optional[ThreadPoolExecutor] = None

    def submit(self, fn: Callable, *args) -> "Future":
        """Queue one flush job; blocks while ``depth`` jobs are in flight."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="phase-b"
            )
        self._slots.acquire()
        try:
            return self._executor.submit(self._run, fn, *args)
        except BaseException:  # pragma: no cover - submit-time failure
            self._slots.release()
            raise

    def _run(self, fn: Callable, *args):
        try:
            return fn(*args)
        finally:
            self._slots.release()

    def close(self) -> None:
        """Join the worker thread (restarted lazily on the next submit)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


@dataclass
class _MicPlan:
    """Phase-A output for one (trial, microphone) channel.

    In parity mode ``white``/``hw`` hold the scalar-order noise draws;
    in fast mode they are ``None`` (noise is synthesised in Phase B
    from the dedicated substream) and ``hw_rms`` carries the hardware
    noise level instead.
    """

    positions: np.ndarray  # tap delays * sample_rate
    amplitudes: np.ndarray
    fir_length: int
    body_length: int
    stream_length: int
    white: Optional[np.ndarray]  # unfiltered ambient draw (parity mode)
    spike: np.ndarray
    hw: Optional[np.ndarray]
    ambient_rms: float
    hw_rms: float = 0.0


def spawn_substream(rng: np.random.Generator) -> np.random.Generator:
    """A child generator independent of ``rng``'s own draw stream.

    Deterministic per seed: spawning advances only the seed sequence's
    child counter, never the parent's sample stream.  Spawns through
    the bit generator's seed sequence directly (equivalent to
    ``Generator.spawn`` for the PCG64 generators used everywhere here,
    but available on every supported numpy, so results cannot depend
    on the installed version).  Falls back to seeding from one parent
    draw when the generator carries no seed sequence (hand-built bit
    generators).
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if seed_seq is not None and hasattr(seed_seq, "spawn"):
        return np.random.default_rng(seed_seq.spawn(1)[0])
    return np.random.default_rng(int(rng.integers(0, 2**63)))


@dataclass
class _TrialPlan:
    """Phase-A output for one exchange."""

    guard: int
    true_arrival: float
    wave_scale: float
    mics: Tuple[_MicPlan, _MicPlan]


@dataclass
class Reception:
    """One rendered exchange: both microphone streams, the number of
    leading silence samples, and the exact (fractional) stream index at
    which the direct path reached microphone 1."""

    mic1: np.ndarray
    mic2: np.ndarray
    guard: int
    true_arrival: float


class BatchExchangeRenderer:
    """Accumulates exchanges (Phase A) and renders them together (Phase B).

    ``add`` consumes ``rng`` exactly like the scalar per-exchange
    renderer (one sound-speed draw, one fluctuation seed, then each
    microphone's noise draws); ``render`` performs no draws at all.  Typical use renders a sweep's worth of
    trials per call; memory stays bounded because callers (e.g.
    :class:`BatchOneWay`) flush in chunks.

    ``fast=True`` switches to the non-parity fast backend: the main
    generator only provides the sound-speed and fluctuation draws,
    while ambient/hardware noise is synthesised in the frequency domain
    from a dedicated :func:`spawn_substream` of the first ``add``'s
    generator (still fully deterministic per seed), and Phase B uses one
    shared transform length with threaded FFTs.  Channel FIRs are
    right-sized via :func:`repro.channel.render.fir_length_for` in
    *every* mode (the one sizing contract since parity epoch 2).  See
    DESIGN.md §7 for the equivalence contract.
    """

    def __init__(
        self,
        preamble: Preamble,
        fast: bool = False,
        precision: str = "float64",
    ):
        self.preamble = preamble
        self.fast = bool(fast)
        self._ctx = get_context(precision)
        self.precision = self._ctx.precision
        self.fs = float(preamble.config.ofdm.sample_rate)
        self._plans: List[_TrialPlan] = []
        self._waves: Dict[float, CachedWaveform] = {}
        self._noise_rng: Optional[np.random.Generator] = None

    def __len__(self) -> int:
        return len(self._plans)

    def add(
        self,
        tx_pos,
        rx_pos,
        config: ExchangeConfig,
        rng: np.random.Generator,
    ) -> int:
        """Plan one exchange, consuming ``rng`` in the scalar path's order."""
        env = config.environment
        fs = self.fs
        if self.fast and self._noise_rng is None:
            self._noise_rng = spawn_substream(rng)
        tx = np.asarray(tx_pos, dtype=float)  # repro: allow[DTYPE001] geometry is float64 (§11)
        rx = np.asarray(rx_pos, dtype=float)  # repro: allow[DTYPE001] geometry is float64 (§11)
        nominal_speed = env.sound_speed(float((tx[2] + rx[2]) / 2))
        sound_speed = nominal_speed * (
            1.0 + rng.normal(0.0, config.sound_speed_error_std)
        )
        guard = int(config.guard_s * fs)
        mic_positions = _rx_mic_positions(config, rx)
        fluctuation_seed = int(rng.integers(0, 2**32))

        preamble_len = len(self.preamble)
        tail = int(0.08 * fs)
        wave_scale = config.amplitude * config.tx_model.source_level
        true_arrival: Optional[float] = None
        mic_plans: List[_MicPlan] = []
        for mic_index, mic_pos in enumerate(mic_positions):
            delays, amps, surf, bot = image_method_tap_arrays(
                tx,
                mic_pos,
                env.water_depth_m,
                sound_speed,
                max_order=env.max_image_order,
                surface_coeff=env.surface_coeff,
                bottom_coeff=env.bottom_coeff,
            )
            if config.occlusion is not None:
                amps = amps * occlusion_gain_array(surf, bot, config.occlusion)
            gains = directivity_tap_gains(config, tx, mic_pos, env.water_depth_m)
            amps = amps * directivity_gain_array(surf, bot, gains)
            if mic_index == 0:
                direct = delays[(surf == 0) & (bot == 0)].min()
                true_arrival = guard + direct * fs
            distance = float(np.linalg.norm(mic_pos - tx))
            sigma_db = 1.5 + 0.05 * distance
            delays, amps = fluctuate_tap_arrays(
                delays,
                amps,
                sigma_db,
                0.5 / fs,
                np.random.default_rng(fluctuation_seed),
            )
            order = np.argsort(delays, kind="stable")
            delays, amps = delays[order], amps[order]
            # Waterproof-case reflection: one trailing copy per arrival,
            # then a stable delay sort — exactly the scalar list concat.
            model = config.rx_model
            delays = np.concatenate(
                [delays, delays + model.case_multipath_delay_s]
            )
            amps = np.concatenate([amps, amps * model.case_multipath_amp])
            order = np.argsort(delays, kind="stable")
            delays, amps = delays[order], amps[order]

            max_delay = float(delays.max())
            body_length = preamble_len + int(max_delay * fs) + tail
            stream_length = guard + body_length
            hw_rms = float(config.rx_model.mic_noise_rms[mic_index])
            # One FIR-sizing contract for every backend (parity epoch 2):
            # the tap span alone bounds the FIR; mirrors apply_channel's
            # min(output_length, fir_length_for) truncation.
            fir_length = min(body_length, fir_length_for(max_delay, fs))
            if self.fast:
                # Cast the spike row to the working dtype at plan time:
                # the draw itself stays float64 (substream contract),
                # and Phase B's in-place adds then never upcast.
                spike = spiky_noise(
                    stream_length, env.noise, self._noise_rng, fs
                ).astype(self._ctx.real_dtype, copy=False)
                white = hw = None
            else:
                white = rng.standard_normal(stream_length)
                spike = spiky_noise(stream_length, env.noise, rng, fs)
                hw = hw_rms * rng.standard_normal(stream_length)
            mic_plans.append(
                _MicPlan(
                    positions=delays * fs,
                    amplitudes=amps,
                    fir_length=fir_length,
                    body_length=body_length,
                    stream_length=stream_length,
                    white=white,
                    spike=spike,
                    hw=hw,
                    ambient_rms=env.noise.ambient_rms,
                    hw_rms=hw_rms,
                )
            )
        self._plans.append(
            _TrialPlan(
                guard=guard,
                true_arrival=float(true_arrival),
                wave_scale=wave_scale,
                mics=(mic_plans[0], mic_plans[1]),
            )
        )
        return len(self._plans) - 1

    def _cached_wave(self, scale: float) -> CachedWaveform:
        wave = self._waves.get(scale)
        if wave is None:
            wave = CachedWaveform(
                scale * self.preamble.waveform, dtype=self._ctx.real_dtype
            )
            self._waves[scale] = wave
        return wave

    def take(self) -> List[_TrialPlan]:
        """Detach the accumulated Phase-A plans (for pipelined flushing)."""
        plans, self._plans = self._plans, []
        return plans

    def draw_noise_block(self, plans: List[_TrialPlan]) -> Optional[np.ndarray]:
        """Pre-draw the fast backend's Phase-B noise normals for ``plans``.

        Fast-mode Phase B synthesises ambient+hardware noise from the
        dedicated substream; under pipelining those draws would
        otherwise interleave with the next chunk's Phase-A spike draws
        on the same generator.  Drawing the block here — at the flush
        point, on the producer thread — pins the substream's
        consumption order to the sequential schedule bit for bit.
        Parity mode draws nothing in Phase B and returns ``None``.
        The draw dtype follows the working precision — it must match
        what :func:`synth_noise_rows` would draw for itself, or the
        pipelined and sequential schedules would consume the substream
        differently.
        """
        if not self.fast or not plans:
            return None
        lengths = [m.stream_length for plan in plans for m in plan.mics]
        return self._noise_rng.standard_normal(
            synth_noise_shape(lengths), dtype=self._ctx.real_dtype
        )

    def render(self) -> List[Reception]:
        """Phase B: render every planned exchange, then clear the plan list."""
        return self.render_plans(self.take())

    def render_plans(
        self,
        plans: List[_TrialPlan],
        noise_block: Optional[np.ndarray] = None,
    ) -> List[Reception]:
        """Render an explicit plan list (Phase B proper).

        RNG-free except for the fast backend's dedicated noise
        substream, which ``noise_block`` replaces when the flush was
        pipelined; calls must therefore stay in submission order (the
        single-threaded :class:`PipelinedFlusher` guarantees this).
        """
        if not plans:
            return []
        rows: List[Tuple[int, int]] = [
            (t, m) for t in range(len(plans)) for m in range(2)
        ]
        mic_of = lambda row: plans[row[0]].mics[row[1]]  # noqa: E731

        # Channel convolution, grouped by FFT length inside
        # apply_channel_batch; the waveform spectrum cache is keyed by
        # amplitude scale so mixed-config batches stay correct.  Fast
        # mode shares one transform length per scale group and threads
        # the stacked FFTs.
        workers = fft_workers() if self.fast else None
        bodies: List[np.ndarray] = [None] * len(rows)  # type: ignore[list-item]
        by_scale: Dict[float, List[int]] = {}
        for i, row in enumerate(rows):
            by_scale.setdefault(plans[row[0]].wave_scale, []).append(i)
        for scale, idxs in by_scale.items():
            outs = apply_channel_batch(
                self._cached_wave(scale),
                [
                    (mic_of(rows[i]).positions, mic_of(rows[i]).amplitudes)
                    for i in idxs
                ],
                [mic_of(rows[i]).fir_length for i in idxs],
                [mic_of(rows[i]).body_length for i in idxs],
                shared_length=self.fast,
                workers=workers,
            )
            for i, body in zip(idxs, outs):
                bodies[i] = body

        lengths = [mic_of(r).stream_length for r in rows]
        if self.fast:
            # Ambient + hardware noise in one frequency-domain draw per
            # row from the dedicated substream (see synth_noise_rows).
            filtered = synth_noise_rows(
                lengths,
                [mic_of(r).ambient_rms for r in rows],
                [mic_of(r).hw_rms for r in rows],
                self._noise_rng,
                self.fs,
                workers=workers,
                z=noise_block,
                precision=self.precision,
            )
        else:
            # Imported here, not at module level (DESIGN.md §11, import
            # budget).
            from scipy import signal as sp_signal

            # Ambient noise: one batched causal filter over all rows.
            # A zero-padded tail cannot alter a causal filter's prefix,
            # so each row's first ``stream_length`` samples match the
            # scalar sosfilt output bit for bit.
            sos = bandpass_sos(self.fs)
            slab = np.zeros((len(rows), max(lengths)))
            for i, row in enumerate(rows):
                slab[i, : lengths[i]] = mic_of(row).white
            filtered = sp_signal.sosfilt(sos, slab, axis=-1)

        receptions: List[Reception] = []
        for t, plan in enumerate(plans):
            streams = []
            for m in range(2):
                i = 2 * t + m
                mic = plan.mics[m]
                n = mic.stream_length
                if self.fast:
                    shaped = filtered[i, :n].copy()
                    shaped += mic.spike
                    shaped[plan.guard :] += bodies[i]
                    streams.append(shaped)
                    continue
                shaped = filtered[i, :n]
                rms = np.sqrt(np.mean(shaped**2))
                if rms > 0:
                    shaped = shaped * (mic.ambient_rms / rms)
                else:  # pragma: no cover - silent filter output
                    shaped = shaped.copy()
                stream = np.empty(n)
                stream[: plan.guard] = 0.0
                stream[plan.guard :] = bodies[i]
                # (stream + (ambient + spiky)) + hw, reusing buffers —
                # the addition order matches the scalar path exactly.
                shaped += mic.spike
                shaped += stream
                shaped += mic.hw
                streams.append(shaped)
            n = min(s.size for s in streams)
            receptions.append(
                Reception(
                    mic1=streams[0][:n],
                    mic2=streams[1][:n],
                    guard=plan.guard,
                    true_arrival=plan.true_arrival,
                )
            )
        return receptions


@dataclass
class _OneWayMeta:
    """Per-trial bookkeeping for :class:`BatchOneWay`."""

    true_distance: float
    mic1_true: float
    guard: int
    sound_speed: float
    mic_separation_m: float
    detection: object


class BatchOneWay:
    """Many one-way ranging attempts, rendered and estimated as a batch.

    ``add`` consumes ``rng`` as the scalar per-exchange path does;
    ``run`` renders and estimates everything batch-wise and returns
    measurements in submission order, bit-identical to ranging each
    exchange on its own (:func:`~repro.simulate.waveform_sim.one_way_range`
    is this class at ``chunk=1``).  Flushes internally every ``chunk``
    trials to bound memory.

    Flushes are **pipelined**: while chunk N's Phase B (stacked FFTs,
    channel convolution, arrival estimation — all RNG-free) runs on a
    single background thread, the caller keeps planning chunk N+1's
    Phase A on its own thread, so the FFT work and the strictly
    sequential RNG/tap work overlap instead of idling each other.
    ``pipeline`` sets the in-flight chunk window (default from
    ``REPRO_PIPELINE_DEPTH``; 0 = synchronous flushes).  Results are
    bit-identical at every depth: Phase A order is untouched, Phase-B
    jobs execute FIFO on one thread, and the fast backend's Phase-B
    noise normals are pre-drawn at the flush point via
    :meth:`BatchExchangeRenderer.draw_noise_block`.

    ``backend="fast"`` switches renderer and estimator to the
    non-parity fast engine (right-sized FIRs, frequency-domain noise,
    fused NCC, forced-GEMM gate) — deterministic per seed, validated
    statistically instead of bit-wise (tests/test_fast_equivalence.py).
    """

    def __init__(
        self,
        preamble: Preamble,
        chunk: int = 24,
        backend: str = "batch",
        pipeline: Optional[int] = None,
        precision: str = "float64",
    ):
        from repro.ranging.batch import BatchArrivalEstimator

        check_waveform_backend(backend, precision)
        self.preamble = preamble
        self.backend = backend
        self.precision = precision
        self.chunk = int(chunk)
        self.pipeline = pipeline_depth() if pipeline is None else max(0, int(pipeline))
        self.renderer = BatchExchangeRenderer(
            preamble, fast=backend == "fast", precision=precision
        )
        self.estimator = BatchArrivalEstimator(
            preamble, fast=backend == "fast", precision=precision
        )
        self._flusher = PipelinedFlusher(self.pipeline) if self.pipeline else None
        self._pending: List[Future] = []
        self._meta: List[_OneWayMeta] = []
        self._results: List[RangingMeasurement] = []

    def add(self, tx_pos, rx_pos, config: ExchangeConfig, rng: np.random.Generator) -> None:
        env = config.environment
        tx = np.asarray(tx_pos, dtype=float)  # repro: allow[DTYPE001] geometry is float64 (§11)
        rx = np.asarray(rx_pos, dtype=float)  # repro: allow[DTYPE001] geometry is float64 (§11)
        sound_speed = env.sound_speed(float((tx[2] + rx[2]) / 2))
        self.renderer.add(tx, rx, config, rng)
        true_distance = float(np.linalg.norm(rx - tx))
        mic1_pos = _rx_mic_positions(config, rx)[0]
        self._meta.append(
            _OneWayMeta(
                true_distance=true_distance,
                mic1_true=float(np.linalg.norm(mic1_pos - tx)),
                guard=int(config.guard_s * self.renderer.fs),
                sound_speed=sound_speed,
                mic_separation_m=config.rx_model.mic_separation_m,
                detection=config.detection,
            )
        )
        if len(self._meta) >= self.chunk:
            self._flush()

    def _flush(self) -> None:
        """Snapshot the planned chunk and hand its Phase B off (or run it).

        Everything that may touch an RNG happens here, on the caller's
        thread, before the hand-off: the plan list is detached and the
        fast backend's Phase-B noise normals are pre-drawn at this exact
        point in the substream.  What crosses to the Phase-B thread is
        pure array work.
        """
        if not self._meta:
            return
        plans = self.renderer.take()
        noise_block = self.renderer.draw_noise_block(plans)
        meta, self._meta = self._meta, []
        if self._flusher is None:
            self._results.extend(self._process(plans, noise_block, meta))
        else:
            self._pending.append(
                self._flusher.submit(self._process, plans, noise_block, meta)
            )

    def _process(
        self,
        plans: List[_TrialPlan],
        noise_block: Optional[np.ndarray],
        meta: List[_OneWayMeta],
    ) -> List[RangingMeasurement]:
        """Phase B for one flushed chunk: render, estimate, package."""
        receptions = self.renderer.render_plans(plans, noise_block)
        results: List[RangingMeasurement] = []
        estimates = self.estimator.estimate_many(
            [r.mic1 for r in receptions],
            [r.mic2 for r in receptions],
            mic_separations=[m.mic_separation_m for m in meta],
            sound_speeds=[m.sound_speed for m in meta],
            detection_configs=[m.detection for m in meta],
        )
        fs = self.renderer.fs
        for m, estimate in zip(meta, estimates):
            if estimate is None:
                results.append(
                    RangingMeasurement(m.true_distance, float("nan"), detected=False)
                )
                continue
            est_mic1 = (estimate.arrival_index - m.guard) / fs * m.sound_speed
            est_center = est_mic1 + (m.true_distance - m.mic1_true)
            results.append(
                RangingMeasurement(
                    m.true_distance, float(est_center), detected=True, arrival=estimate
                )
            )
        return results

    def run(self) -> List[RangingMeasurement]:
        """Render and estimate all pending trials; return all results.

        Drains in-flight Phase-B chunks in submission order, so the
        returned list is identical — element for element, bit for bit —
        to a fully synchronous (``pipeline=0``) run.
        """
        self._flush()
        if self._flusher is not None:
            pending, self._pending = self._pending, []
            try:
                for future in pending:
                    self._results.extend(future.result())
            finally:
                self._flusher.close()
        results, self._results = self._results, []
        return results
