"""The four workloads: seeded inputs, one timed pass, and the checks.

Each workload is driven through the public API from one process.  One
pass of each:

* ``ranging`` -- one ``engine.run_campaign`` over the waveform figures
  (fast backend, float64, one worker, scale 1);
* ``localization`` -- ``run_campaign`` over fig6 at scale 0.1, then
  over fig18/19/20 at scale 0.25 (SMACOF, Algorithm 1, rigidity; no
  waveform code);
* ``fleet`` -- one 2000-node ``fleet_backend="vec"`` unit
  (``engine.run_unit`` around ``run_fleet_campaign``) with churn,
  mobility, drift wander and resync;
* ``service`` -- one closed-loop client replaying a seeded Zipf trace
  of ``POST /campaign`` (an assumed traffic mix) against
  ``python -m repro.service serve`` in its own process, over a
  pre-populated, byte-capped store.

"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import checks

ROOT = Path(__file__).resolve().parent.parent

RANGING_FIGURES = ("fig11", "fig12", "fig13", "fig14", "fig15", "fig22")
#: (figures, scale) campaigns of one localization pass.  fig6 takes
#: nearly all the time (about 3 s at scale 0.1, 9 s at 0.25); fig18 and
#: fig19 keep 2 layouts and fig20 6 rounds, the smallest sizes at which
#: their output checks hold for every seed tried.
LOCALIZATION_CAMPAIGNS = ((("fig6",), 0.1), (("fig18", "fig19", "fig20"), 0.25))
#: The run seed whose pass seeds form the localization corpus.
LOCALIZATION_CORPUS_SEED = 1
FLEET_VARIANT = "fleet2k"
FLEET_PARAMS = {
    "num_devices": 2000,
    "num_rounds": 2,
    "leave_prob": 0.05,
    "join_prob": 0.5,
    "mobility_fraction": 0.15,
    "fleet_backend": "vec",
    "resync_interval_rounds": 2,
    "drift_wander_ppm": 2.0,
}

#: Most timed passes any campaign workload makes in one run.
MAX_PASSES = 8

#: Every warm-up runs on this seed, so set-up work is the same for every
#: workload seed.
WARM_UP_SEED = 0

# The service traffic mix.  No recorded trace of the service's callers
# exists (``runner --cache-dir`` uses the store without HTTP), so each
# value below is an assumption, chosen for the behaviour it exercises;
# none describes measured user traffic.
#: Units requested, one per popularity rank in turn: the cheapest real
#: units, so a miss costs a compute but the replay stays short.
SERVICE_UNITS = (("fig16", "default"), ("fig22", "default"), ("tables", "default"), ("fig18", "dock"))
SERVICE_SCALE = 0.1
#: Zipf exponent of key popularity: a hot head of keys, so hits repeat
#: on few keys.
SERVICE_ZIPF_S = 1.1
#: Trace requests per distinct key: at most five sixths hit, so reads
#: dominate while misses (compute, write, sweep, evict) still carry a
#: large share of the replay time.
SERVICE_REQUESTS_PER_KEY = 6
#: Requests in one replay: about 5 s on one CPU of the reference host.
SERVICE_REQUESTS = 300
#: Closed-loop clients per replay.  One, not two: with two, the
#: server's writes of two different misses can overlap, and
#: ``CacheStore.put``'s stale-temp-file sweep then deletes the other
#: writer's live temp file, so that ``os.replace`` fails and the request
#: gets HTTP 500 (reproduced with two threads putting into one shard
#: directory).  One client serializes every write: the reply to a miss
#: is sent only after its write.
SERVICE_CLIENTS = 1
#: Filler entries the store starts with ("a few thousand"): enough that
#: the O(entries) walk in ``evict`` shows.  The byte cap equals their
#: total size, so every miss's write evicts.
SERVICE_FILLERS = 3000


@dataclass
class PassResult:
    """One timed pass: wall time, unit bodies, its seed, measured dicts, failures."""

    wall_s: float
    bodies: List[bytes]
    seed: int = 0
    measured: Dict[str, Any] = field(default_factory=dict)
    failed_units: int = 0


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------


class CampaignWorkload:
    """A workload whose pass runs its campaigns at one ``base_seed``.

    The run seed draws the ``base_seed`` of every pass, one per pass, so
    a run's median pass spans several inputs: how much work one seed's
    layouts or fleet take does not set the run's figure on its own.
    """

    name = ""
    #: ``(figures, scale)`` pairs, run in order by one pass.
    campaigns: Tuple[Tuple[Tuple[str, ...], float], ...] = ()
    #: Timed passes per run: fixed, so the sample count behind the
    #: median never depends on the host's speed.
    passes = 3
    backend: Optional[str] = None
    precision: Optional[str] = None

    def __init__(self, seed: int):
        self.seed = int(seed)
        # A prefix of a fixed-length draw: changing ``passes`` keeps the
        # seeds (and committed digests) of the passes that remain.
        rng = np.random.default_rng([self.seed, 3])
        drawn = rng.choice(1 << 30, size=MAX_PASSES, replace=False)
        self.pass_seeds = [int(s) for s in drawn[: self.passes]]

    def warm_up(self) -> None:
        for figures, _ in self.campaigns:
            self._campaign(figures, 0.05, WARM_UP_SEED)

    def _campaign(self, figures: Sequence[str], scale: float, seed: int, backend="default"):
        from repro.experiments import engine

        return engine.run_campaign(
            figures,
            base_seed=seed,
            workers=1,
            scale=scale,
            backend=self.backend if backend == "default" else backend,
            precision=self.precision if backend == "default" else None,
        )

    def run_pass(self, seed: int) -> PassResult:
        start = time.perf_counter()
        results = [
            (r, scale) for figures, scale in self.campaigns for r in self._campaign(figures, scale, seed)
        ]
        return self._package(results, time.perf_counter() - start, seed)

    def _package(self, results, wall: float, seed: int) -> PassResult:
        """``results`` holds (unit result, scale) pairs."""
        from repro.experiments import engine
        from repro.service.compute import encode_body

        bodies = [
            encode_body(
                engine.unit_to_dict(r, scale=scale, backend=self.backend, precision=self.precision)
            )
            for r, scale in results
        ]
        results = [r for r, _ in results]
        return PassResult(
            wall_s=wall,
            bodies=bodies,
            seed=seed,
            measured={r.label: r.measured for r in results},
            failed_units=sum(1 for r in results if r.status != "ok"),
        )

    def check(self, passes: Sequence[PassResult]) -> List[str]:
        return []

    def check_digest(self, passes: Sequence[PassResult]) -> List[str]:
        """Each pass's bytes against the digest committed for its seed."""
        return [v for p in passes for v in checks.check_digest(self.name, p.seed, p.bodies)]


class RangingWorkload(CampaignWorkload):
    name = "ranging"
    campaigns = ((RANGING_FIGURES, 1.0),)
    backend = "fast"
    precision = "float64"

    def check(self, passes: Sequence[PassResult]) -> List[str]:
        # One batch reference campaign (as long as a pass): the last pass.
        last = passes[-1]
        reference = self._campaign(RANGING_FIGURES, 1.0, last.seed, backend="batch")
        return checks.check_ranging(
            {r.experiment: r.measured for r in reference if r.status == "ok"},
            {label.split("/")[0]: m for label, m in last.measured.items()},
        )


class LocalizationWorkload(CampaignWorkload):
    """Every run replays one corpus: the pass seeds of run seed 1.

    The work of a localization pass varies by 0.16 from seed to seed, so
    with passes drawn from the run seed the fastest of four still varied
    by about 0.13 from run to run, half the bound, before the host added
    any noise.  The run seed orders the corpus instead; every pass is
    then checked against its committed digest.
    """

    name = "localization"
    campaigns = LOCALIZATION_CAMPAIGNS
    passes = 4

    def __init__(self, seed: int):
        super().__init__(LOCALIZATION_CORPUS_SEED)
        self.seed = int(seed)
        order = np.random.default_rng([self.seed, 4]).permutation(self.passes)
        self.pass_seeds = [self.pass_seeds[i] for i in order]

    def warm_up(self) -> None:
        self._campaign([f for figures, _ in self.campaigns for f in figures], 0.02, WARM_UP_SEED)

    def check(self, passes: Sequence[PassResult]) -> List[str]:
        from repro.experiments.fig18_localization import PAPER_FIG18

        violations = []
        for one in passes:
            # The JSON form: string keys and plain floats, as users read it.
            measured = {
                label: json.loads(body)["result"]["measured"]
                for label, body in zip(one.measured, one.bodies)
            }
            violations += [f"seed {one.seed}: {v}" for v in checks.check_localization(measured, PAPER_FIG18)]
        return violations + self.check_digest(passes)


class FleetWorkload(CampaignWorkload):
    name = "fleet"
    passes = 4

    def _unit(self, variant: str, params: Dict[str, Any], seed: int):
        from repro.experiments import engine

        return engine.run_unit("fleet", variant, params, base_seed=seed)

    def warm_up(self) -> None:
        self._unit("warm-up", {**FLEET_PARAMS, "num_devices": 200}, seed=WARM_UP_SEED)

    def run_pass(self, seed: int) -> PassResult:
        start = time.perf_counter()
        result = self._unit(FLEET_VARIANT, dict(FLEET_PARAMS), seed)
        return self._package([(result, 1.0)], time.perf_counter() - start, seed)

    def check(self, passes: Sequence[PassResult]) -> List[str]:
        violations = []
        for one in passes:
            (summary,) = one.measured.values()
            violations += [
                f"seed {one.seed}: {v}"
                for v in checks.check_fleet(summary, FLEET_PARAMS["num_devices"], FLEET_PARAMS["num_rounds"])
            ]
        return violations + self.check_digest(passes)


CAMPAIGN_WORKLOADS = {
    "ranging": RangingWorkload,
    "localization": LocalizationWorkload,
    "fleet": FleetWorkload,
}


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


def service_trace(seed: int, length: int) -> List[Dict[str, Any]]:
    """A seeded Zipf trace of unit requests (the replayed load).

    ``length / SERVICE_REQUESTS_PER_KEY`` distinct keys, each a trace
    unit (round-robin by popularity rank) at a seeded ``base_seed``;
    rank ``r`` is requested once plus its Zipf share of the remaining
    requests, and the whole trace is shuffled.  The popularity
    structure -- hence the hit/miss mix and the work -- is the same for
    every seed; the seed picks the results computed and their order.
    """
    rng = np.random.default_rng([seed, 1])
    distinct = max(len(SERVICE_UNITS), length // SERVICE_REQUESTS_PER_KEY)
    seeds = rng.choice(1 << 30, size=distinct, replace=False)
    keys = [
        {
            "experiment": SERVICE_UNITS[rank % len(SERVICE_UNITS)][0],
            "variant": SERVICE_UNITS[rank % len(SERVICE_UNITS)][1],
            "scale": SERVICE_SCALE,
            "base_seed": int(base_seed),
        }
        for rank, base_seed in enumerate(seeds)
    ]
    weights = 1.0 / np.arange(1, distinct + 1) ** SERVICE_ZIPF_S
    counts = 1 + np.floor((length - distinct) * weights / weights.sum()).astype(int)
    counts[0] += length - counts.sum()
    trace = [keys[rank] for rank, count in enumerate(counts) for _ in range(count)]
    return [dict(trace[i]) for i in rng.permutation(len(trace))]


def filler_entries(seed: int, count: int) -> List[Tuple[str, bytes]]:
    """Seeded (key, body) store entries that no trace request addresses."""
    rng = np.random.default_rng([seed, 2])
    entries = []
    for i, size in enumerate(rng.integers(600, 3000, size=count)):
        key = rng.bytes(32).hex()
        body = json.dumps({"filler": i, "pad": "x" * int(size)}).encode("ascii")
        entries.append((key, body))
    return entries


def warm_up_requests() -> List[Dict[str, Any]]:
    """One request per trace unit at a seed the trace never draws."""
    return [
        {"experiment": e, "variant": v, "scale": SERVICE_SCALE, "base_seed": (1 << 30) + i}
        for i, (e, v) in enumerate(SERVICE_UNITS)
    ]


class ServerProcess:
    """``python -m repro.service serve`` (optionally traced) as a child."""

    def __init__(self, store_root: Path, max_bytes: int, env: Dict[str, str], spans_path: Optional[Path] = None):
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.service"]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"), str(spans_path)]
        cmd += ["serve", "--port", "0", "--cache-dir", str(store_root), "--max-bytes", str(max_bytes)]
        self.max_bytes = max_bytes
        self._log = open(store_root.parent / f"{store_root.name}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self.url = self._read_url(timeout=120.0)

    def _read_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("service did not start (see its .log in the work dir)")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    continue
                line += chunk
        # "serving campaigns on http://127.0.0.1:PORT (cache ...)"
        return line.decode().split(" on ", 1)[1].split()[0]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then kill after 30 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def prepare_store(root: Path, seed: int) -> int:
    """Fresh store holding the filler entries; returns their byte total."""
    from repro.service.store import CacheStore

    shutil.rmtree(root, ignore_errors=True)
    store = CacheStore(root, max_bytes=0)
    store.ensure_writable()
    total = 0
    for key, body in filler_entries(seed, SERVICE_FILLERS):
        store.put(key, body)
        total += len(body)
    return total


def start_service(root: Path, seed: int, env: Dict[str, str], spans_path: Optional[Path] = None) -> ServerProcess:
    """Set up one server: populate the store, start, warm every unit."""
    from repro.service.client import ServiceClient

    cap = prepare_store(root, seed)
    server = ServerProcess(root, cap, env, spans_path)
    try:
        client = ServiceClient(server.url, timeout=120.0)
        client.wait_ready(timeout=60.0)
        for request in warm_up_requests():
            response = client.campaign(request)
            if response.status != 200:
                raise RuntimeError(f"warm-up {request['experiment']} got HTTP {response.status}")
    except BaseException:
        server.stop()
        raise
    return server


@dataclass
class ReplayRecord:
    key: str
    status: int
    latency_s: float
    body: bytes


def replay(url: str, trace: Sequence[Dict[str, Any]], clients: int) -> Tuple[float, List[Optional[ReplayRecord]]]:
    """Closed loop: each client sends its next request after the reply."""
    from repro.service.client import ServiceClient

    records: List[Optional[ReplayRecord]] = [None] * len(trace)
    cursor = iter(range(len(trace)))
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServiceClient(url, timeout=120.0)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            start = time.perf_counter()
            try:
                response = client.campaign(trace[index])
            except OSError:
                continue
            records[index] = ReplayRecord(
                key=response.headers.get("x-cache-key", ""),
                status=response.status,
                latency_s=time.perf_counter() - start,
                body=response.body,
            )

    threads = [threading.Thread(target=client_loop, name=f"client-{i}") for i in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start, records
