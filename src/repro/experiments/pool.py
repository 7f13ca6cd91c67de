"""Persistent worker pool with exact failure attribution.

``concurrent.futures.ProcessPoolExecutor`` has two costs the campaign
engine outgrew.  First, a worker-process death (OOM kill, segfault,
``SystemExit``) breaks the whole pool: *every* outstanding future
raises ``BrokenProcessPool`` and the campaign aborts, even though only
one job was actually lost.  Second, a throwaway pool per campaign pays
process startup on every run.

:class:`WorkerPool` replaces it with a deliberately small design:

* **One duplex pipe per worker, one job in flight per worker.**  The
  parent dispatches a job to an idle worker over its pipe and reads the
  pickled result back on the same pipe.  Because a worker never holds
  more than one job, a dead worker's casualty set is exactly its
  in-flight job — the parent can fail *that* job and keep every other
  result, which is what lets a campaign finish with ``status="error"``
  for the killed job only.
* **Prompt death detection.**  ``multiprocessing.connection.wait``
  marks a pipe readable when the peer process dies, so the parent sees
  ``EOFError``/``OSError`` on ``recv`` immediately instead of waiting
  on a timeout.
* **Bounded self-healing.**  Each death consumes one respawn from a
  budget of one fresh pool (``size`` replacement workers).  Surviving
  jobs are never lost — they are simply dispatched to the replacement —
  and when the budget is gone and no workers remain, the remaining jobs
  drain as :class:`WorkerCrash` outcomes instead of hanging.

Results cross the pipe pickled.  Campaign results are small: the
largest raw array any chunkable figure returns at scale 1 is 1,200
bytes, so a zero-copy transport would have nothing to carry.

Inside the worker, ``BaseException`` (not just ``Exception``) is caught
around the job runner, so a stray ``SystemExit`` is reported as a
:class:`WorkerCrash` with a traceback while the worker itself survives.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class WorkerCrash:
    """Outcome of a job whose worker died or raised past the runner."""

    message: str


def _worker_main(conn, runner: Callable[[Any], Any], close_first: Sequence) -> None:
    """Worker loop: recv payload, run, send outcome; ``None`` stops.

    ``close_first`` holds pipe ends belonging to *other* workers that
    this process inherited through fork; closing them immediately is
    what lets the parent see EOF the moment any single worker dies
    (a surviving worker holding a duplicate write end would keep a dead
    sibling's pipe artificially open).
    """
    for other in close_first:
        try:
            other.close()
        except Exception:  # pragma: no cover - already closed
            pass
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        if payload is None:
            break
        try:
            outcome = ("ok", runner(payload))
        except BaseException:
            # Catch *everything* (SystemExit included): one poisoned job
            # must not take the worker down with it.
            outcome = ("error", traceback.format_exc(limit=8))
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    conn.close()


class _Worker:
    """One pool slot: a process, its pipe, and its in-flight job id."""

    def __init__(self, ctx, runner: Callable, siblings: Sequence) -> None:
        parent_end, child_end = ctx.Pipe(duplex=True)
        close_first = list(siblings) if ctx.get_start_method() == "fork" else []
        self.conn = parent_end
        self.job: Optional[int] = None
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_end, runner, close_first),
            daemon=True,
        )
        self.proc.start()
        child_end.close()

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:  # pragma: no cover
            pass


class WorkerPool:
    """Persistent fixed-size process pool with exact failure attribution.

    ``runner`` must be a module-level callable (workers are started
    with the ``fork`` start method where available, so it is inherited;
    under ``spawn`` it must be picklable).  Workers start lazily on the
    first :meth:`map` and persist across calls until :meth:`shutdown`.
    """

    def __init__(self, size: int, runner: Callable[[Any], Any]):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = mp.get_context()
        self.size = int(size)
        self.runner = runner
        self._workers: List[_Worker] = []
        #: Replacement workers left before deaths become terminal — one
        #: fresh pool's worth, the "resubmit to a fresh pool once"
        #: budget.  Replenished by :meth:`shutdown` (a new pool starts
        #: with a clean slate).
        self._respawns_left = int(size)

    # -- lifecycle ---------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        siblings = [w.conn for w in self._workers]
        worker = _Worker(self._ctx, self.runner, siblings)
        self._workers.append(worker)
        return worker

    def _ensure_workers(self) -> None:
        while len(self._workers) < self.size:
            self._spawn_worker()

    def _discard_worker(self, worker: _Worker) -> None:
        worker.close()
        if worker.proc.is_alive():  # pragma: no cover - hung process
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        self._workers.remove(worker)

    def shutdown(self) -> None:
        """Stop every worker and reset the respawn budget."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - hung worker
                worker.proc.terminate()
                worker.proc.join(timeout=5.0)
            worker.close()
        self._workers = []
        self._respawns_left = self.size

    # -- execution ---------------------------------------------------

    def map(self, payloads: Sequence[Any]) -> List[Any]:
        """Run ``runner(payload)`` for each payload; order-preserving.

        Each element of the returned list is either the runner's return
        value, as received, or a :class:`WorkerCrash` describing why
        that job has no result.
        Never raises for worker failure.
        """
        self._ensure_workers()
        outcomes: Dict[int, Any] = {}
        pending = deque(range(len(payloads)))

        def dispatch() -> None:
            for worker in list(self._workers):
                if worker.job is None and pending:
                    worker.job = pending.popleft()
                    try:
                        worker.conn.send(payloads[worker.job])
                    except (BrokenPipeError, OSError):
                        self._on_death(worker, outcomes)

        def _fail_pending(reason: str) -> None:
            while pending:
                outcomes[pending.popleft()] = WorkerCrash(reason)

        dispatch()
        while len(outcomes) < len(payloads):
            busy = [w for w in self._workers if w.job is not None]
            if not busy:
                if pending and not self._workers:
                    _fail_pending(
                        "worker pool exhausted its respawn budget; "
                        "job was never started"
                    )
                    continue
                dispatch()
                continue
            ready = connection_wait([w.conn for w in busy], timeout=1.0)
            if not ready:
                # Belt and braces: wait() flags dead peers as readable,
                # but poll liveness in case a platform misses it.
                for worker in busy:
                    if not worker.proc.is_alive():
                        self._on_death(worker, outcomes)
                dispatch()
                continue
            for conn in ready:
                worker = next(w for w in self._workers if w.conn is conn)
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    self._on_death(worker, outcomes)
                    continue
                if status == "ok":
                    outcomes[worker.job] = value
                else:
                    outcomes[worker.job] = WorkerCrash(value)
                worker.job = None
            dispatch()
        return [outcomes[i] for i in range(len(payloads))]

    def _on_death(self, worker: _Worker, outcomes: Dict[int, Any]) -> None:
        """Fail the dead worker's in-flight job, respawn within budget."""
        exitcode = worker.proc.exitcode
        job = worker.job
        self._discard_worker(worker)
        if job is not None:
            outcomes[job] = WorkerCrash(
                f"worker process died while running this job "
                f"(exitcode={exitcode}); the campaign continued without it"
            )
        if self._respawns_left > 0:
            self._respawns_left -= 1
            self._spawn_worker()
