"""The worker-lane scheduler: execution of accepted jobs.

The service keeps the *decisions* (journal, state machine); the
scheduler keeps the *muscle*: ``max_active`` worker lanes (threads, each
running one job's phi search in process at a time) draining a FIFO
hand-off queue.  A job that fails is the service's to record; the lane
goes on to the next job.

The ``worker-dispatch`` fault-injection site fires in the lane right
before it picks the job up — killing there crashes the service with the
job journaled but unstarted, which recovery must re-dispatch.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Dict, List, Optional

#: A runner executes one job (by id) on the calling lane.
JobRunner = Callable[[str], None]

_STOP = None  # queue sentinel


class Scheduler:
    """``max_active`` worker lanes draining a FIFO of accepted job ids."""

    def __init__(self, runner: JobRunner, max_active: int = 1) -> None:
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        self._runner = runner
        self._max_active = max_active
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._lock = threading.Lock()
        #: job ids currently executing, by lane (observability).
        self.active: Dict[int, Optional[str]] = {
            lane: None for lane in range(max_active)
        }

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
        for lane in range(self._max_active):
            thread = threading.Thread(
                target=self._lane_loop,
                args=(lane,),
                name=f"repro-serve-lane-{lane}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop lanes after the queue drains (one sentinel per lane)."""
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = [t for t in self._threads if t.is_alive()]
        self._started = False

    @property
    def running(self) -> bool:
        return self._started

    # -- dispatch -------------------------------------------------------
    def enqueue(self, job_id: str) -> None:
        self._queue.put(job_id)

    def backlog(self) -> int:
        """Jobs handed over but not yet picked up by a lane."""
        return self._queue.qsize()

    def _lane_loop(self, lane: int) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is _STOP:
                return
            self.active[lane] = job_id
            try:
                self._runner(job_id)
            finally:
                self.active[lane] = None
