"""Open-loop load: jobs are sent on a schedule and timed from when they
were due, so a stalled submit charges the wait to every later job.

One submitter thread sends each job at its due time (never early, late
when the previous submit stalled); one waiter thread long-polls the
accepted jobs in admission order.  The caller supplies ``submit(job)``
(returns the job view; raises on refusal) and ``wait(job_id)`` (returns
the terminal view), plus a clock, so tests can drive it with fakes.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

Clock = Callable[[], float]


def _error(exc: BaseException) -> str:
    if getattr(exc, "status", None) == 429:
        return "refused (429)"
    return f"{type(exc).__name__}: {exc}"


def submit_all(
    jobs: Sequence[dict],
    submit: Callable[[dict], dict],
    on_accepted: Callable[[dict], None],
    t0: float,
    now: Clock = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[dict]:
    """Send every job at ``t0 + job["due"]``; one record per job.

    A record holds the job's ``due``, ``sent`` and ``ack`` times and its
    ``job_id``, or an ``error`` when the submit raised.
    """
    records = []
    for job in jobs:
        due = t0 + job["due"]
        delay = due - now()
        if delay > 0:
            sleep(delay)
        record = {"circuit": job["circuit"], "algorithm": job["algorithm"],
                  "due": due, "sent": now(), "error": None}
        records.append(record)
        try:
            view = submit(job)
        except Exception as exc:  # noqa: BLE001 -- counted as a failed job
            record["error"] = _error(exc)
            continue
        record["ack"] = now()
        record["job_id"] = view["id"]
        on_accepted(record)
    return records


def wait_one(record: dict, wait: Callable[[str], dict], now: Clock) -> None:
    """Block until the record's job is terminal; stamp ``done``."""
    try:
        view = wait(record["job_id"])
    except Exception as exc:  # noqa: BLE001 -- counted as a failed job
        record["error"] = _error(exc)
        return
    record["done"] = now()
    record["view"] = view


def run_open_loop(
    jobs: Sequence[dict],
    submit: Callable[[dict], dict],
    wait: Callable[[str], dict],
    now: Clock = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> "tuple[List[dict], float]":
    """Run the schedule with a submitter and a waiter thread.

    Returns the per-job records and the schedule origin ``t0``.
    """
    accepted: "queue.Queue[Optional[dict]]" = queue.Queue()

    def waiter() -> None:
        while True:
            record = accepted.get()
            if record is None:
                return
            wait_one(record, wait, now)

    thread = threading.Thread(target=waiter, name="e2e-waiter")
    t0 = now()
    thread.start()
    try:
        records = submit_all(jobs, submit, accepted.put, t0, now, sleep)
    finally:
        accepted.put(None)
        thread.join()
    return records, t0


def latency_ops(records: Sequence[dict]) -> List[dict]:
    """Op records of an open-loop run: latency runs from the due time to
    the terminal state; refused, failed, cancelled or degraded jobs fail.
    """
    ops = []
    for record in records:
        op: Dict[str, object] = {
            "circuit": record["circuit"], "algorithm": record["algorithm"],
            "phi": None, "luts": None, "error": record["error"], "problems": [],
            "job_id": record.get("job_id"),
        }
        if "ack" in record:
            op["ack_s"] = record["ack"] - record["sent"]
        view = record.get("view")
        if op["error"] is None and view is not None:
            op["seconds"] = record["done"] - record["due"]
            summary = view.get("result") or {}
            if view.get("state") != "done":
                op["error"] = f"job {view.get('state')}: {view.get('error')}"
            elif summary.get("degraded"):
                op["error"] = f"degraded ({summary.get('degraded_reason')})"
            else:
                op["phi"], op["luts"] = summary.get("phi"), summary.get("luts")
        ops.append(op)
    return ops
