"""Open-loop timing: latency runs from the due time, not the send time."""

import threading

import openloop


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def sleep(self, dt):
        self.t += dt


def _jobs(*dues):
    return [{"circuit": f"c{i}", "algorithm": "turbomap", "due": d}
            for i, d in enumerate(dues)]


def test_a_stalled_submit_charges_the_later_jobs():
    clock = FakeClock()
    done = {}

    def submit(job):
        if job["circuit"] == "c0":
            clock.t += 1.0  # the first submit stalls for a second
        return {"id": job["circuit"]}

    def wait(job_id):  # an instant server: done on acceptance
        done[job_id] = clock.t
        return {"state": "done", "result": {"phi": 1, "luts": 1}}

    records = openloop.submit_all(
        _jobs(0.0, 0.2, 0.4, 2.0), submit,
        on_accepted=lambda record: openloop.wait_one(record, wait, clock.now),
        t0=0.0, now=clock.now, sleep=clock.sleep,
    )
    ops = openloop.latency_ops(records)
    assert [round(op["seconds"], 9) for op in ops] == [1.0, 0.8, 0.6, 0.0]
    assert [round(r["sent"] - r["due"], 9) for r in records] == [0.0, 0.8, 0.6, 0.0]
    assert records[3]["sent"] == 2.0  # on schedule again: it slept until due
    assert [op["ack_s"] for op in ops] == [1.0, 0.0, 0.0, 0.0]


def test_unfinished_and_degraded_jobs_fail():
    records = [
        {"circuit": "a", "algorithm": "turbomap", "due": 0.0, "sent": 0.0,
         "ack": 0.0, "done": 1.0, "error": None, "job_id": "j1",
         "view": {"state": "failed", "error": {"error": "RuntimeError"}}},
        {"circuit": "b", "algorithm": "turbosyn", "due": 0.0, "sent": 0.0,
         "ack": 0.0, "done": 1.0, "error": None, "job_id": "j2",
         "view": {"state": "done", "result": {"degraded": True,
                                              "degraded_reason": "deadline"}}},
    ]
    ops = openloop.latency_ops(records)
    assert ops[0]["error"].startswith("job failed")
    assert ops[1]["error"] == "degraded (deadline)"


def test_threaded_run_waits_in_admission_order():
    order = []
    lock = threading.Lock()

    def wait(job_id):
        with lock:
            order.append(job_id)
        return {"state": "done", "result": {"phi": 1, "luts": 1}}

    records, _t0 = openloop.run_open_loop(
        _jobs(0.0, 0.001, 0.002), lambda job: {"id": job["circuit"]}, wait
    )
    assert order == ["c0", "c1", "c2"]
    assert all("done" in r for r in records)
