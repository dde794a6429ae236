"""Seeded inputs: the same seed gives the same bytes, seed 0 is the suite."""

import pytest
from repro.bench import suite
from repro.netlist.blif import read_blif, write_blif

import workloads


@pytest.mark.parametrize("name", ["bbara", "s838"])
def test_seed_zero_is_the_canonical_suite(name):
    assert write_blif(workloads.build_circuit(name, 0)) == write_blif(suite.build(name))


@pytest.mark.parametrize("name", ["dk16", "s838"])
def test_other_seeds_relabel_deterministically(name):
    one = write_blif(workloads.build_circuit(name, 4))
    assert one == write_blif(workloads.build_circuit(name, 4))
    assert one != write_blif(workloads.build_circuit(name, 5))
    assert one != write_blif(suite.build(name))


def test_relabel_is_an_isomorphic_copy():
    original = suite.build("s838")
    copy = workloads.relabel(original, 9)
    assert copy.stats() == original.stats()
    assert sorted(map(copy.name_of, copy.pis)) == sorted(map(original.name_of, original.pis))
    assert list(map(copy.name_of, copy.pos)) == list(map(original.name_of, original.pos))
    assert copy.clock_period() == original.clock_period()


def test_batch_ops():
    assert len(workloads.batch_ops("cold-syn")) == 5
    assert len(workloads.batch_ops("cold-map")) == 16
    assert workloads.batch_ops("warm-mix")[:2] == [("bbara", "turbomap"), ("bbara", "turbosyn")]


def test_serve_stream_is_seeded_and_keeps_its_shares():
    jobs = workloads.serve_jobs(3, 10)
    assert jobs == workloads.serve_jobs(3, 10)
    assert [j["blif"] for j in jobs] != [j["blif"] for j in workloads.serve_jobs(4, 10)]
    assert len(jobs) == workloads.SERVE_MIN_JOBS
    dues = [j["due"] for j in jobs]
    assert dues == sorted(dues)
    assert all(i <= d * workloads.SERVE_RATE < i + 1 for i, d in enumerate(dues))
    pairs = [(j["circuit"], j["algorithm"]) for j in jobs]
    assert len(pairs) - len(set(pairs)) == 25
    assert sum(1 for _c, a in set(pairs) if a == "turbosyn") == 22  # 30% of 75
    for job in jobs[:3]:
        circuit, _info = read_blif(job["blif"])
        circuit.check()
