"""The search's default upper bound against the Bellman-Ford oracle.

``default_upper_bound`` reads ``max(1, ceil(MDR))`` from the Howard
engine in :mod:`repro.retime.mdr`.  It must equal the smallest integer
period the Bellman-Ford positive-cycle test accepts (and Karp's
maximum cycle mean) *exactly* on every input — any divergence would
silently shift the Figure-4 search trajectory.  All 16 suite circuits
are covered by ``tests/analysis/test_certify.py::TestSuiteCertificates``.
"""

import pytest

from repro.bench.suite import build, quick_subset
from repro.core.driver import default_upper_bound
from repro.core.turbomap import turbomap
from repro.retime.mdr import min_feasible_period
from tests.analysis.test_certify import ring_circuit
from tests.helpers import (
    bf_min_feasible_period,
    karp_min_feasible_period,
    lfsr,
    random_seq_circuit,
)


@pytest.mark.parametrize("name", quick_subset())
def test_equals_bellman_ford_on_the_quick_suite(name):
    c = build(name)
    assert min_feasible_period(c) == bf_min_feasible_period(c)


@pytest.mark.parametrize(
    "n_gates,weight", [(3, 1), (4, 2), (7, 3), (5, 5), (6, 1)]
)
def test_equals_bellman_ford_on_rings(n_gates, weight):
    # MDR = n_gates / weight exactly; ceil() exercises every rounding
    # direction including the exact-integer case.
    c = ring_circuit(n_gates, weight)
    got = min_feasible_period(c)
    assert got == bf_min_feasible_period(c) == karp_min_feasible_period(c)
    assert got == -(-n_gates // weight)


@pytest.mark.parametrize("seed", range(6))
def test_equals_bellman_ford_on_random_circuits(seed):
    c = random_seq_circuit(4, 30, seed=seed, feedback=5)
    assert min_feasible_period(c) == bf_min_feasible_period(c)


def test_equals_bellman_ford_on_lfsr():
    c = lfsr(6, (0, 4))
    assert min_feasible_period(c) == bf_min_feasible_period(c)


def test_acyclic_circuit_is_period_one(seed=2):
    c = random_seq_circuit(4, 20, seed=seed, feedback=0)
    assert min_feasible_period(c) == 1 == bf_min_feasible_period(c)


def test_default_upper_bound_uses_the_exact_pass():
    c = build("dk16")
    assert default_upper_bound(c) == bf_min_feasible_period(c)


@pytest.mark.parametrize("name", quick_subset())
def test_search_trajectory_unchanged(name):
    """The engine's bound is the oracle's, so phi (and the mapping) is."""
    c = build(name)
    via_engine = turbomap(c.copy(), 4)
    via_bf = turbomap(c.copy(), 4, upper_bound=bf_min_feasible_period(c))
    assert via_engine.phi == via_bf.phi
    assert list(via_engine.labels) == list(via_bf.labels)
