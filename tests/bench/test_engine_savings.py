"""Warm starts save deterministic work while returning identical results.

Cold vs warm phi searches on the one label path: every quick-suite cell
(with and without resynthesis) must reach the same ``phi_min`` and
labels, and summed over the quick subset the warm searches must do
strictly fewer ``updates`` and ``flow_queries``.  Both counters are
machine-independent work measures, so this is asserted exactly, with no
wall-clock noise.
"""

from repro.bench import suite as bench_suite
from repro.core.driver import search_min_phi
from repro.retime.mdr import min_feasible_period


class TestEngineSavings:
    def test_warm_start_saves_counters_on_quick_suite(self):
        totals = {
            "cold": {"updates": 0, "flow_queries": 0},
            "warm": {"updates": 0, "flow_queries": 0},
        }
        for name in bench_suite.quick_subset():
            c = bench_suite.build(name)
            upper = min_feasible_period(c)
            for resyn in (False, True):
                phi_cold, out_cold = search_min_phi(
                    c, 5, upper, resyn, warm_start=False
                )
                phi_warm, out_warm = search_min_phi(
                    c, 5, upper, resyn, warm_start=True
                )
                assert phi_warm == phi_cold, (name, resyn)
                assert (
                    out_warm[phi_warm].labels == out_cold[phi_cold].labels
                ), (name, resyn)
                for tag, outs in (("cold", out_cold), ("warm", out_warm)):
                    for outcome in outs.values():
                        totals[tag]["updates"] += outcome.stats.updates
                        totals[tag]["flow_queries"] += (
                            outcome.stats.flow_queries
                        )
        for counter in ("updates", "flow_queries"):
            cold, warm = totals["cold"][counter], totals["warm"][counter]
            assert warm < cold, (
                f"{counter}: warm searches spent {warm} vs {cold} cold"
            )
