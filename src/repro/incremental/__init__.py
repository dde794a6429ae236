"""Incremental remapping: edit a circuit, repair its mapping in O(cone).

The dominant real workload around a technology mapper is the
edit-and-remap loop — mutate a few gates, re-ask for the minimum clock
period.  This package makes that loop incremental end to end while
keeping the answer **bit-identical** to a cold run:

* :func:`repro.incremental.dirty.dirty_region` bounds the effect of a
  journaled k-gate edit (:meth:`repro.netlist.graph.SeqCircuit
  .begin_journal`) to the forward closure of the edited nodes — the
  only nodes whose transitive fanin cone, and therefore label, can
  change;
* :func:`repro.incremental.session.remap` re-runs the phi search with
  every clean label adopted verbatim from the previous fixpoint, clean
  SCCs (and their positive-loop detection) skipped, and only dirty cut
  witnesses revalidated (:class:`repro.core.labels.DirtySeed`); the
  edited circuit compiles its own CSR kernel like any other circuit
  (a compile costs about 1 µs per node, far below one probe);
* :mod:`repro.incremental.fuzz` is the differential gate: seeded random
  k-gate mutations over the benchmark suite, asserting the incremental
  phi / labels / mapped network bit-identical to a cold run (the CI
  ``edit-fuzz-differential`` job runs it as ``python -m
  repro.incremental.fuzz``).

:func:`repro.incremental.diff.circuit_edits` aligns two standalone
circuits (e.g. two BLIF files) into the same edit records, which is how
``repro remap`` drives this machinery from the command line.
"""

from repro.incremental.diff import circuit_edits
from repro.incremental.dirty import dirty_region
from repro.incremental.session import IncrementalSession, remap

__all__ = [
    "IncrementalSession",
    "circuit_edits",
    "dirty_region",
    "remap",
]
