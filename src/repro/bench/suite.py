"""The Table-1 benchmark suite: 12 MCNC-FSM-like + 4 ISCAS'89-like circuits.

The paper evaluates on 12 MCNC FSM benchmarks and 4 ISCAS'89 circuits
processed by SIS + dmig.  Those netlists are not redistributable, so each
suite entry is a *synthetic stand-in generated with the named benchmark's
published state/input/output profile* (FSMs; inputs/outputs capped at
8/19 to keep the structural synthesis tractable — see ``DESIGN.md``
Section 3) or a datapath composition sized to a comparable gate/FF count
(ISCAS-like entries).  All generation is seeded and deterministic, so
every run of the benchmark harness sees the same circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.bench.datapath import datapath_circuit
from repro.bench.fsm import fsm_to_circuit, random_fsm
from repro.netlist.graph import SeqCircuit


@dataclass(frozen=True)
class SuiteEntry:
    """One benchmark of the Table-1 suite."""

    name: str
    kind: str  # "fsm" or "datapath"
    params: tuple
    description: str

    def build(self) -> SeqCircuit:
        if self.kind == "fsm":
            states, inputs, outputs, seed, depth = self.params
            fsm = random_fsm(
                self.name, states, inputs, outputs, seed=seed, split_depth=depth
            )
            return fsm_to_circuit(fsm)
        if self.kind == "datapath":
            width, blocks, seed = self.params
            return datapath_circuit(self.name, width, seed=seed, n_blocks=blocks)
        raise ValueError(f"unknown suite kind {self.kind!r}")


#: The 12 MCNC-FSM-like entries carry the published benchmark profiles
#: (states, inputs, outputs, seed, guard split depth) — large I/O counts
#: capped, and the two largest controllers use a shallower transition
#: split to bound the synthesized gate count; the 4 ISCAS-like entries
#: are (bus width, block count, seed) datapath mixes.
SUITE: List[SuiteEntry] = [
    SuiteEntry("bbara", "fsm", (10, 4, 2, 101, 4), "MCNC bbara profile: 10 states"),
    SuiteEntry("bbsse", "fsm", (16, 7, 7, 102, 4), "MCNC bbsse profile: 16 states"),
    SuiteEntry("cse", "fsm", (16, 7, 7, 103, 4), "MCNC cse profile: 16 states"),
    SuiteEntry("dk16", "fsm", (27, 2, 3, 104, 4), "MCNC dk16 profile: 27 states"),
    SuiteEntry("keyb", "fsm", (19, 7, 2, 105, 4), "MCNC keyb profile: 19 states"),
    SuiteEntry("kirkman", "fsm", (16, 8, 6, 106, 4), "MCNC kirkman (inputs capped at 8)"),
    SuiteEntry("planet", "fsm", (48, 7, 19, 107, 3), "MCNC planet profile: 48 states"),
    SuiteEntry("s1", "fsm", (20, 8, 6, 108, 4), "MCNC s1 profile: 20 states"),
    SuiteEntry("sand", "fsm", (32, 8, 9, 109, 4), "MCNC sand (inputs capped at 8)"),
    SuiteEntry("scf", "fsm", (121, 8, 16, 110, 3), "MCNC scf (I/O capped at 8/16)"),
    SuiteEntry("sse", "fsm", (16, 7, 7, 111, 4), "MCNC sse profile: 16 states"),
    SuiteEntry("styr", "fsm", (30, 8, 10, 112, 4), "MCNC styr (inputs capped at 8)"),
    SuiteEntry("s838", "datapath", (16, 4, 201), "ISCAS s838-like datapath"),
    SuiteEntry("s953", "datapath", (20, 5, 202), "ISCAS s953-like datapath"),
    SuiteEntry("s1423", "datapath", (24, 6, 203), "ISCAS s1423-like datapath"),
    SuiteEntry("s5378", "datapath", (32, 8, 204), "ISCAS s5378-like datapath"),
]

_BY_NAME: Dict[str, SuiteEntry] = {e.name: e for e in SUITE}


def entry(name: str) -> SuiteEntry:
    """Look up one suite entry; unknown names list the valid ones."""
    try:
        return _BY_NAME[name]
    except KeyError:
        valid = ", ".join(e.name for e in SUITE)
        raise ValueError(
            f"unknown benchmark name {name!r}; valid suite names: {valid}"
        ) from None


def build(name: str) -> SeqCircuit:
    """Build one suite circuit by benchmark name."""
    return entry(name).build()


def build_suite(names: Optional[Iterable[str]] = None) -> Dict[str, SeqCircuit]:
    """Build the full suite (or a named subset), deterministically."""
    selected = list(names) if names is not None else [e.name for e in SUITE]
    return {name: build(name) for name in selected}


def quick_subset() -> List[str]:
    """The smaller circuits, used by CI-speed tests and examples."""
    return ["bbara", "bbsse", "dk16", "keyb", "s838"]


#: Algorithms the JSON suite report knows how to run.  ``flowsyn-s`` has
#: no phi search, so it ignores the worker count.
REPORT_ALGORITHMS = ("flowsyn-s", "turbomap", "turbosyn")


#: Signature of the per-cell progress callback of
#: :func:`run_suite_report`:
#: ``on_cell(circuit, algorithm, run, error, elapsed, cached)`` — exactly
#: one of ``run`` (the serialized mapper run) and ``error`` (the
#: structured error entry) is non-``None``; ``cached`` marks cells
#: skipped because a resumed report already contained them.
CellCallback = Callable[
    [str, str, Optional[dict], Optional[dict], float, bool], None
]


def _completed_cells(report: Optional[dict]) -> "tuple[list, set]":
    """The runs of a prior (possibly partial) report, and their keys."""
    if not report:
        return [], set()
    runs = [dict(run) for run in report.get("runs", [])]
    return runs, {(r.get("circuit"), r.get("algorithm")) for r in runs}


def run_suite_report(
    names: Optional[Iterable[str]] = None,
    k: int = 5,
    algorithms: Iterable[str] = REPORT_ALGORITHMS,
    check: bool = True,
    timeout: Optional[float] = None,
    probe_timeout: Optional[float] = None,
    checkpoint: Optional[str] = None,
    resume: Optional[dict] = None,
    on_cell: Optional[CellCallback] = None,
    max_copies: Optional[int] = None,
    cache: Optional[object] = None,
) -> dict:
    """Run mappers over suite circuits and return a JSON-able perf report.

    This is the machine-readable twin of the CLI ``suite`` table (and the
    producer of ``benchmarks/baseline.json``): one
    :func:`repro.perf.report.mapper_run` entry per (circuit, algorithm),
    wrapped in a schema-versioned envelope.  Used by the CI smoke job,
    which gates the result with :mod:`repro.perf.check`.

    Resilience: every (circuit, algorithm) cell runs inside a fault
    boundary — an exception is recorded as a structured entry in the
    report's ``errors`` list instead of aborting the sweep.  ``timeout``
    and ``probe_timeout`` build a fresh per-cell
    :class:`~repro.resilience.budget.Budget` (expired cells degrade to
    their best-known answer).  ``checkpoint`` atomically rewrites the
    report-so-far after every cell, so an interrupted sweep (including
    Ctrl-C, which re-raises after the flush) loses at most the cell in
    flight.  ``resume`` takes a previously written report (as returned
    by :func:`repro.perf.report.load_report`): its successful runs are
    kept verbatim and skipped; errored or missing cells are re-run.
    ``max_copies`` bounds each partial expansion of the phi-searching
    mappers (TurboMap / TurboSYN).  ``cache`` (a persistent
    :class:`repro.cache.OutcomeCache`) warms the phi-searching mappers
    across runs — bit-identical results, and a snapshot of the cache's
    hit/miss counters is attached to the report envelope.
    """
    import time

    from repro.core.expanded import DEFAULT_MAX_COPIES
    from repro.core.flowsyn_s import flowsyn_s
    from repro.core.turbomap import turbomap
    from repro.core.turbosyn import turbosyn
    from repro.perf import report as perf_report
    from repro.resilience.budget import Budget
    from repro.resilience.faultinject import fault_point

    copies = DEFAULT_MAX_COPIES if max_copies is None else max_copies
    runners = {
        "flowsyn-s": lambda c, b: flowsyn_s(c, k, check=check),
        "turbomap": lambda c, b: turbomap(
            c, k, check=check, budget=b, max_copies=copies, cache=cache,
        ),
        "turbosyn": lambda c, b: turbosyn(
            c, k, check=check, budget=b, max_copies=copies, cache=cache,
        ),
    }
    selected_algos = list(algorithms)
    unknown = [a for a in selected_algos if a not in runners]
    if unknown:
        raise ValueError(f"unknown report algorithm(s): {unknown}")
    selected_names = (
        list(names) if names is not None else [e.name for e in SUITE]
    )
    runs, done = _completed_cells(resume)
    errors: List[dict] = []

    def cache_snapshot() -> Optional[dict]:
        return cache.stats() if cache is not None else None

    def flush(path: Optional[str]) -> None:
        if path is not None:
            perf_report.write_report(
                perf_report.suite_report(
                    runs, k=k, errors=errors, cache=cache_snapshot(),
                ),
                path,
            )

    for name in selected_names:
        entry(name)  # unknown names fail fast, before hours of mapping
    for name in selected_names:
        try:
            circuit = build(name)
        except Exception as exc:  # pragma: no cover - defensive boundary
            for algo in selected_algos:
                if (name, algo) in done:
                    continue
                err = perf_report.error_entry(name, algo, exc, stage="build")
                errors.append(err)
                if on_cell is not None:
                    on_cell(name, algo, None, err, 0.0, False)
            flush(checkpoint)
            continue
        for algo in selected_algos:
            if (name, algo) in done:
                if on_cell is not None:
                    cached = next(
                        r for r in runs
                        if (r.get("circuit"), r.get("algorithm")) == (name, algo)
                    )
                    on_cell(name, algo, cached, None, 0.0, True)
                continue
            budget = None
            if timeout is not None or probe_timeout is not None:
                budget = Budget(deadline=timeout, probe_timeout=probe_timeout)
            t0 = time.perf_counter()
            try:
                fault_point("suite-cell", tag=f"{name}:{algo}")
                result = runners[algo](circuit, budget)
                seconds = time.perf_counter() - t0
                run = perf_report.mapper_run(result, circuit, seconds=seconds)
                runs.append(run)
                if on_cell is not None:
                    on_cell(name, algo, run, None, seconds, False)
            except KeyboardInterrupt:
                flush(checkpoint)  # keep completed cells; then bubble up
                raise
            except Exception as exc:
                seconds = time.perf_counter() - t0
                err = perf_report.error_entry(
                    name, algo, exc, stage="map", elapsed=seconds
                )
                errors.append(err)
                if on_cell is not None:
                    on_cell(name, algo, None, err, seconds, False)
            flush(checkpoint)
    report = perf_report.suite_report(
        runs, k=k, errors=errors, cache=cache_snapshot(),
    )
    flush(checkpoint)
    return report


def large_circuit(scale: int = 4, seed: int = 999) -> SeqCircuit:
    """A scaling-study circuit: several suite-sized blocks glued together.

    ``scale`` multiplies the block count; ``scale=4`` lands in the few-
    thousand-gate range used by ``benchmarks/bench_scaling.py`` (the
    paper's 10^4-gate headline scaled to interpreted-Python throughput —
    see ``DESIGN.md`` Section 3).
    """
    return datapath_circuit("scalex", width=8 * scale, seed=seed, n_blocks=3 * scale)
