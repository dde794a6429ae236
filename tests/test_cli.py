"""Tests for the command line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.netlist.blif import read_blif_file, write_blif_file
from repro.netlist.graph import SeqCircuit
from tests.helpers import AND2, XOR2


@pytest.fixture
def small_blif(tmp_path):
    c = SeqCircuit("small")
    xs = [c.add_pi(f"x{i}") for i in range(4)]
    g = [c.add_gate_placeholder(f"g{i}", AND2 if i % 2 else XOR2) for i in range(4)]
    for i in range(4):
        c.set_fanins(g[i], [(g[(i - 1) % 4], 1 if i == 0 else 0), (xs[i], 0)])
    c.add_po("y", g[-1])
    c.check()
    path = tmp_path / "small.blif"
    write_blif_file(c, str(path))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map", "x.blif"])
        args.algo == "turbosyn"
        assert args.k == 5

    def test_bad_algo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map", "x.blif", "--algo", "magic"])

    def test_budget_flags(self):
        args = build_parser().parse_args(
            ["map", "x.blif", "--timeout", "5", "--probe-timeout", "0.5"]
        )
        assert args.timeout == 5.0
        assert args.probe_timeout == 0.5
        args = build_parser().parse_args(["suite", "--timeout", "30"])
        assert args.timeout == 30.0 and args.probe_timeout is None

    @pytest.mark.parametrize(
        "flag", ["--engine", "--flow", "--kernel", "--workers"]
    )
    @pytest.mark.parametrize(
        "argv", [["map", "x.blif"], ["suite"]], ids=["argv0", "argv2"]
    )
    def test_label_engine_selectors_are_gone(self, argv, flag, capsys):
        # One label path and one sequential phi search: the old
        # selectors are not silently accepted.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv + [flag, "compiled"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_remap_is_gone(self, capsys):
        # An edited circuit is mapped like any other: `map EDITED`.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["remap", "a.blif", "b.blif"])
        assert info.value.code == 2
        assert "invalid choice: 'remap'" in capsys.readouterr().err

    def test_suite_circuit_and_resume_flags(self):
        args = build_parser().parse_args(
            ["suite", "--circuit", "bbara", "--circuit", "dk16",
             "--resume", "ck.json"]
        )
        assert args.circuit == ["bbara", "dk16"]
        assert args.resume == "ck.json"


class TestCommands:
    def test_stats(self, small_blif, capsys):
        assert main(["stats", small_blif]) == 0
        out = capsys.readouterr().out
        assert "MDR bound" in out

    @pytest.mark.parametrize("algo", ["turbomap", "turbosyn", "flowsyn-s"])
    def test_map(self, small_blif, capsys, algo):
        assert main(["map", small_blif, "--algo", algo, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "phi=" in out

    def test_map_with_output_and_retime(self, small_blif, tmp_path, capsys):
        out_path = str(tmp_path / "mapped.blif")
        code = main(
            ["map", small_blif, "--algo", "turbosyn", "--out", out_path, "--retime"]
        )
        assert code == 0
        assert os.path.exists(out_path)
        mapped, _ = read_blif_file(out_path)
        mapped.check()

    def test_map_report(self, small_blif, tmp_path, capsys):
        import json

        report_path = str(tmp_path / "run.json")
        code = main(
            [
                "map",
                small_blif,
                "--algo",
                "turbomap",
                "-k",
                "4",
                "--report",
                report_path,
            ]
        )
        assert code == 0
        assert "wrote report" in capsys.readouterr().out
        report = json.load(open(report_path))
        assert report["kind"] == "map"
        assert "workers" not in report
        (run,) = report["runs"]
        assert run["algorithm"] == "turbomap"
        assert run["phi"] >= 1
        assert "t_search" in run["search"]

    def test_gen(self, tmp_path, capsys):
        out_path = str(tmp_path / "bbara.blif")
        assert main(["gen", "bbara", out_path]) == 0
        circuit, _ = read_blif_file(out_path)
        assert circuit.n_gates > 100

    def test_gen_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["gen", "unknown_bench", "/tmp/x.blif"])

    def test_verify_equivalent(self, small_blif, tmp_path, capsys):
        mapped = str(tmp_path / "m.blif")
        main(["map", small_blif, "--algo", "turbomap", "--out", mapped])
        capsys.readouterr()
        assert main(["verify", small_blif, mapped, "--cycles", "48"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_verify_detects_difference(self, small_blif, tmp_path, capsys):
        # Invert one gate: the circuits must differ.
        circuit, _ = read_blif_file(small_blif)
        gate = circuit.gates[0]
        node = circuit.node(gate)
        node.func = ~node.func
        other = str(tmp_path / "other.blif")
        write_blif_file(circuit, other)
        code = main(["verify", small_blif, other, "--cycles", "48"])
        assert code == 1

    def test_critical(self, small_blif, capsys):
        assert main(["critical", small_blif, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "MDR ratio" in out

    def test_dot_export(self, small_blif, tmp_path):
        out = str(tmp_path / "c.dot")
        assert main(["dot", small_blif, out, "--highlight-critical"]) == 0
        assert open(out).read().startswith("digraph")

    def test_verilog_export(self, small_blif, tmp_path, capsys):
        out = str(tmp_path / "mapped.v")
        code = main(
            ["map", small_blif, "--algo", "turbomap", "--verilog", out, "--retime"]
        )
        assert code == 0
        text = open(out).read()
        assert text.startswith("module")
        assert "endmodule" in text


@pytest.fixture
def _clean_faults():
    from repro.resilience import faultinject

    faultinject.reset()
    yield
    faultinject.clear()


class TestSuiteResilienceCli:
    """suite: fault boundary, checkpoint on Ctrl-C (exit 130), resume."""

    ARGS = [
        "suite", "--circuit", "bbara",
        "--algo", "flowsyn-s", "--algo", "turbomap", "--no-check",
    ]

    def _install(self, site_match, action):
        from repro.resilience import faultinject
        from repro.resilience.faultinject import Fault, FaultPlan

        faultinject.install(
            FaultPlan([Fault("suite-cell", action, match=site_match)])
        )

    def test_cell_failure_exits_one_with_complete_report(
        self, tmp_path, capsys, _clean_faults
    ):
        import json

        report = str(tmp_path / "r.json")
        self._install("bbara:turbomap", "raise")
        assert main(self.ARGS + ["--report", report]) == 1
        captured = capsys.readouterr()
        assert "ERR:InjectedFault" in captured.out
        assert "--resume" in captured.err
        persisted = json.load(open(report))
        assert len(persisted["runs"]) == 1
        (err,) = persisted["errors"]
        assert err["error"] == "InjectedFault"

    def test_interrupt_exits_130_with_flushed_checkpoint(
        self, tmp_path, capsys, _clean_faults
    ):
        import json

        report = str(tmp_path / "r.json")
        self._install("bbara:turbomap", "interrupt")
        assert main(self.ARGS + ["--report", report]) == 130
        assert "interrupted" in capsys.readouterr().err
        persisted = json.load(open(report))
        assert [
            (r["circuit"], r["algorithm"]) for r in persisted["runs"]
        ] == [("bbara", "flowsyn-s")]

    def test_resume_completes_only_missing_cells(
        self, tmp_path, capsys, _clean_faults
    ):
        import json

        first = str(tmp_path / "first.json")
        self._install("bbara:turbomap", "raise")
        assert main(self.ARGS + ["--report", first]) == 1

        from repro.resilience import faultinject

        faultinject.clear()
        capsys.readouterr()
        second = str(tmp_path / "second.json")
        code = main(self.ARGS + ["--resume", first, "--report", second])
        assert code == 0
        out = capsys.readouterr().out
        assert "cached" in out  # flowsyn-s cell reused, not re-run
        persisted = json.load(open(second))
        assert len(persisted["runs"]) == 2
        assert persisted["errors"] == []

    def test_bad_resume_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(self.ARGS + ["--resume", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_circuit_exits_two(self, capsys):
        code = main(["suite", "--circuit", "bogus", "--algo", "flowsyn-s"])
        assert code == 2
        assert "valid suite names" in capsys.readouterr().err
