"""Tests for the structural Verilog writer.

No external simulator is assumed: the emitted expressions are re-parsed
by a tiny evaluator and checked against the Python simulator.
"""

import re

import pytest

from repro.netlist.graph import SeqCircuit
from repro.netlist.verilog import write_verilog
from repro.verify.simulate import Simulator
from tests.helpers import AND2, BUF, XOR2, random_seq_circuit


def tiny_seq():
    c = SeqCircuit("tiny")
    a, b = c.add_pi("a"), c.add_pi("b")
    g1 = c.add_gate("g1", XOR2, [(a, 0), (b, 0)])
    g2 = c.add_gate("g2", AND2, [(g1, 1), (a, 0)])
    c.add_po("y", g2)
    return c


class _VerilogEval:
    """Minimal evaluator for the writer's output (assigns + shift regs)."""

    def __init__(self, text: str):
        self.assigns = {}
        self.shifts = []  # (dst, src)
        self.resets = []
        for m in re.finditer(r"assign (\w+) = (.+);", text):
            self.assigns[m.group(1)] = m.group(2)
        for m in re.finditer(r"(\w+) <= (\w+);", text):
            if m.group(2) == "1'b0":
                self.resets.append(m.group(1))
            else:
                self.shifts.append((m.group(1), m.group(2)))
        self.state = {dst: 0 for dst, _ in self.shifts}
        self.state.update({r: 0 for r in self.resets})

    def _expr(self, expr, env):
        expr = expr.replace("1'b1", "1").replace("1'b0", "0")
        names = sorted(set(re.findall(r"[A-Za-z_]\w*", expr)), key=len, reverse=True)
        for name in names:
            expr = re.sub(rf"\b{name}\b", str(env[name]), expr)
        expr = re.sub(r"~\s*(\d)", r"(1^\1)", expr)
        return eval(expr, {}, {}) & 1

    def step(self, inputs, rst=0):
        env = dict(inputs)
        env.update(self.state)
        env["rst"] = rst
        # assigns may depend on each other: fixpoint over a few passes
        for _ in range(len(self.assigns) + 1):
            for name, expr in self.assigns.items():
                try:
                    env[name] = self._expr(expr, env)
                except KeyError:
                    continue
        new_state = {}
        for dst, src in self.shifts:
            new_state[dst] = 0 if rst else env[src]
        self.state.update(new_state)
        return env


class TestWriter:
    def test_module_structure(self):
        text = write_verilog(tiny_seq())
        assert text.startswith("module tiny (")
        assert "input clk;" in text
        assert "input rst;" in text
        assert "output y;" in text
        assert "endmodule" in text

    def test_no_registers_no_clock(self):
        c = SeqCircuit("comb")
        a, b = c.add_pi("a"), c.add_pi("b")
        g = c.add_gate("g", AND2, [(a, 0), (b, 0)])
        c.add_po("y", g)
        text = write_verilog(c)
        assert "clk" not in text
        assert "always" not in text

    def test_identifier_sanitization(self):
        c = SeqCircuit("we~ird")
        a = c.add_pi("in put")
        g = c.add_gate("g~s0", BUF, [(a, 0)])
        c.add_po("o@po", g)
        text = write_verilog(c)
        assert "we_ird" in text
        assert "in_put" in text
        assert "g_s0" in text

    def test_reset_optional(self):
        text = write_verilog(tiny_seq(), reset=None)
        assert "rst" not in text
        assert "always" in text

    def test_semantics_match_simulator(self):
        c = tiny_seq()
        text = write_verilog(c)
        ref = Simulator(c, lanes=1)
        dut = _VerilogEval(text)
        from repro.rng import default_rng

        rng = default_rng(3)
        for _ in range(30):
            a, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            got = dut.step({"a": a, "b": b})
            expect = ref.step({c.id_of("a"): a, c.id_of("b"): b})
            assert got["y"] == expect[c.pos[0]]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_semantics(self, seed):
        c = random_seq_circuit(3, 10, seed=seed, feedback=2)
        text = write_verilog(c)
        ref = Simulator(c, lanes=1)
        dut = _VerilogEval(text)
        from repro.rng import default_rng

        rng = default_rng(seed)
        po_names = {
            po: re.sub(r"[^A-Za-z0-9_]", "_", c.name_of(po)) for po in c.pos
        }
        for _ in range(25):
            frame = {f"x{i}": int(rng.integers(0, 2)) for i in range(3)}
            ref_frame = {c.id_of(n): v for n, v in frame.items()}
            got = dut.step(frame)
            expect = ref.step(ref_frame)
            for po, vname in po_names.items():
                assert got[vname] == expect[po], seed
