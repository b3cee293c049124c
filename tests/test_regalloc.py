"""Tests for liveness, interference, and graph-coloring allocation."""

import json
from pathlib import Path

import pytest

import repro.peephole.optimizer as peephole_optimizer
import repro.regalloc.interference as interference_module
import repro.regalloc.liveness as liveness_module
from repro.asmgen.program import compile_function
from repro.covering import HeuristicConfig, generate_block_solution
from repro.errors import CoverageError, RegisterAllocationError
from repro.eval import WORKLOADS
from repro.frontend import compile_source
from repro.fuzz import load_case
from repro.ir import BlockDAG, Opcode
from repro.isdl import example_architecture, fig6_architecture, parse_machine
from repro.regalloc import (
    InterferenceGraph,
    allocate_registers,
    build_interference_graphs,
    color_graph,
    compute_live_ranges,
)
from repro.regalloc.liveness import LiveRange, pressure_profile

from conftest import build_fig2_dag, build_wide_dag


class TestLiveRange:
    def test_overlap_basic(self):
        a = LiveRange(1, "RF1", 0, 5)
        b = LiveRange(2, "RF1", 3, 7)
        assert a.overlaps(b) and b.overlaps(a)

    def test_touching_ranges_do_not_overlap(self):
        # (0, 3] and (3, 6]: the second value is defined in the cycle the
        # first dies; read-before-write lets them share a register.
        a = LiveRange(1, "RF1", 0, 3)
        b = LiveRange(2, "RF1", 3, 6)
        assert not a.overlaps(b)
        assert not b.overlaps(a)

    def test_nested_ranges_overlap(self):
        outer = LiveRange(1, "RF1", 0, 10)
        inner = LiveRange(2, "RF1", 4, 5)
        assert outer.overlaps(inner)


class TestLiveness:
    def _solution(self, machine_regs=4, dag=None):
        from repro.isdl import example_architecture

        dag = dag or build_fig2_dag()
        return generate_block_solution(
            dag, example_architecture(machine_regs)
        )

    def test_every_register_delivery_has_range(self):
        solution = self._solution()
        ranges = compute_live_ranges(solution)
        assert set(ranges) == set(solution.graph.register_deliveries())

    def test_def_before_last_use(self):
        solution = self._solution()
        for live in compute_live_ranges(solution).values():
            assert live.def_cycle <= live.last_use_cycle

    def test_profile_matches_estimate(self):
        solution = self._solution()
        profile = pressure_profile(solution)
        for bank, counts in profile.items():
            peak = max(counts) if counts else 0
            assert peak <= solution.register_estimate[bank]

    def test_profile_within_capacity(self):
        solution = self._solution(2, build_wide_dag(5))
        profile = pressure_profile(solution)
        for counts in profile.values():
            assert all(c <= 2 for c in counts)


class TestColoring:
    def test_triangle_needs_three_colors(self):
        graph = InterferenceGraph(bank="RF", capacity=3)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(1, 3)
        colors = color_graph(graph)
        assert len(set(colors.values())) == 3

    def test_chain_needs_two(self):
        graph = InterferenceGraph(bank="RF", capacity=2)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        colors = color_graph(graph)
        assert colors[1] != colors[2]
        assert colors[2] != colors[3]

    def test_insufficient_colors_raises(self):
        graph = InterferenceGraph(bank="RF", capacity=2)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(1, 3)
        with pytest.raises(RegisterAllocationError):
            color_graph(graph)

    def test_isolated_nodes_share_color_zero(self):
        graph = InterferenceGraph(bank="RF", capacity=4)
        graph.add_node(7)
        graph.add_node(8)
        colors = color_graph(graph)
        assert colors == {7: 0, 8: 0}

    def test_empty_graph(self):
        graph = InterferenceGraph(bank="RF", capacity=4)
        assert color_graph(graph) == {}


class TestAllocator:
    def _solution(self, regs, dag):
        from repro.isdl import example_architecture

        return generate_block_solution(dag, example_architecture(regs))

    def test_interference_edges_respected(self):
        solution = self._solution(4, build_fig2_dag())
        assignment = allocate_registers(solution)
        graphs = build_interference_graphs(solution)
        for bank_graph in graphs.values():
            for node in bank_graph.nodes:
                for neighbour in bank_graph.neighbours(node):
                    assert (
                        assignment.register_of[node]
                        != assignment.register_of[neighbour]
                    )

    def test_registers_within_bank_size(self):
        solution = self._solution(2, build_wide_dag(5))
        assignment = allocate_registers(solution)
        for delivery, register in assignment.register_of.items():
            bank = solution.graph.tasks[delivery].dest_storage
            assert 0 <= register < solution.graph.machine.register_file(bank).size

    def test_used_per_bank_reported(self):
        solution = self._solution(4, build_fig2_dag())
        assignment = allocate_registers(solution)
        for bank, used in assignment.used_per_bank.items():
            assert 0 <= used <= 4

    def test_allocation_always_succeeds_on_engine_output(self):
        # The paper's guarantee (Section IV-F): liveness analysis during
        # covering makes detailed allocation colorable.
        for width in (2, 3, 4, 5, 6):
            for regs in (2, 3, 4):
                solution = self._solution(regs, build_wide_dag(width))
                allocate_registers(solution)  # must not raise


# ----------------------------------------------------------------------
# Differential: linear liveness against a quadratic reference
# ----------------------------------------------------------------------

REPO = Path(__file__).parent.parent
CORPUS_FILES = sorted((REPO / "tests" / "corpus").glob("*.json"))
MACHINE_FILES = sorted((REPO / "machines").glob("*.isdl"))


def _reference_live_ranges(solution):
    """Live ranges found by scanning every task for the readers of each
    delivery: quadratic, and independent of the consumer index."""
    graph = solution.graph
    cycle_of = {}
    for cycle, members in enumerate(solution.schedule):
        for task_id in members:
            cycle_of[task_id] = cycle
    banks = {rf.name for rf in graph.machine.register_files}
    ranges = {}
    for delivery_id in sorted(graph.tasks):
        task = graph.tasks[delivery_id]
        if task.dest_storage not in banks:
            continue
        if delivery_id not in cycle_of:
            continue
        def_cycle = cycle_of[delivery_id]
        uses = [
            cycle_of[reader_id]
            for reader_id, reader in graph.tasks.items()
            if reader_id in cycle_of
            and any(r.producer == delivery_id for r in reader.reads)
        ]
        last_use = (
            max(uses) if uses else def_cycle + graph.latency(delivery_id)
        )
        if delivery_id in graph.pinned:
            last_use = max(last_use, len(solution.schedule))
        ranges[delivery_id] = LiveRange(
            delivery_id, task.dest_storage, def_cycle, last_use
        )
    return ranges


def _reference_profile(solution):
    length = len(solution.schedule)
    profile = {
        rf.name: [0] * length
        for rf in solution.graph.machine.register_files
    }
    for live in _reference_live_ranges(solution).values():
        for cycle in range(live.def_cycle, length):
            if cycle < live.last_use_cycle:
                profile[live.bank][cycle] += 1
    return profile


@pytest.fixture
def checked_liveness(monkeypatch):
    """Compare every liveness computation the pipeline makes (peephole's
    and the allocator's) with the reference; returns the call count."""
    calls = []
    ranges_of = liveness_module.compute_live_ranges
    profile_of = liveness_module.pressure_profile

    def checked_ranges(solution):
        ranges = ranges_of(solution)
        assert ranges == _reference_live_ranges(solution)
        calls.append("ranges")
        return ranges

    def checked_profile(solution, ranges=None):
        profile = profile_of(solution, ranges)
        assert profile == _reference_profile(solution)
        calls.append("profile")
        return profile

    monkeypatch.setattr(
        peephole_optimizer, "compute_live_ranges", checked_ranges
    )
    monkeypatch.setattr(peephole_optimizer, "pressure_profile", checked_profile)
    monkeypatch.setattr(
        interference_module, "compute_live_ranges", checked_ranges
    )
    return calls


def _liveness_cases():
    machines = [
        (path.stem, lambda path=path: parse_machine(path.read_text()))
        for path in MACHINE_FILES
    ]
    machines += [
        ("arch1_r2", lambda: example_architecture(2)),
        ("fig6_r2", lambda: fig6_architecture(2)),
    ]
    for load in WORKLOADS:
        for machine_name, make_machine in machines:
            yield pytest.param(
                load, make_machine, id=f"{load.name}@{machine_name}"
            )


def _assert_final_liveness(compiled):
    for block in compiled.blocks.values():
        solution = block.solution
        ranges = compute_live_ranges(solution)
        assert ranges == _reference_live_ranges(solution)
        assert pressure_profile(solution) == _reference_profile(solution)
        assert pressure_profile(solution, ranges) == _reference_profile(
            solution
        )


class TestLivenessDifferential:
    @pytest.mark.parametrize("load,make_machine", _liveness_cases())
    def test_examples_on_bundled_machines(
        self, checked_liveness, load, make_machine
    ):
        compiled = compile_function(
            compile_source(load.source, name=load.name), make_machine()
        )
        assert checked_liveness
        _assert_final_liveness(compiled)

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=lambda path: path.stem
    )
    def test_corpus(self, checked_liveness, path):
        case = load_case(path)
        expected = json.loads(path.read_text())["expected"]["outcome"]
        function = compile_source(case.source)
        machine = parse_machine(case.machine_isdl)
        if expected == "coverage":
            with pytest.raises(CoverageError):
                compile_function(function, machine, case.heuristic_config())
            return
        compiled = compile_function(
            function, machine, case.heuristic_config()
        )
        _assert_final_liveness(compiled)
