"""Tests for task-graph materialisation and spill insertion (Fig. 9)."""

import collections
import copy
import json
import pickle

import pytest

import repro.peephole.optimizer as peephole_optimizer
from repro.asmgen.program import compile_function
from repro.covering import (
    HeuristicConfig,
    TaskGraph,
    TaskKind,
    explore_assignments,
)
from repro.covering.engine import _clone_solution
from repro.covering.taskgraph import ReadRef
from repro.errors import CoverageError
from repro.eval import WORKLOADS
from repro.ir import BlockDAG, Opcode
from repro.serve.codec import solution_from_dict, solution_to_dict
from repro.sndag import build_split_node_dag

from conftest import CORPUS_FILES, SPILL_MACHINES, load_program


def _graph_for(dag, machine, index=0, pin_value=None, config=None):
    sn = build_split_node_dag(dag, machine)
    assignments = explore_assignments(
        sn, config or HeuristicConfig.default()
    )
    return TaskGraph(sn, assignments[index], pin_value=pin_value)


class TestConstruction:
    def test_one_op_task_per_covering_op(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        op_tasks = [
            t for t in graph.tasks.values() if t.kind is TaskKind.OP
        ]
        assert len(op_tasks) == 3

    def test_leaf_loads_created(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        loads = [
            t
            for t in graph.tasks.values()
            if t.kind is TaskKind.XFER and t.source_storage == "DM"
        ]
        assert len(loads) == 4  # a, b, c, d

    def test_store_transfer_carries_symbol(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        stores = [
            t for t in graph.tasks.values() if t.store_symbol == "out"
        ]
        assert len(stores) == 1
        assert stores[0].dest_storage == "DM"

    def test_dependencies_acyclic_and_valid(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        graph.validate()

    def test_same_unit_chain_needs_no_transfer(self, arch1):
        # ADD then SUB both only placeable on U1/U2; when chained on the
        # same unit there is no inter-unit transfer of the intermediate.
        dag = BlockDAG()
        a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
        add = dag.operation(Opcode.ADD, (a, b))
        sub = dag.operation(Opcode.SUB, (add, c))
        dag.store("x", sub)
        graph = _graph_for(dag, arch1)
        add_task = next(
            t for t in graph.tasks.values() if t.op_name == "ADD"
        )
        sub_task = next(
            t for t in graph.tasks.values() if t.op_name == "SUB"
        )
        if add_task.unit == sub_task.unit:
            assert any(
                r.producer == add_task.task_id for r in sub_task.reads
            )

    def test_shared_operand_loaded_once_per_bank(self, arch1):
        dag = BlockDAG()
        a, b, c = dag.var("a"), dag.var("b"), dag.var("c")
        m1 = dag.operation(Opcode.MUL, (a, b))
        m2 = dag.operation(Opcode.MUL, (a, c))
        dag.store("x", dag.operation(Opcode.ADD, (m1, m2)))
        graph = _graph_for(dag, arch1)
        a_loads = [
            t
            for t in graph.tasks.values()
            if t.kind is TaskKind.XFER and t.value == a
        ]
        destinations = [t.dest_storage for t in a_loads]
        assert len(destinations) == len(set(destinations))

    def test_store_of_plain_leaf_is_memory_copy(self, arch1):
        dag = BlockDAG()
        dag.store("y", dag.var("x"))
        graph = _graph_for(dag, arch1)
        (task,) = graph.tasks.values()
        assert task.kind is TaskKind.XFER
        assert task.source_storage == "DM"
        assert task.dest_storage == "DM"
        assert task.store_symbol == "y"

    def test_pinning_branch_condition(self, arch1):
        dag = BlockDAG()
        a, b = dag.var("a"), dag.var("b")
        diff = dag.operation(Opcode.SUB, (a, b))
        dag.store("d", diff)
        graph = _graph_for(dag, arch1, pin_value=diff)
        assert graph.condition_read is not None
        assert graph.condition_read.producer in graph.pinned

    def test_pinning_leaf_condition_creates_load(self, arch1):
        dag = BlockDAG()
        flag = dag.var("flag")
        dag.store("y", dag.operation(Opcode.ADD, (dag.var("a"), dag.var("b"))))
        graph = _graph_for(dag, arch1, pin_value=flag)
        read = graph.condition_read
        assert read is not None
        assert read.storage.startswith("RF")
        assert graph.tasks[read.producer].value == flag

    def test_multi_hop_chain_on_dual_bus(self, fig2_dag, arch_dual):
        sn = build_split_node_dag(fig2_dag, arch_dual)
        assignments = explore_assignments(
            sn, HeuristicConfig.heuristics_off()
        )
        # Find an assignment placing something on U3 (RF3, two hops from DM).
        target = next(
            a
            for a in assignments
            if any(alt.unit == "U3" for alt in a.choice.values())
        )
        graph = TaskGraph(sn, target)
        rf3_arrivals = [
            t
            for t in graph.tasks.values()
            if t.kind is TaskKind.XFER and t.dest_storage == "RF3"
        ]
        assert rf3_arrivals
        for task in rf3_arrivals:
            assert task.bus == "B2"  # only B2 reaches RF3


class TestCongestionOverMaterializedHops:
    """Regression: `_choose_path` used to charge bus load for every hop
    of a candidate path, including hops the `_delivered` cache skips —
    biasing the choice away from routes that were actually cheaper."""

    @pytest.fixture
    def two_route_machine(self):
        # Two minimal DM->R2 routes: via R1 (B1 then B2) and via R3
        # (B3 then B4).  R1 is where operands land first, so the via-R1
        # route's first hop is usually already delivered.
        from repro.isdl import parse_machine

        return parse_machine(
            "machine m { memory DM size 8;"
            " regfile R1 size 4; regfile R2 size 4; regfile R3 size 4;"
            " unit U1 regfile R1 { op ADD; }"
            " unit U2 regfile R2 { op SUB; }"
            " unit U3 regfile R3 { op MUL; }"
            " bus B1 connects DM, R1;"
            " bus B2 connects R1, R2;"
            " bus B3 connects DM, R3;"
            " bus B4 connects R3, R2; }"
        )

    def test_delivered_prefix_reuses_loaded_route(self, two_route_machine):
        # add = a + b runs on U1 (loads a and b into R1 over B1, load 2);
        # sub = a - add runs on U2 and needs `a` in R2.  The via-R1
        # route's DM->R1 hop is already delivered, so only its R1->R2
        # hop (B2, load 0) materialises — it ties with the via-R3 route
        # and wins the bus-name tie-break.  Charging the skipped B1 hop
        # used to send the value the long way through R3.
        dag = BlockDAG()
        a, b = dag.var("a"), dag.var("b")
        add = dag.operation(Opcode.ADD, (a, b))
        sub = dag.operation(Opcode.SUB, (a, add))
        dag.store("x", sub)
        graph = _graph_for(dag, two_route_machine)
        a_to_r2 = [
            t
            for t in graph.tasks.values()
            if t.kind is TaskKind.XFER and t.value == a and t.dest_storage == "R2"
        ]
        assert len(a_to_r2) == 1
        assert a_to_r2[0].bus == "B2"
        assert a_to_r2[0].source_storage == "R1"
        a_buses = {
            t.bus
            for t in graph.tasks.values()
            if t.kind is TaskKind.XFER and t.value == a
        }
        assert "B3" not in a_buses and "B4" not in a_buses


class TestSpilling:
    def _delivery_with_pending(self, graph):
        for task_id in graph.register_deliveries():
            if graph.consumers_of(task_id):
                return task_id
        raise AssertionError("no spillable delivery")

    def test_spill_inserts_spill_and_reload(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        delivery = self._delivery_with_pending(graph)
        before = len(graph.tasks)
        spill_id, new_ids = graph.spill_delivery(delivery, covered=set())
        assert graph.tasks[spill_id].is_spill
        assert graph.tasks[spill_id].dest_storage == "DM"
        reloads = [t for t in new_ids if graph.tasks[t].is_reload]
        assert reloads
        assert len(graph.tasks) > before - 1
        graph.validate()
        assert graph.spill_count == 1
        assert graph.reload_count >= 1

    def test_spill_rewires_consumers_to_reload(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        delivery = self._delivery_with_pending(graph)
        consumers_before = graph.consumers_of(delivery)
        spill_id, _ = graph.spill_delivery(delivery, covered=set())
        # Only the spill still reads the original delivery.
        assert graph.consumers_of(delivery) == [spill_id]
        for consumer in consumers_before:
            if consumer in graph.tasks:
                assert all(
                    r.producer != delivery
                    for r in graph.tasks[consumer].reads
                )

    def test_pending_transfer_replaced_by_reload(self, fig2_dag, arch1):
        # Fig. 9: a transfer of the spilled value out of its bank is
        # removed and its consumers read a fresh reload instead.
        graph = _graph_for(fig2_dag, arch1)
        xfer = next(
            t
            for t in graph.tasks.values()
            if t.kind is TaskKind.XFER
            and t.reads[0].producer is not None
            and t.source_storage.startswith("RF")
            and t.dest_storage.startswith("RF")
        )
        delivery = xfer.reads[0].producer
        victim_id = xfer.task_id
        graph.spill_delivery(delivery, covered=set())
        assert victim_id not in graph.tasks  # obsolete transfer removed
        graph.validate()

    def test_spilling_pinned_delivery_rejected(self, arch1):
        dag = BlockDAG()
        diff = dag.operation(Opcode.SUB, (dag.var("a"), dag.var("b")))
        dag.store("d", diff)
        graph = _graph_for(dag, arch1, pin_value=diff)
        pinned = next(iter(graph.pinned))
        with pytest.raises(CoverageError):
            graph.spill_delivery(pinned, covered=set())

    def test_spill_without_pending_consumers_rejected(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        delivery = self._delivery_with_pending(graph)
        everything = set(graph.task_ids())
        with pytest.raises(CoverageError):
            graph.spill_delivery(delivery, covered=everything)


# ----------------------------------------------------------------------
# The derived indexes (consumers, heights) against brute-force scans
# ----------------------------------------------------------------------


def _scanned_consumers(graph, producer):
    """Reference: every task reading ``producer``, ascending, by a full
    scan of the graph."""
    return [
        task_id
        for task_id in sorted(graph.tasks)
        if any(r.producer == producer for r in graph.tasks[task_id].reads)
    ]


def _scanned_heights(graph):
    """Reference: each task's longest chain to a sink, by memoised
    recursion over a full scan for the tasks that depend on it."""
    dependents = {
        t: [u for u in graph.tasks if t in graph.tasks[u].dependencies()]
        for t in graph.tasks
    }
    heights = {}

    def height(task_id):
        if task_id not in heights:
            heights[task_id] = 1 + max(
                (height(u) for u in dependents[task_id]), default=0
            )
        return heights[task_id]

    return {t: height(t) for t in sorted(graph.tasks)}


def _assert_index_matches_scan(graph):
    producers = set(graph.tasks)
    producers.update(
        read.producer
        for task in graph.tasks.values()
        for read in task.reads
        if read.producer is not None
    )
    for producer in sorted(producers):
        assert graph.consumers_of(producer) == _scanned_consumers(
            graph, producer
        ), f"consumer index is stale for t{producer}"
    assert graph.heights() == _scanned_heights(graph), "heights are stale"


@pytest.fixture
def checked_mutations(monkeypatch):
    """Compare the index with the scan after every graph build, and both
    before and after every spill and peephole group removal.  Checking
    first builds the index, so a mutation that failed to drop it would
    leave a stale index behind.  Returns a counter of checked events."""
    events = collections.Counter()
    build = TaskGraph.__init__
    spill = TaskGraph.spill_delivery
    remove_group = peephole_optimizer._remove_group

    def checked_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        _assert_index_matches_scan(self)
        events["build"] += 1

    def checked_spill(self, delivery_id, covered, ready=None):
        _assert_index_matches_scan(self)
        before = {t: task.reads for t, task in self.tasks.items()}
        result = spill(self, delivery_id, covered, ready)
        _assert_index_matches_scan(self)
        events["spill"] += 1
        if any(t not in self.tasks for t in before):
            events["spill.pending_transfer"] += 1
        dm = self.machine.data_memory
        if any(
            t in self.tasks
            and self.tasks[t].dest_storage == dm
            and self.tasks[t].reads != reads
            for t, reads in before.items()
        ):
            events["spill.store_rewrite"] += 1
        return result

    def checked_remove_group(solution, group):
        _assert_index_matches_scan(solution.graph)
        result = remove_group(solution, group)
        _assert_index_matches_scan(solution.graph)
        events["peephole.remove"] += 1
        return result

    monkeypatch.setattr(TaskGraph, "__init__", checked_build)
    monkeypatch.setattr(TaskGraph, "spill_delivery", checked_spill)
    monkeypatch.setattr(
        peephole_optimizer, "_remove_group", checked_remove_group
    )
    return events


def _index_cases():
    for load in WORKLOADS:
        for machine_name in SPILL_MACHINES:
            yield pytest.param(
                "workload", load.name, machine_name,
                id=f"{load.name}@{machine_name}",
            )
    for path in CORPUS_FILES:
        yield pytest.param("corpus", path.name, None, id=path.stem)


class TestConsumerIndex:
    @pytest.mark.parametrize("kind,name,machine_name", _index_cases())
    def test_index_matches_scan_through_pipeline(
        self, checked_mutations, kind, name, machine_name
    ):
        function, machine, config, error = load_program(
            kind, name, machine_name
        )
        if error is not None:
            # Covering gives up, but only after spilling: every spill on
            # the way was still checked.
            with pytest.raises(error):
                compile_function(function, machine, config)
            assert checked_mutations["spill"] > 0
            return
        compiled = compile_function(function, machine, config)
        assert checked_mutations["build"] > 0
        for block_name, block in compiled.blocks.items():
            solution = block.solution
            _assert_index_matches_scan(solution.graph)
            # Codec decode: the graph is rebuilt from a JSON payload.
            payload = json.loads(json.dumps(solution_to_dict(solution)))
            decoded = solution_from_dict(
                payload, function.block(block_name).dag, machine
            )
            _assert_index_matches_scan(decoded.graph)
            # Memo clone: the copy rebuilds its own index, and a
            # mutation of the copy leaves the original's index intact.
            clone = _clone_solution(solution)
            _assert_index_matches_scan(clone.graph)
            if clone.graph.tasks:
                clone.graph.remove_tasks([max(clone.graph.tasks)])
                _assert_index_matches_scan(clone.graph)
                _assert_index_matches_scan(solution.graph)

    def test_sweep_reaches_every_mutation(self, checked_mutations):
        # The corpus cases that exercise the rarer spill branches and a
        # peephole removal; if they stop doing so, the sweep above no
        # longer checks those mutations.
        for stem in ("gen-09", "gen-12", "gen-15"):
            function, machine, config, error = load_program(
                "corpus", f"{stem}.json", None
            )
            try:
                compile_function(function, machine, config)
            except CoverageError:
                assert error is CoverageError
        for event in (
            "spill.pending_transfer",
            "spill.store_rewrite",
            "peephole.remove",
        ):
            assert checked_mutations[event] > 0, event

    def test_rewire_reads_moves_consumer(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        op = next(
            t for t in graph.tasks.values()
            if t.kind is TaskKind.OP and t.reads[0].producer is not None
        )
        old = op.reads[0].producer
        assert op.task_id in graph.consumers_of(old)
        graph.rewire_reads(
            op.task_id, (ReadRef(None, "DM", op.reads[0].value),)
            + op.reads[1:]
        )
        assert op.task_id not in graph.consumers_of(old)
        _assert_index_matches_scan(graph)

    def test_remove_tasks_drops_reader(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        store = next(
            t for t in graph.tasks.values() if t.store_symbol == "out"
        )
        producer = store.reads[0].producer
        assert graph.consumers_of(producer) == [store.task_id]
        graph.remove_tasks([store.task_id])
        assert graph.consumers_of(producer) == []
        _assert_index_matches_scan(graph)

    def test_new_task_joins_its_producers_readers(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        store = next(
            t for t in graph.tasks.values() if t.store_symbol == "out"
        )
        producer = store.reads[0].producer
        assert graph.consumers_of(producer) == [store.task_id]
        copy_id = graph._new_task(
            kind=TaskKind.XFER,
            resource=store.bus,
            value=store.value,
            reads=store.reads,
            dest_storage=store.dest_storage,
            bus=store.bus,
            source_storage=store.source_storage,
        )
        assert graph.consumers_of(producer) == [store.task_id, copy_id]
        _assert_index_matches_scan(graph)

    def test_heights_follow_anti_dependences(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        store = next(
            t for t in graph.tasks.values() if t.store_symbol == "out"
        )
        sinks = [t for t, h in graph.heights().items() if h == 1]
        assert store.task_id in sinks
        # An anti-dependence behind every other task leaves the store
        # the only sink, with everything else at least one level up.
        others = tuple(t for t in graph.tasks if t != store.task_id)
        graph._update_task(store.task_id, extra_after=others)
        sinks = [t for t, h in graph.heights().items() if h == 1]
        assert sinks == [store.task_id]
        _assert_index_matches_scan(graph)

    def test_copies_leave_the_indexes_behind(self, fig2_dag, arch1):
        graph = _graph_for(fig2_dag, arch1)
        bare = pickle.dumps(graph)
        graph.consumers_of(min(graph.tasks))
        graph.heights()
        assert pickle.dumps(graph) == bare
        clone = copy.deepcopy(graph)
        assert pickle.dumps(clone) == bare
        _assert_index_matches_scan(clone)
