"""Removal of unnecessary loads/spills and schedule compaction.

The covering step's lifetime analysis is deliberately pessimistic (an
upper bound), so a spill it inserted may turn out to be unnecessary: the
bank never actually runs out of registers across the spill window.  The
peephole pass detects such spill groups, rewires the reloads' consumers
back to the original register-resident value, deletes the spill and load
transfers, and re-compacts the schedule by moving the remaining tasks
into the freed slots where dependences, resources, instruction legality,
and register pressure allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set

from repro.covering.cliques import is_legal_instruction
from repro.covering.solution import BlockSolution
from repro.covering.taskgraph import ReadRef
from repro.regalloc.liveness import (
    LiveRange,
    compute_live_ranges,
    pressure_profile,
)
from repro.telemetry.session import current as _telemetry


@dataclass
class PeepholeReport:
    """What the pass changed."""

    spills_removed: int = 0
    reloads_removed: int = 0
    cycles_saved: int = 0


@dataclass
class _SpillGroup:
    """One spill event: the chain to memory plus its reload chains."""

    original_delivery: int
    spill_chain: List[int]  # hops toward memory, last lands in DM
    reload_chains: List[List[int]]  # each chain's last hop is a delivery
    bank: str


class _Liveness:
    """Live ranges, bank pressure and issue cycles of one schedule.

    Each is computed on first use and stays valid until the schedule or
    the task graph changes; rejecting a spill group changes neither, so
    one instance serves every candidate of a fixpoint iteration.
    """

    def __init__(self, solution: BlockSolution):
        self.solution = solution

    @cached_property
    def ranges(self) -> Dict[int, LiveRange]:
        return compute_live_ranges(self.solution)

    @cached_property
    def profile(self) -> Dict[str, List[int]]:
        return pressure_profile(self.solution, self.ranges)

    @cached_property
    def cycle_of(self) -> Dict[int, int]:
        return {
            task_id: cycle
            for cycle, members in enumerate(self.solution.schedule)
            for task_id in members
        }


def _collect_spill_groups(solution: BlockSolution) -> List[_SpillGroup]:
    graph = solution.graph
    groups: List[_SpillGroup] = []
    for task_id in graph.task_ids():
        task = graph.tasks[task_id]
        if not task.is_spill:
            continue
        if task.reads[0].producer is None:
            continue
        first_read = task.reads[0]
        origin = graph.tasks.get(first_read.producer)
        if origin is None or origin.is_spill:
            continue  # interior hop of a multi-hop spill chain
        chain = [task_id]
        while graph.tasks[chain[-1]].dest_storage != graph.machine.data_memory:
            next_hops = [
                c
                for c in graph.consumers_of(chain[-1])
                if graph.tasks[c].is_spill
            ]
            if not next_hops:
                break
            chain.append(next_hops[0])
        memory_copy = chain[-1]
        if graph.tasks[memory_copy].dest_storage != graph.machine.data_memory:
            continue
        reload_chains: List[List[int]] = []
        for consumer in graph.consumers_of(memory_copy):
            if not graph.tasks[consumer].is_reload:
                continue
            reload_chain = [consumer]
            while True:
                next_hops = [
                    c
                    for c in graph.consumers_of(reload_chain[-1])
                    if graph.tasks[c].is_reload
                    and graph.tasks[c].value == graph.tasks[consumer].value
                ]
                if not next_hops:
                    break
                reload_chain.append(next_hops[0])
            reload_chains.append(reload_chain)
        groups.append(
            _SpillGroup(
                original_delivery=first_read.producer,
                spill_chain=chain,
                reload_chains=reload_chains,
                bank=graph.tasks[first_read.producer].dest_storage,
            )
        )
    return groups


def _group_removable(
    solution: BlockSolution, group: _SpillGroup, liveness: _Liveness
) -> bool:
    """Would keeping the value in its register have fit in the bank?"""
    graph = solution.graph
    bank = group.bank
    capacity = graph.machine.register_file(bank).size
    # Only handle reloads landing back in the same bank; cross-bank
    # reloads would need replacement transfers (conservatively skipped).
    for chain in group.reload_chains:
        if graph.tasks[chain[-1]].dest_storage != bank:
            return False
        # The reload chain must consist purely of reload hops.
        if any(not graph.tasks[t].is_reload for t in chain):
            return False
    # The memory copy (and interior spill hops) must serve nothing but
    # the reloads — a store rewired to read the spill slot, or a second
    # spill of the same value, blocks removal.
    reload_heads = {chain[0] for chain in group.reload_chains}
    chain_members = set(group.spill_chain)
    for position, hop in enumerate(group.spill_chain):
        for consumer in graph.consumers_of(hop):
            if consumer in chain_members:
                continue
            if position == len(group.spill_chain) - 1 and consumer in reload_heads:
                continue
            return False
    ranges = liveness.ranges
    profile = liveness.profile[bank]
    original = ranges.get(group.original_delivery)
    if original is None:
        return False
    cycle_of = liveness.cycle_of
    # New last use of the original value: every consumer of every reload
    # delivery, plus its current consumers other than the spill.
    new_last = original.def_cycle
    removed = set(group.spill_chain)
    for chain in group.reload_chains:
        removed.update(chain)
    for consumer in graph.consumers_of(group.original_delivery):
        if consumer in removed:
            continue
        new_last = max(new_last, cycle_of.get(consumer, new_last))
    for chain in group.reload_chains:
        delivery = chain[-1]
        for consumer in graph.consumers_of(delivery):
            if consumer in removed:
                continue
            new_last = max(new_last, cycle_of.get(consumer, new_last))
    adjusted = list(profile)
    # The original value stays live through the whole window.
    for cycle in range(original.last_use_cycle, min(new_last, len(adjusted))):
        adjusted[cycle] += 1
    # Removed reload deliveries stop occupying registers.
    for chain in group.reload_chains:
        live = ranges.get(chain[-1])
        if live is None:
            continue
        for cycle in range(
            live.def_cycle, min(live.last_use_cycle, len(adjusted))
        ):
            adjusted[cycle] -= 1
    return all(count <= capacity for count in adjusted)


def _remove_group(solution: BlockSolution, group: _SpillGroup) -> int:
    """Delete the group's tasks and rewire consumers; returns #tasks cut."""
    graph = solution.graph
    removed: Set[int] = set(group.spill_chain)
    for chain in group.reload_chains:
        removed.update(chain)
    original = group.original_delivery
    bank = group.bank
    replacement_read = None
    for chain in group.reload_chains:
        delivery = chain[-1]
        for consumer_id in graph.consumers_of(delivery):
            if consumer_id in removed:
                continue
            graph.rewire_reads(
                consumer_id,
                (
                    ReadRef(original, bank, read.value)
                    if read.producer == delivery
                    else read
                    for read in graph.tasks[consumer_id].reads
                ),
            )
    graph.remove_tasks(removed)
    solution.schedule = [
        [t for t in members if t not in removed]
        for members in solution.schedule
    ]
    if not graph.has_multi_cycle_ops():
        # Dropping emptied cycles is only safe when no result is in
        # flight across them; under multi-cycle latencies, compaction
        # (which re-places with latency-aware earliest cycles) shortens
        # the schedule instead.
        solution.schedule = [m for m in solution.schedule if m]
    graph.spill_count = max(0, graph.spill_count - 1)
    graph.reload_count = max(0, graph.reload_count - len(group.reload_chains))
    return len(removed)


def compact_schedule(solution: BlockSolution) -> bool:
    """Move tasks up into earlier slots where legal; True if improved.

    Greedy list placement in current schedule order.  A compaction that
    would push any bank past its capacity is discarded.
    """
    graph = solution.graph
    order: List[int] = [t for members in solution.schedule for t in members]
    cycle_of: Dict[int, int] = {}
    cycles: List[Set[int]] = []
    for task_id in order:
        task = graph.tasks[task_id]
        earliest = 0
        for dependency in task.dependencies():
            if dependency in cycle_of:
                earliest = max(
                    earliest,
                    cycle_of[dependency] + graph.latency(dependency),
                )
        placed = False
        cycle = earliest
        while not placed:
            while cycle >= len(cycles):
                cycles.append(set())
            members = cycles[cycle]
            resources = {graph.tasks[m].resource for m in members}
            if task.resource not in resources and is_legal_instruction(
                graph, frozenset(members | {task_id}), graph.machine
            ):
                members.add(task_id)
                cycle_of[task_id] = cycle
                placed = True
            else:
                cycle += 1
    # Interior empty cycles are genuine stalls (multi-cycle latencies);
    # greedy earliest placement never creates them otherwise.  Trailing
    # empties are meaningless — except the stall that lets a pinned
    # (branch-condition) producer's multi-cycle result commit before the
    # control slot after the block reads it.
    floor = 0
    for delivery in graph.pinned:
        if delivery in cycle_of:
            floor = max(floor, cycle_of[delivery] + graph.latency(delivery))
    while len(cycles) > floor and cycles and not cycles[-1]:
        cycles.pop()
    while len(cycles) < floor:
        cycles.append(set())
    new_schedule = [sorted(members) for members in cycles]
    if len(new_schedule) >= len(solution.schedule):
        return False
    old_schedule = solution.schedule
    solution.schedule = new_schedule
    profile = pressure_profile(solution)
    for bank, counts in profile.items():
        capacity = graph.machine.register_file(bank).size
        if any(count > capacity for count in counts):
            solution.schedule = old_schedule
            return False
    return True


def peephole_optimize(
    solution: BlockSolution, max_iterations: int = 8
) -> PeepholeReport:
    """Run spill removal + compaction to a fixpoint (paper, IV-G).

    Mutates ``solution`` in place; returns what changed.  "This may, or
    may not, reduce the final number of required instructions."
    """
    report = PeepholeReport()
    tm = _telemetry()
    rejected = 0
    compactions = 0
    with tm.span("peephole", category="peephole"):
        before = solution.instruction_count
        for _ in range(max_iterations):
            changed = False
            liveness = _Liveness(solution)
            for group in _collect_spill_groups(solution):
                if _group_removable(solution, group, liveness):
                    report.spills_removed += 1
                    report.reloads_removed += len(group.reload_chains)
                    _remove_group(solution, group)
                    changed = True
                    break  # ranges changed; recompute groups
                rejected += 1
            if compact_schedule(solution):
                compactions += 1
                changed = True
            if not changed:
                break
        report.cycles_saved = before - solution.instruction_count
    tm.count("peephole.spills_removed", report.spills_removed)
    tm.count("peephole.reloads_removed", report.reloads_removed)
    tm.count("peephole.groups_rejected", rejected)
    tm.count("peephole.compactions", compactions)
    tm.count("peephole.cycles_saved", report.cycles_saved)
    return report
