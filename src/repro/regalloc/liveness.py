"""Live ranges of register-resident values over a block schedule.

A delivery (task writing into a register file) defines a value at the
end of its cycle; the value dies when its last consumer executes.
Because operands are read before results are written, a value last used
in cycle ``t`` and a value defined in cycle ``t`` can share a register:
ranges are half-open intervals ``(def, last_use]``.

Pinned deliveries (branch conditions read by the control slot after the
block body) stay live through ``len(schedule)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.covering.solution import BlockSolution


@dataclass(frozen=True)
class LiveRange:
    """Lifetime of one delivery's value.

    The value occupies a register strictly after ``def_cycle`` up to and
    including ``last_use_cycle``.
    """

    delivery: int
    bank: str
    def_cycle: int
    last_use_cycle: int

    def overlaps(self, other: "LiveRange") -> bool:
        """Half-open interval intersection: (d1,u1] ∩ (d2,u2] ≠ ∅."""
        return (
            self.def_cycle < other.last_use_cycle
            and other.def_cycle < self.last_use_cycle
        )


def compute_live_ranges(solution: BlockSolution) -> Dict[int, LiveRange]:
    """Live range of every register delivery in the scheduled block.

    One linear pass: each delivery's consumers come from the task
    graph's consumer index, each consumer's cycle from ``cycle_of``.
    """
    graph = solution.graph
    cycle_of: Dict[int, int] = {}
    for cycle, members in enumerate(solution.schedule):
        for task_id in members:
            cycle_of[task_id] = cycle
    end_of_block = len(solution.schedule)
    ranges: Dict[int, LiveRange] = {}
    for delivery_id in graph.register_deliveries():
        if delivery_id not in cycle_of:
            continue  # deleted / unscheduled task (defensive)
        def_cycle = cycle_of[delivery_id]
        consumer_cycles = [
            cycle_of[c]
            for c in graph.consumers_of(delivery_id)
            if c in cycle_of
        ]
        if consumer_cycles:
            last_use = max(consumer_cycles)
        else:
            # A dead result is still physically written: it occupies a
            # register until its (possibly multi-cycle) write lands and
            # may be overwritten afterwards — the half-open range
            # (def, def + latency].
            last_use = def_cycle + graph.latency(delivery_id)
        if delivery_id in graph.pinned:
            last_use = max(last_use, end_of_block)
        ranges[delivery_id] = LiveRange(
            delivery=delivery_id,
            bank=graph.tasks[delivery_id].dest_storage,
            def_cycle=def_cycle,
            last_use_cycle=last_use,
        )
    return ranges


def pressure_profile(
    solution: BlockSolution, ranges: Optional[Dict[int, LiveRange]] = None
) -> Dict[str, List[int]]:
    """Occupancy of each bank at the end of every cycle.

    ``profile[bank][t]`` counts values live in ``bank`` after cycle
    ``t`` executed.  Used by the peephole pass to decide whether a
    spill was actually necessary.  ``ranges`` are the schedule's live
    ranges when the caller already has them.
    """
    if ranges is None:
        ranges = compute_live_ranges(solution)
    length = len(solution.schedule)
    profile: Dict[str, List[int]] = {
        rf.name: [0] * length for rf in solution.graph.machine.register_files
    }
    for live_range in ranges.values():
        for cycle in range(live_range.def_cycle, min(live_range.last_use_cycle, length)):
            profile[live_range.bank][cycle] += 1
    return profile
