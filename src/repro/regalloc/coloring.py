"""Chaitin-style graph coloring (paper, Section IV-F / reference [5]).

The classic simplify/select discipline: repeatedly remove a node with
fewer than ``k`` neighbours (it can always be colored later), then pop
the stack assigning each node the lowest color unused by its already-
colored neighbours.  Because the covering step bounded simultaneous
liveness per bank, every interference graph here is an interval graph
with max clique ≤ k, so simplification never gets stuck; if it ever did,
that would be a bug, reported as :class:`RegisterAllocationError`.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import RegisterAllocationError
from repro.regalloc.interference import InterferenceGraph


def color_graph(graph: InterferenceGraph) -> Dict[int, int]:
    """Color ``graph`` with at most ``graph.capacity`` colors.

    Returns node → color (register index).  Raises
    :class:`RegisterAllocationError` if no node of trivial degree exists
    at some step, which the covering invariant rules out.
    """
    k = graph.capacity
    remaining: Set[int] = set(graph.nodes)
    degrees: Dict[int, int] = {n: graph.degree(n) for n in graph.nodes}
    stack: List[int] = []
    while remaining:
        candidates = [n for n in sorted(remaining) if degrees[n] < k]
        if not candidates:
            raise RegisterAllocationError(
                f"bank {graph.bank}: no node with degree < {k}; the "
                f"liveness bound from covering was violated"
            )
        node = candidates[0]
        remaining.discard(node)
        stack.append(node)
        for neighbour in graph.edges[node]:
            if neighbour in remaining:
                degrees[neighbour] -= 1
    colors: Dict[int, int] = {}
    for node in reversed(stack):
        used = {
            colors[n] for n in graph.edges[node] if n in colors
        }
        for color in range(k):
            if color not in used:
                colors[node] = color
                break
        else:
            raise RegisterAllocationError(
                f"bank {graph.bank}: node t{node} has all {k} colors "
                f"used by neighbours"
            )
    return colors
