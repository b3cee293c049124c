"""Shared fixtures: machines, canonical DAGs, and helpers."""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CoverageError
from repro.eval import WORKLOADS
from repro.frontend import compile_source
from repro.fuzz import load_case
from repro.ir import BasicBlock, BlockDAG, Function, Opcode
from repro.isdl import (
    architecture_two,
    control_flow_architecture,
    dual_bus_architecture,
    example_architecture,
    fig6_architecture,
    mac_dsp_architecture,
    parse_machine,
    single_unit_architecture,
)

REPO = Path(__file__).parent.parent
CORPUS_FILES = sorted((REPO / "tests" / "corpus").glob("*.json"))
MACHINE_FILES = sorted((REPO / "machines").glob("*.isdl"))

#: Two-register files make both machines spill on every paper example.
SPILL_MACHINES = {
    "arch1_r2": lambda: example_architecture(2),
    "fig6_r2": lambda: fig6_architecture(2),
}


def load_program(kind, name, machine_name):
    """``(function, machine, config, expected_error)`` for one sweep case.

    ``kind`` is ``"workload"`` (a paper example ``name`` on a
    :data:`SPILL_MACHINES` key or a ``machines/`` file name) or
    ``"corpus"`` (the reproducer file ``name`` on its own machine and
    configuration, with the error its expected outcome names).
    """
    if kind == "workload":
        load = next(w for w in WORKLOADS if w.name == name)
        function = compile_source(load.source, name=load.name)
        if machine_name in SPILL_MACHINES:
            machine = SPILL_MACHINES[machine_name]()
        else:
            machine = parse_machine(
                (REPO / "machines" / machine_name).read_text()
            )
        return function, machine, None, None
    path = REPO / "tests" / "corpus" / name
    case = load_case(path)
    outcome = json.loads(path.read_text())["expected"]["outcome"]
    error = CoverageError if outcome == "coverage" else None
    return (
        compile_source(case.source),
        parse_machine(case.machine_isdl),
        case.heuristic_config(),
        error,
    )


@pytest.fixture(autouse=True)
def _seeded_rngs():
    """Pin the global RNGs before every test.

    Nothing in the library is supposed to touch global randomness (the
    fuzzer threads explicit ``random.Random`` objects), but tests that
    build examples with ``random``/``numpy.random`` directly stay
    order-independent and reproducible this way.
    """
    random.seed(0x5EED)
    np.random.seed(0x5EED)
    yield


@pytest.fixture
def arch1():
    """The paper's Fig. 3 architecture, 4 registers per file."""
    return example_architecture(4)


@pytest.fixture
def arch1_small():
    """Fig. 3 architecture with 2 registers per file (Ex6/Ex7 setting)."""
    return example_architecture(2)


@pytest.fixture
def arch2():
    """Table II's Architecture II."""
    return architecture_two(4)


@pytest.fixture
def arch_fig6():
    return fig6_architecture(4)


@pytest.fixture
def arch_dual():
    return dual_bus_architecture(4)


@pytest.fixture
def arch_mac():
    return mac_dsp_architecture(4)


@pytest.fixture
def arch_single():
    return single_unit_architecture(8)


@pytest.fixture
def arch_cf():
    return control_flow_architecture(4)


def build_fig2_dag() -> BlockDAG:
    """The paper's Fig. 2-style block: out = (a+b) - (c*d)."""
    dag = BlockDAG()
    a, b, c, d = dag.var("a"), dag.var("b"), dag.var("c"), dag.var("d")
    add = dag.operation(Opcode.ADD, (a, b))
    mul = dag.operation(Opcode.MUL, (c, d))
    sub = dag.operation(Opcode.SUB, (add, mul))
    dag.store("out", sub)
    return dag


def build_fig6_dag() -> BlockDAG:
    """Fig. 6's variant: the SUB feeds a COMPL (NOT) sink on U1."""
    dag = BlockDAG()
    a, b, c, d = dag.var("a"), dag.var("b"), dag.var("c"), dag.var("d")
    add = dag.operation(Opcode.ADD, (a, b))
    mul = dag.operation(Opcode.MUL, (c, d))
    sub = dag.operation(Opcode.SUB, (add, mul))
    compl = dag.operation(Opcode.NOT, (sub,))
    dag.store("out", compl)
    return dag


def build_wide_dag(width: int = 4) -> BlockDAG:
    """A two-level reduction over 2*width leaves (lots of parallelism)."""
    dag = BlockDAG()
    products = []
    for i in range(width):
        x = dag.var(f"x{i}")
        y = dag.var(f"y{i}")
        products.append(dag.operation(Opcode.MUL, (x, y)))
    total = products[0]
    for product in products[1:]:
        total = dag.operation(Opcode.ADD, (total, product))
    dag.store("sum", total)
    return dag


@pytest.fixture
def fig2_dag():
    return build_fig2_dag()


@pytest.fixture
def fig6_dag():
    return build_fig6_dag()


@pytest.fixture
def wide_dag():
    return build_wide_dag()


def single_block_function(dag: BlockDAG, name: str = "main") -> Function:
    function = Function(name)
    function.add_block(BasicBlock("entry", dag))
    return function


def solve_both_kernels(dag: BlockDAG, machine, **overrides):
    """Schedule ``dag`` under both clique kernels, normalised
    word-by-word: kernel name -> (sorted schedule, spills, reloads), or
    ``("error", message)`` when covering fails.

    Shared by the kernel-equivalence suite and the golden-schedule
    regression tests so both compare the exact same canonical form.
    """
    from repro.covering import HeuristicConfig, generate_block_solution
    from repro.errors import CoverageError

    outcome = {}
    for kernel in ("bitmask", "reference"):
        config = HeuristicConfig(clique_kernel=kernel, **overrides)
        try:
            solution = generate_block_solution(dag, machine, config)
        except CoverageError as error:
            outcome[kernel] = ("error", str(error))
            continue
        outcome[kernel] = (
            [sorted(word) for word in solution.schedule],
            solution.spill_count,
            solution.reload_count,
        )
    return outcome
