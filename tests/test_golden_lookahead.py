"""Golden lookahead estimates of the covering tie-break (paper, IV-D).

For each case, every ``cover.step`` journal entry of ``repro explain
--json`` is reduced to the numbers the tie-break saw: the cycle, the
chosen clique's members and lookahead, and every journaled
alternative's lookahead.  They are pinned in
``tests/golden/lookahead-<case>.json`` under both clique kernels, so an
optimisation of the lookahead computation that changes a single
estimate, or the clique it picks, shows up as a JSON diff.

Regenerate after an intentional change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_lookahead.py

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.covering import HeuristicConfig
from repro.eval import WORKLOADS
from repro.explain import explain_source
from repro.isdl import example_architecture, fig6_architecture

REPO = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
KERNELS = ("bitmask", "reference")


def _sources():
    """``case name -> (minic source, machine factory)``."""
    cases = {
        "fir4-fig6": (
            (REPO / "examples" / "fir4.minic").read_text(),
            fig6_architecture,
        )
    }
    for load in WORKLOADS:
        cases[f"{load.name}-arch1_r2"] = (
            load.source,
            lambda: example_architecture(2),
        )
    return cases


CASES = _sources()


def _lookahead_steps(source, machine, kernel):
    """One row per ``cover.step``: where it happened and what the
    lookahead tie-break saw."""
    config = HeuristicConfig.default().with_(clique_kernel=kernel)
    report, _compiled, error = explain_source(source, machine, config)
    assert error is None, error
    rows = []
    for block in report["blocks"]:
        for entry in block["decisions"]:
            if entry["kind"] != "cover.step":
                continue
            data = entry["data"]
            rows.append(
                {
                    "block": block["name"],
                    "attempt": entry["attempt"],
                    "strategy": entry["strategy"],
                    "cycle": data["cycle"],
                    "chosen": data["chosen"]["members"],
                    "lookahead": data["chosen"]["lookahead"],
                    "alternatives": [
                        a["lookahead"] for a in data["alternatives"]
                    ],
                }
            )
    return rows


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_lookahead(name):
    source, machine_factory = CASES[name]
    steps = {
        kernel: _lookahead_steps(source, machine_factory(), kernel)
        for kernel in KERNELS
    }
    assert steps["bitmask"] == steps["reference"], (
        f"{name}: kernels disagree on the lookahead steps"
    )
    assert steps["bitmask"], f"{name}: no cover.step entries journaled"
    path = GOLDEN_DIR / f"lookahead-{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            "[\n"
            + ",\n".join(
                json.dumps(row, sort_keys=True) for row in steps["bitmask"]
            )
            + "\n]\n"
        )
    golden = json.loads(path.read_text())
    assert steps["bitmask"] == golden, (
        f"{name}: lookahead steps drifted from {path} "
        f"(regenerate with REPRO_REGEN_GOLDEN=1 if intentional)"
    )
