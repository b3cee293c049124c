"""Lint: only ``covering/taskgraph.py`` mutates a task graph's structure.

:class:`repro.covering.taskgraph.TaskGraph` keeps derived indexes (the
consumer index and the chain heights) that its own mutators drop.  A
module that assigned ``Task.reads`` or ``Task.extra_after``, changed a
task's ``resource`` or ``dest_storage``, or inserted into or deleted
from a graph's ``tasks`` behind the class's back would leave them
stale.  This test walks the AST of every other module under
``src/repro`` and rejects each such statement; go through
``TaskGraph.rewire_reads``/``remove_tasks`` (or add a method there)
instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"
OWNER = SRC / "covering" / "taskgraph.py"

#: Task fields the derived indexes (or the cover loop's per-resource
#: counts) are computed from.
GUARDED_FIELDS = {"reads", "extra_after", "resource", "dest_storage"}

#: Dict methods that insert into or delete from ``<graph>.tasks``.
MUTATING_METHODS = {
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "__setitem__",
    "__delitem__",
}


def _is_tasks(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "tasks"


def _targets(node: ast.AST):
    """Flatten tuple/list/starred assignment targets."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _targets(element)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _violations(tree: ast.AST):
    """``(line, description)`` for every guarded mutation in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t for target in node.targets for t in _targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = list(_targets(node.target))
        elif isinstance(node, ast.Delete):
            targets = [t for target in node.targets for t in _targets(target)]
        else:
            targets = []
        for target in targets:
            if isinstance(target, ast.Attribute) and (
                target.attr in GUARDED_FIELDS
            ):
                yield node.lineno, f"assigns .{target.attr}"
            if isinstance(target, ast.Subscript) and _is_tasks(target.value):
                yield node.lineno, "inserts into or deletes from .tasks"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and _is_tasks(func.value)
        ):
            yield node.lineno, f"calls .tasks.{func.attr}()"
        if (
            isinstance(func, ast.Name)
            and func.id in ("setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in GUARDED_FIELDS
        ):
            yield node.lineno, f"{func.id}()s .{node.args[1].value}"


def test_only_taskgraph_mutates_task_structure():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == OWNER:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, what in _violations(tree):
            found.append(f"{path.relative_to(SRC.parent)}:{line}: {what}")
    assert not found, (
        "task-graph structure mutated outside covering/taskgraph.py "
        "(use a TaskGraph method so its derived indexes are dropped):\n"
        + "\n".join(found)
    )


def test_lint_catches_each_form():
    source = "\n".join(
        [
            "task.reads = ()",
            "a, task.extra_after = 1, ()",
            "task.resource += 'x'",
            "del task.dest_storage",
            "graph.tasks[3] = task",
            "del graph.tasks[3]",
            "graph.tasks.pop(3)",
            "setattr(task, 'reads', ())",
            # Reading, and mutating other attributes, is fine:
            "x = task.reads",
            "graph.spill_count = 0",
            "tasks[3] = task",
        ]
    )
    lines = [line for line, _ in _violations(ast.parse(source))]
    assert lines == [1, 2, 3, 4, 5, 6, 7, 8]
