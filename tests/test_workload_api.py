"""The benchmark workloads still call names the package has.

``perfbench/workloads.py`` calls pifmap in process through module
attributes, directly (``pifmap.ranking.greedy_select``) or through a local
alias (``regression = pifmap.regression``, then
``regression.standardize_fit``).  A name that is renamed or removed would
only show up there, as a failed benchmark op; this test reads the file's
syntax tree, without running it, and resolves every such name against the
package instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _dotted(node: ast.expr) -> list[str] | None:
    """``["a", "b", "c"]`` for the expression ``a.b.c``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _package_names(tree: ast.Module) -> set[str]:
    """Every dotted ``pifmap...`` name the tree imports or reads.

    An assignment ``name = pifmap.<module>`` makes ``name`` an alias, and
    ``name.<attr>`` is read as ``pifmap.<module>.<attr>``.
    """
    aliases = {"pifmap": ["pifmap"]}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "pifmap")
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            path = _dotted(node.value)
            if path is not None and path[0] == "pifmap":
                aliases[node.targets[0].id] = path
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            path = _dotted(node)
            if path is not None and path[0] in aliases:
                names.add(".".join(aliases[path[0]] + path[1:]))
    return names


def _resolve(name: str):
    """The object ``name`` names: its longest importable module prefix,
    then attributes."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            owner = getattr(owner, attr)
        return owner
    raise ModuleNotFoundError(name)


_NAMES = sorted(_package_names(ast.parse(_WORKLOADS.read_text(encoding="utf-8"))))


def test_the_workloads_call_the_package_in_process():
    # the in-process workloads, fit_tall's calls among them, are all found
    assert {"pifmap.cli.main", "pifmap.regression.fit_standardized",
            "pifmap.regression.select_lambda",
            "pifmap.ranking.greedy_select"} <= set(_NAMES)


@pytest.mark.parametrize("name", _NAMES)
def test_every_package_name_a_workload_uses_resolves(name):
    _resolve(name)
