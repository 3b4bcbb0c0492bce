"""The benchmark workloads still call names the package has, as it takes them.

``perfbench/workloads.py`` calls pifmap in process through module
attributes, directly (``pifmap.ranking.greedy_select``) or through a local
alias (``regression = pifmap.regression``, then
``regression.standardize_fit``).  A name that is renamed or removed, or a
signature that no longer takes a call's arguments, would only show up
there, as a failed benchmark op; this test reads the file's syntax tree,
without running it, resolves every such name against the package and
binds every such call's argument count and keyword names to the
signature of what it calls.
"""

import ast
import importlib
import inspect
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


def _aliases(tree: ast.Module) -> dict[str, list[str]]:
    """``pifmap`` itself and every ``name = pifmap.<module>`` of the tree."""
    aliases = {"pifmap": ["pifmap"]}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            path = _dotted(node.value)
            if path is not None and path[0] == "pifmap":
                aliases[node.targets[0].id] = path
    return aliases


def _package_name(node: ast.expr, aliases: dict[str, list[str]]) -> str | None:
    """The dotted ``pifmap...`` name ``node`` reads, through ``aliases``, or None."""
    path = _dotted(node)
    if path is None or path[0] not in aliases:
        return None
    return ".".join(aliases[path[0]] + path[1:])


def _package_names(tree: ast.Module) -> set[str]:
    """Every dotted ``pifmap...`` name the tree imports or reads.

    An assignment ``name = pifmap.<module>`` makes ``name`` an alias, and
    ``name.<attr>`` is read as ``pifmap.<module>.<attr>``.
    """
    aliases = _aliases(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "pifmap")
        elif isinstance(node, ast.Attribute):
            name = _package_name(node, aliases)
            if name is not None:
                names.add(name)
    return names


def _package_calls(tree: ast.Module) -> list[tuple[str, int, tuple[str, ...]]]:
    """Every call of a ``pifmap...`` name in the tree, in line order: the
    name, the number of positional arguments and the keyword names."""
    aliases = _aliases(tree)
    calls = []
    for node in sorted((node for node in ast.walk(tree) if isinstance(node, ast.Call)),
                       key=lambda node: (node.lineno, node.col_offset)):
        name = _package_name(node.func, aliases)
        if name is not None:
            calls.append((name, len(node.args),
                          tuple(keyword.arg for keyword in node.keywords)))
    return calls


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


_TREE = ast.parse(_WORKLOADS.read_text(encoding="utf-8"))
_NAMES = sorted(_package_names(_TREE))
_CALLS = _package_calls(_TREE)


def test_the_workloads_call_the_package_in_process():
    # the in-process workloads, fit_tall's calls among them, are all found
    assert {"pifmap.cli.main", "pifmap.regression.fit_standardized",
            "pifmap.regression.select_lambda",
            "pifmap.ranking.greedy_select"} <= set(_NAMES)


@pytest.mark.parametrize("name", _NAMES)
def test_every_package_name_a_workload_uses_resolves(name):
    _resolve(name)


def test_the_calls_of_fit_tall_and_the_cli_are_found():
    assert {("pifmap.cli.main", 1, ()),
            ("pifmap.regression.fit_standardized", 3, ("feature_names",)),
            ("pifmap.ranking.greedy_select", 5, ())} <= set(_CALLS)


@pytest.mark.parametrize("call", _CALLS, ids=lambda call: call[0])
def test_every_package_call_a_workload_makes_binds_to_its_signature(call):
    name, positional, keywords = call
    # raises TypeError for an argument the signature does not take
    inspect.signature(_resolve(name)).bind(*[None] * positional,
                                           **dict.fromkeys(keywords))
