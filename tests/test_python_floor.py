"""No Python 3.11 addition in ``src/pifmap``, which declares ``requires-python >=3.10``.

The tests run under Python 3.11 only, the one interpreter here with numpy,
so syntax or a standard-library name that 3.10 lacks would pass every
other test.  This module parses each source file with
``ast.parse(..., feature_version=(3, 10))``, which refuses newer syntax
such as ``except*`` (as far as the parser checks versions: a starred
subscript is not refused), and scans for a named set of standard-library
additions from Python 3.11 on.  It is a name guard, not a run under 3.10:
an addition missing from the set below, or a changed signature or
behaviour of an older name, goes unseen.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "pifmap"

FLOOR = (3, 10)

# Modules added in Python 3.11 or later.
NEW_MODULES = frozenset({"tomllib"})

# Names added to each module in Python 3.11 or later.
NEW_NAMES = {
    "typing": frozenset({
        "Self", "LiteralString", "Never", "assert_never", "assert_type",
        "reveal_type", "TypeVarTuple", "Unpack", "Required", "NotRequired",
        "dataclass_transform", "override",
    }),
    "enum": frozenset({"StrEnum", "ReprEnum", "verify", "EnumCheck"}),
    "datetime": frozenset({"UTC"}),
    "math": frozenset({"exp2", "cbrt", "sumprod"}),
    "hashlib": frozenset({"file_digest"}),
    "operator": frozenset({"call"}),
    "contextlib": frozenset({"chdir"}),
    "itertools": frozenset({"batched"}),
}


def _dotted(node):
    """``a.b.c`` of a chain of attributes on a name, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def python_3_11_names(source: str) -> list[str]:
    """Every Python >= 3.11 addition ``source`` uses, as ``line: name``."""
    tree = ast.parse(source)
    modules = {}  # local name -> the module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in NEW_MODULES:
                    found.append(f"{node.lineno}: {alias.name}")
                if alias.name in NEW_NAMES:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module in NEW_MODULES:
                found.append(f"{node.lineno}: {node.module}")
            for alias in node.names:
                if alias.name in NEW_NAMES.get(node.module, ()):
                    found.append(f"{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = _dotted(node.value)
        if owner in modules and node.attr in NEW_NAMES[modules[owner]]:
            found.append(f"{node.lineno}: {modules[owner]}.{node.attr}")
    return sorted(found)


SOURCES = sorted(SOURCE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_uses_no_python_3_11_addition(path):
    assert python_3_11_names(path.read_text()) == []


def test_the_parse_refuses_python_3_11_syntax():
    with pytest.raises(SyntaxError, match="Exception groups"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=FLOOR)


@pytest.mark.parametrize("snippet, name", [
    ("import tomllib", "tomllib"),
    ("from tomllib import loads", "tomllib"),
    ("from typing import Self", "typing.Self"),
    ("import typing\ntyping.Self", "typing.Self"),
    ("import typing as t\nt.Self", "typing.Self"),
    ("from enum import StrEnum", "enum.StrEnum"),
    ("import enum\nenum.StrEnum", "enum.StrEnum"),
    ("from datetime import UTC", "datetime.UTC"),
    ("import datetime\ndatetime.UTC", "datetime.UTC"),
    ("import math\nmath.exp2(x)", "math.exp2"),
    ("from math import cbrt", "math.cbrt"),
    ("import hashlib\nhashlib.file_digest(f, 'sha256')", "hashlib.file_digest"),
    ("import operator\noperator.call(f)", "operator.call"),
])
def test_the_guard_finds_each_kind_of_use(snippet, name):
    assert python_3_11_names(snippet) == [f"{snippet.count(chr(10)) + 1}: {name}"]


def test_the_guard_passes_names_python_3_10_has():
    snippet = ("import math\nmath.lcm(a, b)\nmath.isqrt(n)\nfrom typing import Union\n"
               "import enum\nenum.Enum\nimport datetime\ndatetime.timezone.utc\n"
               "import operator\noperator.add\nSelf = 1\nUTC = 2\n")
    assert python_3_11_names(snippet) == []
