"""No NumPy 2 addition in ``src/pifmap``, which declares ``numpy>=1.24``.

The tests run under one NumPy 2 release, so a name that NumPy 1.24 lacks
would pass every other test.  This module scans the source for a named
set of NumPy >= 2.0 additions.  It is a name guard, not a run under NumPy
1.24: an addition missing from the set below, or a changed signature or
behaviour of an older name, goes unseen.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "pifmap"

# Array attributes added in NumPy 2.0; flagged on any expression.
NEW_ATTRIBUTES = frozenset({"mT", "mH", "device", "to_device"})

# Names added to each namespace in NumPy 2.0 or later.
NEW_NAMES = {
    "numpy": frozenset({
        "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
        "bitwise_count", "bitwise_invert", "bitwise_left_shift",
        "bitwise_right_shift", "concat", "cumulative_prod", "cumulative_sum",
        "isdtype", "matrix_transpose", "matvec", "permute_dims", "pow",
        "trapezoid", "unique_all", "unique_counts", "unique_inverse",
        "unique_values", "unstack", "vecdot", "vecmat",
    }),
    "numpy.linalg": frozenset({
        "cross", "diagonal", "matrix_norm", "matrix_transpose", "outer",
        "svdvals", "trace", "vecdot", "vector_norm",
    }),
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


def numpy_2_names(source: str) -> list[str]:
    """Every NumPy >= 2.0 addition ``source`` uses, as ``line: name``."""
    tree = ast.parse(source)
    modules = {}  # local name -> the numpy module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    bound = alias.asname or alias.name.split(".")[0]
                    modules[bound] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.module in NEW_NAMES:
            for alias in node.names:
                if alias.name in NEW_NAMES[node.module]:
                    found.append(f"{node.lineno}: {node.module}.{alias.name}")
                qualified = f"{node.module}.{alias.name}"
                if qualified in NEW_NAMES:
                    modules[alias.asname or alias.name] = qualified
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in NEW_ATTRIBUTES:
            found.append(f"{node.lineno}: .{node.attr}")
            continue
        owner = _dotted(node.value)
        if owner is None:
            continue
        head, _, rest = owner.partition(".")
        if head not in modules:
            continue
        module = ".".join(filter(None, [modules[head], rest]))
        if node.attr in NEW_NAMES.get(module, ()):
            found.append(f"{node.lineno}: {module}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_source_uses_no_numpy_2_addition(path):
    assert numpy_2_names(path.read_text()) == []


@pytest.mark.parametrize("snippet, name", [
    ("import numpy as np\nZ.mT @ Z", ".mT"),
    ("import numpy as np\nZ.mH", ".mH"),
    ("import numpy as np\nnp.vecdot(a, b)", "numpy.vecdot"),
    ("import numpy\nnumpy.concat([a, b])", "numpy.concat"),
    ("import numpy as np\nnp.matrix_transpose(a)", "numpy.matrix_transpose"),
    ("import numpy as np\nnp.permute_dims(a, (1, 0))", "numpy.permute_dims"),
    ("import numpy as np\nnp.linalg.vector_norm(a)", "numpy.linalg.vector_norm"),
    ("import numpy.linalg as la\nla.matrix_norm(a)", "numpy.linalg.matrix_norm"),
    ("from numpy import linalg\nlinalg.vecdot(a, b)", "numpy.linalg.vecdot"),
    ("from numpy import vecdot", "numpy.vecdot"),
    ("from numpy.linalg import vector_norm", "numpy.linalg.vector_norm"),
])
def test_the_guard_finds_each_kind_of_use(snippet, name):
    assert numpy_2_names(snippet) == [f"{snippet.count(chr(10)) + 1}: {name}"]


def test_the_guard_passes_names_numpy_1_24_has():
    snippet = ("import numpy as np\nnp.swapaxes(Z, -1, -2)\nnp.linalg.norm(v)\n"
               "np.concatenate([a, b])\nnp.power(a, 2)\nZ.T @ Z\nnp.trace(G)\n")
    assert numpy_2_names(snippet) == []
