"""scripts/golden_diff.py on two tiny trees of output files."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_diff.py"

OLD_JSON = {"lambda": 0.5, "kept": [0, 2], "name": "a", "flag": True,
            "none": None, "weights": [1.25, -3.0], "nested": {"0.1": {"x": 2.0}}}
OLD_CSV = "k,mae,label\n1,0.5,a\n2,1e-06,\n"


def _golden_diff():
    spec = importlib.util.spec_from_file_location("golden_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, document=OLD_JSON, table=OLD_CSV, notes="same\n") -> Path:
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "model.json").write_text(json.dumps(document, indent=2))
    (root / "curve.csv").write_text(table)
    (root / "report.md").write_text(notes)
    return root


def _run(tmp_path, capsys, **new) -> tuple[int, list[str]]:
    old = _tree(tmp_path / "old")
    status = _golden_diff().main([str(old), str(_tree(tmp_path / "new", **new))])
    return status, capsys.readouterr().out.splitlines()


def test_identical_trees_print_nothing(tmp_path, capsys):
    assert _run(tmp_path, capsys) == (0, [])


def test_float_differences_are_listed_with_their_relative_change(tmp_path, capsys):
    document = dict(OLD_JSON, weights=[1.25, -3.000000000003],
                    nested={"0.1": {"x": 2.5}})
    status, lines = _run(tmp_path, capsys, document=document,
                         table="k,mae,label\n1,0.5,a\n2,2e-06,\n")
    assert status == 0
    assert lines == [
        "curve.csv:3/mae: 1e-06 -> 2e-06 (1)",
        "sub/model.json:nested/0.1/x: 2.0 -> 2.5 (0.25)",
        "sub/model.json:weights/1: -3.0 -> -3.000000000003 (1e-12)",
    ]


def test_a_string_holding_a_float_repr_is_compared_as_that_float(tmp_path, capsys):
    old = dict(OLD_JSON, curve=[[1, "1.9388893070638717e+31", "0.5"]])
    new = dict(OLD_JSON, curve=[[1, "1.938889307063876e+31", "0.5"]])
    trees = [_tree(tmp_path / side, document=document)
             for side, document in (("old", old), ("new", new))]
    assert _golden_diff().main([str(tree) for tree in trees]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sub/model.json:curve/0/1: 1.9388893070638717e+31 -> "
        "1.938889307063876e+31 (2.2e-15)",
    ]
    # "0.50" is no float's repr, so it changes as a string
    new["curve"][0][2] = "0.50"
    assert _golden_diff().main([str(trees[0]), str(_tree(tmp_path / "other",
                                                          document=new))]) == 1


@pytest.mark.parametrize("change", [
    {"document": dict(OLD_JSON, lambda_=0.5)},  # a key set
    {"document": dict(OLD_JSON, name="b")},  # a string
    {"document": dict(OLD_JSON, kept=[0, 3])},  # an int
    {"document": dict(OLD_JSON, kept=[0, 2.0])},  # an int that became a float
    {"document": dict(OLD_JSON, flag=False)},  # a bool
    {"document": dict(OLD_JSON, none=0.0)},  # a null
    {"document": dict(OLD_JSON, weights=[1.25])},  # a list length
    {"table": "k,mae,label\n1,0.5,b\n2,1e-06,\n"},  # a non-numeric cell
    {"table": "k,mae,label\n1,0.5,a\n3,1e-06,\n"},  # an integer cell
    {"table": "k,mae,label\r\n1,0.5,a\r\n2,1e-06,\r\n"},  # line endings
    {"notes": "changed\n"},  # a file that is neither JSON nor CSV
])
def test_any_other_difference_exits_1(tmp_path, capsys, change):
    status, lines = _run(tmp_path, capsys, **change)
    assert status == 1
    assert lines


def test_json_layout_change_exits_1(tmp_path, capsys):
    old = _tree(tmp_path / "old")
    new = _tree(tmp_path / "new")
    (new / "sub" / "model.json").write_text(json.dumps(OLD_JSON))
    assert _golden_diff().main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert out == "sub/model.json: layout differs outside the numbers\n"


def test_a_file_in_one_tree_only_exits_1(tmp_path, capsys):
    old = _tree(tmp_path / "old")
    new = _tree(tmp_path / "new")
    (new / "extra.json").write_text("{}")
    assert _golden_diff().main([str(old), str(new)]) == 1
    assert capsys.readouterr().out == f"extra.json: only in {new}\n"
