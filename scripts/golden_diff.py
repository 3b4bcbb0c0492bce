#!/usr/bin/env python3
"""List the float values that differ between two trees of output files.

    python3 scripts/golden_diff.py OLD_DIR NEW_DIR

Walks both trees and prints one line per differing JSON float or numeric
CSV cell, as ``file:path: old -> new (relative change)``.  A JSON string
that is a float's ``repr`` (as the tall pins hold their curve) counts as
that float.  A JSON path is
the keys and list indices from the document's root joined by ``/``; a CSV
path is ``line/column``, the file's line number and the header's column
name.  Any other difference is printed as ``file:path: description`` and
makes the exit status 1: a file in one tree only, a key set, a list
length, a string, an int or bool, a null, a non-numeric or integer CSV
cell, a change in layout (whitespace, quoting, line endings), or any byte
of a file that is neither ``.json`` nor ``.csv``.  With only float
differences, or none, the exit status is 0.  Standard library only.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

# A JSON number or a number in a CSV cell; blanking every match leaves the
# layout, which must not change.
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|-?Infinity|NaN|-?inf|nan")
_INTEGER = re.compile(r"-?\d+")


def _float_line(where: str, old: float, new: float) -> str:
    change = abs(new - old) / abs(old) if old else math.inf
    return f"{where}: {old!r} -> {new!r} ({change:.2g})"


def _same_float(old: float, new: float) -> bool:
    return old.hex() == new.hex() or (math.isnan(old) and math.isnan(new))


def _repr_float(value) -> float | None:
    """The float whose ``repr`` is the string ``value``, else None."""
    if not isinstance(value, str):
        return None
    try:
        number = float(value)
    except ValueError:
        return None
    return number if repr(number) == value else None


def _json_diff(name: str, path: tuple, old, new, floats: list, others: list) -> None:
    where = f"{name}:{'/'.join(path)}"
    if _repr_float(old) is not None and _repr_float(new) is not None:
        old, new = _repr_float(old), _repr_float(new)
    if type(old) is float and type(new) is float:
        if not _same_float(old, new):
            floats.append(_float_line(where, old, new))
    elif type(old) is not type(new):
        others.append(f"{where}: {old!r} -> {new!r} (type changed)")
    elif isinstance(old, dict):
        if old.keys() != new.keys():
            others.append(f"{where}: keys {sorted(old)} -> {sorted(new)}")
        for key in sorted(old.keys() & new.keys()):
            _json_diff(name, path + (key,), old[key], new[key], floats, others)
    elif isinstance(old, list):
        if len(old) != len(new):
            others.append(f"{where}: length {len(old)} -> {len(new)}")
        for index, (a, b) in enumerate(zip(old, new)):
            _json_diff(name, path + (str(index),), a, b, floats, others)
    elif old != new:
        others.append(f"{where}: {old!r} -> {new!r}")


def _csv_float(cell: str) -> float | None:
    if _INTEGER.fullmatch(cell):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_diff(name: str, old: str, new: str, floats: list, others: list) -> None:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if len(old_rows) != len(new_rows):
        others.append(f"{name}: {len(old_rows)} lines -> {len(new_rows)}")
    header = old_rows[0] if old_rows else []
    for line, (old_row, new_row) in enumerate(zip(old_rows, new_rows), start=1):
        if len(old_row) != len(new_row):
            others.append(f"{name}:{line}: {len(old_row)} cells -> {len(new_row)}")
        for column, (a, b) in enumerate(zip(old_row, new_row)):
            if a == b:
                continue
            label = header[column] if column < len(header) else str(column)
            where = f"{name}:{line}/{label}"
            x, y = _csv_float(a), _csv_float(b)
            if x is None or y is None:
                others.append(f"{where}: {a!r} -> {b!r} (not a float cell)")
            elif not _same_float(x, y):
                floats.append(_float_line(where, x, y))


def diff_file(name: str, old: bytes, new: bytes, floats: list, others: list) -> None:
    """Append the float differences and all other differences of one file."""
    if old == new:
        return
    suffix = Path(name).suffix
    if suffix not in (".json", ".csv"):
        others.append(f"{name}: bytes differ")
        return
    try:
        old_text, new_text = old.decode("utf-8"), new.decode("utf-8")
        if suffix == ".json":
            old_doc, new_doc = json.loads(old_text), json.loads(new_text)
    except ValueError as exc:
        others.append(f"{name}: not readable as {suffix[1:]}: {exc}")
        return
    if _NUMBER.sub("#", old_text) != _NUMBER.sub("#", new_text):
        others.append(f"{name}: layout differs outside the numbers")
    if suffix == ".json":
        _json_diff(name, (), old_doc, new_doc, floats, others)
    else:
        _csv_diff(name, old_text, new_text, floats, others)


def _files(root: Path) -> dict[str, Path]:
    return {
        path.relative_to(root).as_posix(): path
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old", type=Path, metavar="OLD_DIR")
    parser.add_argument("new", type=Path, metavar="NEW_DIR")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    old_files, new_files = _files(args.old), _files(args.new)
    floats: list[str] = []
    others: list[str] = []
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files:
            others.append(f"{name}: only in {args.old}")
        elif name not in old_files:
            others.append(f"{name}: only in {args.new}")
        else:
            diff_file(name, old_files[name].read_bytes(),
                      new_files[name].read_bytes(), floats, others)
    for line in floats + others:
        print(line)
    return 1 if others else 0


if __name__ == "__main__":
    sys.exit(main())
