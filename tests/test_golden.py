"""Byte-for-byte golden outputs of the CLI.

The files under ``tests/golden/`` were written once by the commands below
and are never regenerated: a refactor that moves any reported number,
digit or byte fails here.

- ``reproduce all --seeds 1:3 --n 200 --csv-only``: the nine report files
  under ``golden/reproduce/<experiment>/``.
- ``fit --spec <bernoulli catalog> --select`` on the table written by
  ``synth bernoulli --n 400 --seed 5``: the model JSON and the metrics
  printed on stdout, under ``golden/fit/``.
- ``rank --spec <bernoulli catalog> --out --curve`` on the same table: the
  ranking JSON and the error-curve CSV, under ``golden/rank/``.
"""

import json
from pathlib import Path

import pytest

from pifmap.catalogs import load_catalog
from pifmap.cli import EXIT_OK, main
from pifmap.featuremap import spec_to_dict

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_reproduce(out: Path) -> dict[str, bytes]:
    assert main(["reproduce", "all", "--seeds", "1:3", "--n", "200",
                 "--csv-only", "--out", str(out)]) == EXIT_OK
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def write_fit_and_rank(work: Path, capsys) -> dict[str, bytes]:
    table = work / "bernoulli.csv"
    spec = work / "bernoulli_spec.json"
    assert main(["synth", "bernoulli", "--n", "400", "--seed", "5",
                 "--out", str(table)]) == EXIT_OK
    spec.write_text(json.dumps(spec_to_dict(load_catalog("bernoulli"))),
                    encoding="utf-8")
    capsys.readouterr()
    model = work / "model.json"
    assert main(["fit", "--data", str(table), "--spec", str(spec),
                 "--select", "--out", str(model)]) == EXIT_OK
    fit_stdout = capsys.readouterr().out.encode("utf-8")
    ranking = work / "ranking.json"
    curve = work / "curve.csv"
    assert main(["rank", "--data", str(table), "--spec", str(spec),
                 "--out", str(ranking), "--curve", str(curve)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    return {
        "fit/model.json": model.read_bytes(),
        "fit/stdout.json": fit_stdout,
        "rank/ranking.json": ranking.read_bytes(),
        "rank/curve.csv": curve.read_bytes(),
    }


def _golden(subdir: str) -> dict[str, bytes]:
    root = GOLDEN / subdir
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.fixture(autouse=True)
def _default_environment(monkeypatch):
    monkeypatch.delenv("PIFMAP_LAMBDA_GRID", raising=False)
    monkeypatch.delenv("PIFMAP_BUDGET", raising=False)


def test_reproduce_all_matches_golden_reports(tmp_path):
    produced = write_reproduce(tmp_path / "reports")
    expected = _golden("reproduce")
    assert len(expected) == 9
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name


def test_fit_and_rank_match_golden_outputs(tmp_path, capsys):
    produced = write_fit_and_rank(tmp_path, capsys)
    expected = {
        f"{sub}/{name}": data
        for sub in ("fit", "rank")
        for name, data in _golden(sub).items()
    }
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name
