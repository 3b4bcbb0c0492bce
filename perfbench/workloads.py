"""The four benchmark workloads: inputs from a seed, one timed op, its check.

Each workload is a single closed-loop client: the next op starts only after
the previous one has finished and been checked.  Every op of one run uses
the same inputs, so its outputs must be byte-identical from op to op.

Workloads call pifmap only through module attributes (``cli.main``,
``featuremap.evaluate_map``), never through names bound at import time, so
that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from typing import NamedTuple

import numpy as np

import pifmap
import pifmap.catalogs
import pifmap.cli
import pifmap.featuremap
import pifmap.ranking
import pifmap.regression
import pifmap.synthdata

cli = pifmap.cli


class CheckFailed(Exception):
    """An op's output broke one of the workload's invariants."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _main(argv: list[str]) -> str:
    """Run the CLI in-process; return its stdout, fail on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"pifmap {argv[0]} exited with {code}")
    return out.getvalue()


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _all_finite(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    return True


def _read_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a pifmap CSV with Python's float(); returns (X, y)."""
    lines = path.read_text(encoding="utf-8").split("\n")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:] if line]
    data = np.asarray(rows, dtype=float)
    return data[:, :-1], data[:, -1]


def _evaluate_spec(spec: dict, X: np.ndarray) -> np.ndarray:
    """Evaluate an enumerated spec (no transforms, no derived columns).

    Factors multiply in the order the spec declares them, features, then
    constants, then the sign, so the result can be compared bit for bit.
    """
    _require(not spec.get("derived_features"), "enumerated spec has derived columns")
    n = X.shape[0]
    constants = spec["constants"]
    out = np.empty((n, len(spec["monomials"])), dtype=float)
    for j, monomial in enumerate(spec["monomials"]):
        _require(not monomial["transforms"], "enumerated monomial has a transform")
        value = np.ones(n, dtype=float)
        for position, exponent in enumerate(monomial["feature_exponents"]):
            if exponent != 0:
                value = value * X[:, position] ** exponent
        scale = 1.0
        for constant, exponent in zip(constants, monomial["constant_exponents"]):
            if exponent != 0:
                scale *= constant["value"] ** exponent
        out[:, j] = value * (monomial["sign"] * scale)
    return out


def normal_equation_residual(Z: np.ndarray, y: np.ndarray, lam: float,
                             weights: np.ndarray) -> float:
    """||(Z'Z + lam I) w - Z'(y - mean y)|| / ||Z'(y - mean y)||."""
    gram = Z.T @ Z + lam * np.eye(Z.shape[1])
    rhs = Z.T @ (y - np.mean(y))
    return float(np.linalg.norm(gram @ weights - rhs) / np.linalg.norm(rhs))


RESIDUAL_LIMIT = 1e-8


def _check_model(model: dict, spec: dict, table: Path, split: float) -> None:
    X, y = _read_table(table)
    k = int(round(X.shape[0] * split))
    Phi = _evaluate_spec(spec, X)[:k]
    kept = model["kept_columns"]
    means = np.asarray(model["means"])
    scales = np.asarray(model["scales"])
    _require(np.allclose(means, Phi[:, kept].mean(axis=0), rtol=1e-12, atol=0),
             "model means differ from the training columns")
    _require(np.allclose(scales, Phi[:, kept].std(axis=0), rtol=1e-12, atol=0),
             "model scales differ from the training columns")
    _require(model["intercept"] == float(np.mean(y[:k])), "intercept is not mean(y)")
    Z = (Phi[:, kept] - means) / scales
    residual = normal_equation_residual(
        Z, y[:k], model["lambda"], np.asarray(model["weights"]))
    _require(residual <= RESIDUAL_LIMIT,
             f"normal-equation residual {residual:.3e} exceeds {RESIDUAL_LIMIT}")


def _check_ranking(ranking: dict) -> None:
    count = ranking["selected_count"]
    _require(1 <= count <= len(ranking["order"]), f"selected_count {count} out of range")
    _require(ranking["selected"] == ranking["order"][:count],
             "selection is not a prefix of the ranking order")
    _require(len(ranking["curve"]) >= count, "error curve shorter than the selection")


def spec_digest(document: dict) -> str:
    """sha256 of a spec JSON without its metadata, in canonical form."""
    body = {k: v for k, v in document.items() if k != "metadata"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_enumerated(document: dict, count: int, digest: str, label: str) -> None:
    monomials = document["monomials"]
    _require(len(monomials) == count,
             f"{label}: {len(monomials)} monomials, expected {count}")
    keys = [tuple(m["feature_exponents"]) + tuple(m["constant_exponents"])
            for m in monomials]
    _require(all(a < b for a, b in zip(keys, keys[1:])),
             f"{label}: monomials are not in strict lexicographic order")
    _require(spec_digest(document) == digest, f"{label}: spec digest changed")


class Workload:
    """One closed-loop client; subclasses define the op and its check."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.reference: dict | None = None

    def setup(self) -> None:
        """Prepare inputs; counted in set-up time."""

    def before_op(self) -> None:
        """Untimed preparation before each op."""

    def op(self) -> None:
        raise NotImplementedError

    def check(self) -> float:
        """Verify the last op's outputs; return the work it completed."""
        raise NotImplementedError

    def _same_as_first(self, digest: dict) -> bool:
        """True when an earlier op already produced these exact outputs."""
        if self.reference is None:
            return False
        _require(digest == self.reference, "outputs differ from the first op")
        return True

    def output_digest(self) -> dict[str, str]:
        """sha256 of every file the last op wrote."""
        return _tree_digest(self.tmp)


# --------------------------------------------------------------------------


class Reproduce(Workload):
    """``pifmap reproduce all`` at its defaults, but over 10 seeds: 70 trials."""

    name = "reproduce"
    work_unit = "trials"
    n_seeds = 10
    n_test = 300  # default n=1000 with a 0.7 chronological split

    def setup(self) -> None:
        self.first = 1 + self.n_seeds * (self.seed % 100_000)
        self.out = self.tmp / "reports"

    def before_op(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self) -> None:
        _main([
            "reproduce", "all",
            "--seeds", f"{self.first}:{self.first + self.n_seeds - 1}",
            "--out", str(self.out),
        ])

    def check(self) -> float:
        digest = _tree_digest(self.out)
        reports = {
            name: json.loads((self.out / name / "report.json").read_text())
            for name in ("bernoulli", "pulsar", "binary")
        }
        trials = sum(len(r["trials"]) for r in reports.values())
        if self._same_as_first(digest):
            return trials
        for name in ("bernoulli", "pulsar", "binary"):
            for stem in ("report.md", "per_seed.csv"):
                _require(f"{name}/{stem}" in digest, f"missing {name}/{stem}")
            _require(any(k.startswith(f"{name}/plots/") for k in digest),
                     f"missing {name} plots")
            _require(_all_finite(reports[name]), f"{name} report has non-finite numbers")
        _require(trials == 7 * self.n_seeds, f"{trials} trials, expected {7 * self.n_seeds}")
        for arm, pooled in reports["binary"]["pooled"].items():
            total = sum(sum(row) for row in pooled["confusion"])
            _require(total == self.n_test * self.n_seeds,
                     f"binary {arm} confusion total {total}")
        for name in ("bernoulli", "pulsar"):
            medians = reports[name]["medians"]["0.1"]
            for metric in ("mae", "mse"):
                _require(medians["spif"][metric] < medians["sf"][metric],
                         f"{name}: spif does not beat sf on {metric} at noise 0.1")
        self.reference = digest
        return trials


class FitRankWide(Workload):
    """synth -> fit --select -> rank on a 419-monomial enumerated spec.

    The spec is enumerated once, in set-up, as a user enumerates a schema
    once and then fits it to many tables.
    """

    name = "fit_rank_wide"
    work_unit = "design_cells"
    n_rows = 5000
    split = 0.7
    monomials = 419
    spec_digest = "8b7c6d1a3e5408e7909837fbdcc2c2657755cd114453680537716407500251c2"

    def setup(self) -> None:
        self.data_seed = 1000 + self.seed
        self.csv = self.tmp / "flow.csv"
        self.spec = self.tmp / "spec.json"
        self.model = self.tmp / "model.json"
        self.rank = self.tmp / "rank.json"
        self.curve = self.tmp / "curve.csv"
        self._synth()
        _main(["enumerate", "--schema", str(self.csv), "--target", "Pa",
               "--constants", "g", "--max-exponent", "4", "--max-active", "4",
               "--out", str(self.spec)])
        self.spec_document = json.loads(self.spec.read_text())
        _check_enumerated(self.spec_document, self.monomials, self.spec_digest,
                          "bernoulli+g 4/4")

    def _synth(self) -> None:
        _main(["synth", "bernoulli", "--n", str(self.n_rows),
               "--seed", str(self.data_seed), "--noise", "0.1",
               "--out", str(self.csv)])

    def before_op(self) -> None:
        for path in (self.csv, self.model, self.rank, self.curve):
            path.unlink(missing_ok=True)

    def op(self) -> None:
        self._synth()
        self.fit_stdout = _main([
            "fit", "--data", str(self.csv), "--spec", str(self.spec),
            "--select", "--split", str(self.split), "--out", str(self.model)])
        _main(["rank", "--data", str(self.csv), "--spec", str(self.spec),
               "--split", str(self.split), "--out", str(self.rank),
               "--curve", str(self.curve)])

    def check(self) -> float:
        digest = self.output_digest()
        work = float(self.n_rows * self.monomials)
        if self._same_as_first(digest):
            return work
        metrics = json.loads(self.fit_stdout)
        _require(_all_finite(metrics), "fit metrics are not finite")
        model = json.loads(self.model.read_text())
        _check_model(model, self.spec_document, self.csv, self.split)
        _check_ranking(json.loads(self.rank.read_text()))
        self.reference = digest
        return work


class Enumeration(NamedTuple):
    label: str
    schema: str
    target: str
    constants: str
    max_exponent: int
    max_active: int
    count: int  # expected monomials
    digest: str  # expected spec_digest()


ENUMERATIONS = (
    Enumeration("flare-search", "flare", "T*A*m^2", "", 3, 4, 152,
                "8a2fdd9042856ac4452f051a4ea5f989248ea0080e8e92873f619e70a27ad8c1"),
    Enumeration("flare-output", "flare", "T*A*m^2", "", 2, 6, 630,
                "70d9cd4847503ac1a14869558f33935e5b00094e93ae1b2064bdf74af13ae246"),
    Enumeration("pulsar-constants", "pulsar", "W", "mu0,c", 3, 3, 131,
                "3ad74cb682e10d21f49cd5194e9eed455b391807715f9c3526e921821acae6a0"),
)

SCHEMAS = {
    "flare": [["I", "A"], ["F", "T*A*m"], ["H", "T^2/m"], ["Phi", "T*m^2"],
              ["S", "m^2"], ["rho", "T*A/m"], ["B", "T"], ["gradB", "T/m"],
              ["l", "m"]],
    "pulsar": [["r", "m"], ["B", "T"], ["omega", "1/s"], ["alpha", "rad"],
               ["P", "s"], ["m", "kg"], ["I", "kg*m^2"], ["E", "kg*m^2/s^2"]],
}


class Enumerate(Workload):
    """Three ``pifmap enumerate`` calls on fixed schemas; seedless."""

    name = "enumerate"
    work_unit = "monomials"

    def setup(self) -> None:
        for schema, features in SCHEMAS.items():
            (self.tmp / f"{schema}.json").write_text(json.dumps({"features": features}))

    def _out(self, e: Enumeration) -> Path:
        return self.tmp / f"{e.label}.spec.json"

    def before_op(self) -> None:
        for e in ENUMERATIONS:
            self._out(e).unlink(missing_ok=True)

    def op(self) -> None:
        for e in ENUMERATIONS:
            _main(["enumerate", "--schema", str(self.tmp / f"{e.schema}.json"),
                   "--target", e.target, "--constants", e.constants,
                   "--max-exponent", str(e.max_exponent),
                   "--max-active", str(e.max_active), "--out", str(self._out(e))])

    def check(self) -> float:
        digest = self.output_digest()
        work = float(sum(e.count for e in ENUMERATIONS))
        if self._same_as_first(digest):
            return work
        for e in ENUMERATIONS:
            document = json.loads(self._out(e).read_text())
            _check_enumerated(document, e.count, e.digest, e.label)
        self.reference = digest
        return work


class FitTall(Workload):
    """In-process API on 500,000 pulsar rows, nine mapped columns."""

    name = "fit_tall"
    work_unit = "rows"
    n_rows = 500_000
    split = 0.7
    noise = 0.1

    def setup(self) -> None:
        self.data_seed = 2000 + self.seed
        self.noise_seed = 3000 + self.seed

    def op(self) -> None:
        regression = pifmap.regression
        spec = pifmap.catalogs.load_catalog("pulsar", allow_inconsistent=True)
        data = pifmap.synthdata.gen_pulsar(self.n_rows, self.data_seed)
        y = pifmap.synthdata.add_noise(
            data.y, pifmap.synthdata.NoiseConfig(level=self.noise, seed=self.noise_seed))
        Phi = pifmap.featuremap.evaluate_map(spec, data)
        k = int(round(self.n_rows * self.split))
        Z_select, _ = regression.standardize_fit(Phi[:k])
        lam = regression.select_lambda(Z_select, y[:k])
        model, Z_train = regression.fit_standardized(
            Phi[:k], y[:k], lam, feature_names=spec.monomial_names)
        Z_test = regression.standardize_apply(Phi[k:], model.standardization)
        ranking = pifmap.ranking.greedy_select(Z_train, y[:k], Z_test, y[k:], lam)
        self.result = (Z_train, y[:k], model, ranking)

    def check(self) -> float:
        Z_train, y_train, model, ranking = self.result
        residual = normal_equation_residual(Z_train, y_train, model.lam, model.weights)
        _require(residual <= RESIDUAL_LIMIT,
                 f"normal-equation residual {residual:.3e} exceeds {RESIDUAL_LIMIT}")
        _check_ranking({
            "selected_count": ranking.selected_count,
            "order": list(ranking.order),
            "selected": list(ranking.selected),
            "curve": list(ranking.curve),
        })
        digest = self.output_digest()
        if not self._same_as_first(digest):
            self.reference = digest
        return float(self.n_rows)

    def output_digest(self) -> dict[str, str]:
        """The op writes no files; digest its weights, lambda and ranking."""
        _, _, model, ranking = self.result
        return {
            "weights": hashlib.sha256(np.asarray(model.weights).tobytes()).hexdigest(),
            "lambda": repr(model.lam),
            "ranking": repr((ranking.order, ranking.selected_count, ranking.curve)),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Reproduce, FitRankWide, Enumerate, FitTall)
}
