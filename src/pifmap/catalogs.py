"""Curated feature-map catalogs for the bundled experiments.

Catalogs are stored in the same JSON document shape that
:func:`pifmap.featuremap.spec_from_dict` reads from disk, so loading them
exercises exactly the code path user-supplied catalog files go through.

The pulsar catalog is knowingly imperfect: its third and seventh entries
do not evaluate to the declared target dimension (W) and are kept as
written, so a strict load fails on exactly those two and an
``allow_inconsistent`` load attaches diagnostics instead.  Entry two is
recorded with the surface speed ``v = r*omega`` substituted (see the
catalog metadata); its constant powers are chosen so the entry does carry
dimension W.
"""

from __future__ import annotations

import copy

from .errors import UnknownCatalog
from .featuremap import FeatureMapSpec, spec_from_dict

__all__ = ["CATALOG_NAMES", "load_catalog"]


_BERNOULLI = {
    "name": "bernoulli",
    "target_unit": "Pa",
    "features": [
        {"name": "p", "unit": "kg/(m*s^2)"},
        {"name": "rho", "unit": "kg/m^3"},
        {"name": "v", "unit": "m/s"},
        {"name": "Q", "unit": "m^3/s"},
        {"name": "A", "unit": "m^2"},
        {"name": "mu", "unit": "kg/(m*s)"},
        {"name": "h", "unit": "m"},
    ],
    "constants": [
        {"name": "g", "value": 9.80665, "unit": "m/s^2"},
    ],
    "monomials": [
        {"sign": 1, "feature_exponents": [1, 0, 0, 0, 0, 0, 0], "constant_exponents": [0]},
        {"sign": 1, "feature_exponents": [0, 1, 2, 0, 0, 0, 0], "constant_exponents": [0]},
        {"sign": 1, "feature_exponents": [0, 1, 0, 0, 0, 0, 1], "constant_exponents": [1]},
        {"sign": 1, "feature_exponents": [1, 0, -1, 1, -1, 0, 0], "constant_exponents": [0]},
        {"sign": 1, "feature_exponents": [0, 0, 1, 0, 0, 1, -1], "constant_exponents": [0]},
        {"sign": 1, "feature_exponents": [0, 0, 0, 1, -1, 1, -1], "constant_exponents": [0]},
        {"sign": 1, "feature_exponents": [0, 1, 0, 0, 1, 0, -1], "constant_exponents": [1]},
    ],
    "metadata": {
        "description": (
            "Pressure-balance terms for a viscous pipe flow: static pressure, "
            "dynamic pressure, hydrostatic head, and viscous loss ratios."
        ),
        "label": "p + 0.5*rho*v^2 + rho*g*h",
    },
}

_PULSAR = {
    "name": "pulsar",
    "target_unit": "W",
    "features": [
        {"name": "r", "unit": "m"},
        {"name": "B", "unit": "T"},
        {"name": "omega", "unit": "1/s"},
        {"name": "alpha", "unit": "rad"},
        {"name": "P", "unit": "s"},
        {"name": "m", "unit": "kg"},
        {"name": "I", "unit": "kg*m^2"},
        {"name": "E", "unit": "kg*m^2/s^2"},
    ],
    "constants": [
        {"name": "mu0", "value": 1.2566370614e-06, "unit": "kg*m/(A^2*s^2)"},
        {"name": "c", "value": 299792458.0, "unit": "m/s"},
    ],
    "monomials": [
        {
            "sign": -1,
            "feature_exponents": [6, 2, 4, 1, 0, 0, 0, 0],
            "constant_exponents": [-1, -3],
            "transforms": {"3": "sin2"},
        },
        {
            "sign": -1,
            "feature_exponents": [2, 2, 0, 1, 0, 0, 0, 0],
            "constant_exponents": [-1, 1],
            "transforms": {"3": "sin2"},
        },
        {
            "sign": -1,
            "feature_exponents": [4, 2, 1, 0, 0, 0, 0, 0],
            "constant_exponents": [-1, 0],
        },
        {
            "sign": -1,
            "feature_exponents": [0, 0, 0, 0, -1, 0, 0, 1],
            "constant_exponents": [0, 0],
        },
        {
            "sign": -1,
            "feature_exponents": [0, 0, 0, 0, -3, 0, 1, 0],
            "constant_exponents": [0, 0],
        },
        {
            "sign": -1,
            "feature_exponents": [2, 0, 3, 0, 0, 1, 0, 0],
            "constant_exponents": [0, 0],
        },
        {
            "sign": -1,
            "feature_exponents": [2, 0, -3, 0, 0, 1, 0, 0],
            "constant_exponents": [0, 0],
        },
    ],
    "metadata": {
        "description": (
            "Candidate spin-down luminosity terms for a rotating magnetic "
            "dipole; all entries are negated so fitted weights come out "
            "positive for a dissipating system."
        ),
        "substitutions": {
            "pif_2": (
                "written in terms of the surface speed v = r*omega; constant "
                "powers chosen so the entry has the declared dimension W"
            ),
        },
        "known_inconsistent": ["pif_3", "pif_7"],
        "notes": [
            "pif_3 (B^2*r^4*omega/mu0) evaluates to kg*m^3*s^-3, not W; kept as written.",
            "pif_7 (m*r^2*omega^-3) evaluates to kg*m^2*s^3, not W; kept as written.",
        ],
    },
}


_BINARY = {
    "name": "binary",
    "target_unit": "J",
    "features": [
        {"name": "m1", "unit": "kg"},
        {"name": "m2", "unit": "kg"},
        {"name": "v", "unit": "m/s"},
        {"name": "r", "unit": "m"},
    ],
    "derived_features": [
        {"name": "mu_red", "unit": "kg", "kind": "reduced_mass", "args": ["m1", "m2"]},
    ],
    "constants": [
        {"name": "G", "value": 6.674e-11, "unit": "m^3/(kg*s^2)"},
    ],
    "monomials": [
        {"sign": 1, "feature_exponents": [0, 0, 2, 0, 1], "constant_exponents": [0]},
        {"sign": -1, "feature_exponents": [1, 1, 0, -1, 0], "constant_exponents": [1]},
    ],
    "metadata": {
        "description": (
            "Kinetic and potential energy of a two-body system; a pair is "
            "bound when 0.5*pif_1 + pif_2 < 0."
        ),
        "label": "1 if 0.5*mu_red*v^2 - G*m1*m2/r < 0 else 0",
    },
}

_FLARE = {
    "name": "flare",
    "target_unit": "T*A*m^2",
    "features": [
        {"name": "I", "unit": "A"},
        {"name": "F", "unit": "T*A*m"},
        {"name": "H", "unit": "T^2/m"},
        {"name": "Phi", "unit": "T*m^2"},
        {"name": "S", "unit": "m^2"},
        {"name": "rho", "unit": "T*A/m"},
        {"name": "B", "unit": "T"},
        {"name": "gradB", "unit": "T/m"},
        {"name": "l", "unit": "m"},
    ],
    "constants": [],
    "monomials": [
        {"sign": 1, "feature_exponents": [1, 0, 0, 0, 1, 0, 1, 0, 0], "constant_exponents": []},
        {"sign": 1, "feature_exponents": [1, 0, 0, 1, 0, 0, 0, 0, 0], "constant_exponents": []},
        {"sign": 1, "feature_exponents": [0, 1, 0, 0, 1, 0, -1, 1, 0], "constant_exponents": []},
        {"sign": 1, "feature_exponents": [0, 1, -1, 0, 0, 0, 2, 0, 0], "constant_exponents": []},
        {"sign": 1, "feature_exponents": [1, 0, 1, 0, 1, 0, 0, -1, 0], "constant_exponents": []},
        {"sign": 1, "feature_exponents": [2, -1, 1, 0, 2, 0, 0, 0, 0], "constant_exponents": []},
        {"sign": 1, "feature_exponents": [1, 0, 0, 0, 1, 0, 0, 1, 1], "constant_exponents": []},
        {"sign": 1, "feature_exponents": [0, 0, 0, 0, 1, 1, 0, 0, 1], "constant_exponents": []},
    ],
    "metadata": {
        "description": (
            "Magnetic-energy combinations of active-region summary features; "
            "the target dimension is an energy expressed in magnetic units."
        ),
    },
}


_CATALOGS: dict[str, dict] = {
    "bernoulli": _BERNOULLI,
    "pulsar": _PULSAR,
    "binary": _BINARY,
    "flare": _FLARE,
}

CATALOG_NAMES: tuple[str, ...] = tuple(sorted(_CATALOGS))


def load_catalog(name: str, *, allow_inconsistent: bool = False) -> FeatureMapSpec:
    """Load a curated catalog by name.

    Strict loading (the default) raises
    :class:`~pifmap.errors.DimensionMismatch` if any entry fails the
    dimension check; with ``allow_inconsistent=True`` such entries are
    kept and described in ``spec.diagnostics``.
    """
    try:
        document = _CATALOGS[name]
    except KeyError:
        raise UnknownCatalog(
            f"no catalog named {name!r}; available: {', '.join(CATALOG_NAMES)}"
        ) from None
    return spec_from_dict(
        copy.deepcopy(document), allow_inconsistent=allow_inconsistent
    )
