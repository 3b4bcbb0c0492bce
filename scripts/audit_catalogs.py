#!/usr/bin/env python3
"""Dimensional audit table for the shipped monomial catalogs.

Loads each catalog permissively, evaluates every monomial's physical
dimension, and prints it next to the catalog's target so inconsistent
entries are visible at a glance.  Exits 1 if any catalog carries an
inconsistency its ``metadata["known_inconsistent"]`` does not list.  (A
permissive load keeps every mismatch it finds, so the spec's own
``inconsistent_indices`` lists a new entry and a known one alike.)  Each
dimension is ``monomial_dimension(spec, index)``, an exact sum of unit
exponents over the spec's exponent row, independent of the integer
lattice product the spec's constructor runs.
"""

import argparse
import sys

from pifmap.catalogs import CATALOG_NAMES, load_catalog
from pifmap.dimension import format_unit
from pifmap.featuremap import monomial_dimension, render_monomial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "names", nargs="*", metavar="catalog",
        help=f"catalogs to audit (default: all of {', '.join(CATALOG_NAMES)})",
    )
    args = parser.parse_args(argv)
    for name in args.names:
        if name not in CATALOG_NAMES:
            parser.error(f"unknown catalog {name!r} (choose from {', '.join(CATALOG_NAMES)})")
    names = tuple(args.names) or CATALOG_NAMES

    undeclared = 0
    for name in names:
        spec = load_catalog(name, allow_inconsistent=True)
        target = format_unit(spec.target_dimension)
        known = set(spec.metadata.get("known_inconsistent", ()))
        print(f"{name}: {len(spec)} monomials, target [{target}]")
        for index in range(len(spec)):
            dimension = monomial_dimension(spec, index)
            label = spec.monomial_names[index]
            if dimension == spec.target_dimension:
                flag = "ok"
            elif label in known:
                flag = "INCONSISTENT (declared)"
            else:
                flag = "INCONSISTENT (undeclared!)"
                undeclared += 1
            rendered = render_monomial(spec, index)
            print(f"  {label:>10}  {rendered:<34} [{format_unit(dimension)}]  {flag}")
        print()
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
