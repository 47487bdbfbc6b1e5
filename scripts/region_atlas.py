"""Character atlas of very-ampleness regions over an (a, b) box.

One panel per bundle shape: columns are a, rows are b (descending), and each
cell is Y (very ample), . (not very ample) or ? (open).  The open strips of
the rank-3 families are visible as diagonal bands of ?.

    python scripts/region_atlas.py
    python scripts/region_atlas.py --bundles "2:1;1:2,2:3" --a-max 8
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from veryample import Divisor, classify_very_ample, parse_bundle

DEFAULT_BUNDLES = ("2:1", "2:0", "3:1", "3:2", "3:4", "1:2,2:3", "4:3")

MARKS = {"VeryAmple": "Y", "NotVeryAmple": ".", "Unknown": "?"}


def panel(text: str, a_max: int, b_lo: int, b_hi: int) -> None:
    E = parse_bundle(text)
    print(f"E = {text}  (rank {E.rank}, degree {E.degree}, "
          f"mu^-(E) = {E.mu_minus})")
    print("      a=" + " ".join(f"{a}" for a in range(1, a_max + 1)))
    for b in range(b_hi, b_lo - 1, -1):
        row = " ".join(
            MARKS[classify_very_ample(E, Divisor(a, b)).status]
            for a in range(1, a_max + 1)
        )
        print(f"  b={b:>3} {row}")
    print()


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bundles", default=";".join(DEFAULT_BUNDLES),
                        help="semicolon-separated list of r:d,... bundles "
                             "(commas belong to the bundle grammar itself)")
    parser.add_argument("--a-max", type=int, default=6)
    parser.add_argument("--b-min", type=int, default=-5)
    parser.add_argument("--b-max", type=int, default=5)
    args = parser.parse_args(argv)

    for text in (t.strip() for t in args.bundles.split(";") if t.strip()):
        panel(text, args.a_max, args.b_min, args.b_max)


if __name__ == "__main__":
    main()
