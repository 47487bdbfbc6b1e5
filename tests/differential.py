"""Differential harness: every verdict of one fixed sweep, one line a cell.

    python tests/differential.py                  # the sweep, 313,992 cells
    python tests/differential.py --trails         # the trails, 15,125 cells
    python tests/differential.py --against DIR    # and the same on DIR's source

The sweep is 2,492 bundles: `small_bundles(4, 2)` and `small_bundles(3, 3)`,
every sum of 5, 6 or 7 lines of degree -2..2, 2-4 such lines plus a rank-2
atom of degree -3..3, 1-3 such lines plus a rank-3 atom of degree -4..4, a
rank-2 plus a rank-3 atom (-3..3 x -4..4), a rank-4 atom plus a line
(-4..4 x -3..3), and single atoms of rank 4-8 and degree -10..10; each at
a 0..6 and b -9..8.  A cell's line holds the very-ample status, strength,
binding rule, window text and unknown reason, then the ample, globally
generated and normally generated verdicts, or the DomainError they raise
at a = 0.  With --trails a line is instead every verdict's `to_json_dict`,
its firings included, over `small_bundles(4, 2)` x a 0..4 x b -5..5.

The harness prints the sha256 of its lines and exits 1 when it is not the
pinned one.  With --against DIR it also runs this same file on DIR's `src`
in a subprocess, prints every line that differs there (- DIR, + this
tree), and exits 1 when any does: a change meant to keep every verdict
shows 0 such lines, and one meant to change some lists each changed cell.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# sha256 of the lines of each mode, one "\n" after each line
SWEEP_SHA256 = "62737884bb3df67b1f2015c3666206ece936a48bd0c8441007596ed814949a71"
TRAILS_SHA256 = "841e71b4ed8cbbfb28479dc824ae61e8db44ce5b757b8da47fe27c2fc34d6df0"

BUNDLES = {"sweep": 2_492, "trails": 275}
CELLS = {"sweep": 313_992, "trails": 15_125}


def _sweep(Bundle, small_bundles):
    def lines(n):
        return itertools.combinations_with_replacement(range(-2, 3), n)

    def sums(degrees, *rest):
        return Bundle([(1, d) for d in degrees] + list(rest))

    shapes = set(small_bundles(4, 2)) | set(small_bundles(3, 3))
    shapes |= {sums(ds) for n in (5, 6, 7) for ds in lines(n)}
    shapes |= {sums(ds, (2, g)) for n in (2, 3, 4) for ds in lines(n) for g in range(-3, 4)}
    shapes |= {sums(ds, (3, g)) for n in (1, 2, 3) for ds in lines(n) for g in range(-4, 5)}
    shapes |= {Bundle([(2, g), (3, h)]) for g in range(-3, 4) for h in range(-4, 5)}
    shapes |= {Bundle([(4, g), (1, h)]) for g in range(-4, 5) for h in range(-3, 4)}
    shapes |= {Bundle([(r, d)]) for r in range(4, 9) for d in range(-10, 11)}
    return sorted(shapes, key=lambda E: (E.rank, E.atoms))


def _lines(mode: str):
    """The lines of one mode, as this interpreter's veryample gives them."""
    import veryample as va
    from conftest import small_bundles

    if mode == "trails":
        bundles, a_range, b_range = small_bundles(4, 2), range(0, 5), range(-5, 6)
    else:
        bundles, a_range, b_range = _sweep(va.Bundle, small_bundles), range(0, 7), range(-9, 9)
    if len(bundles) != BUNDLES[mode]:
        sys.exit(f"the {mode} has {len(bundles)} bundles, not {BUNDLES[mode]}")

    def summary(v) -> str:
        window = v.unknown_window.render() if v.unknown_window else "-"
        strength = v.strength.value if v.strength else "-"
        return f"{v.status} {strength} {v.binding_rule or '-'} {window} {v.unknown_reason or '-'}"

    def either(classify, E, D, show):
        try:
            return show(classify(E, D))
        except va.DomainError as exc:
            return f"DomainError: {exc}"

    def trail(v) -> str:
        return json.dumps(v.to_json_dict(), sort_keys=True)

    show = trail if mode == "trails" else summary
    for E in bundles:
        for a in a_range:
            for b in b_range:
                D = va.Divisor(a, b)
                parts = [str(E), str(a), str(b), show(va.classify_very_ample(E, D))]
                if mode == "sweep":
                    parts.append(f"ample={va.classify_ample(E, D)}")
                parts.append(either(va.classify_globally_generated, E, D, show))
                parts.append(either(va.classify_normally_generated, E, D, show))
                yield "|".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trails", action="store_true",
                        help="hash the full trails of the smaller sweep")
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="a second checkout to compare line by line")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="the source tree to import veryample from")
    parser.add_argument("--lines", action="store_true",
                        help="write the lines themselves, not their digest")
    args = parser.parse_args(argv)
    mode = "trails" if args.trails else "sweep"
    sys.path.insert(0, str(args.src.resolve()))

    if args.lines:
        for line in _lines(mode):
            sys.stdout.write(line + "\n")
        return 0

    theirs = iter(())
    if args.against is not None:
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--lines",
             "--src", str(args.against / "src"), *(["--trails"] if args.trails else [])],
            stdout=subprocess.PIPE, text=True,
        )
        theirs = (line.rstrip("\n") for line in child.stdout)
    digest = hashlib.sha256()
    cells = differing = 0
    for ours, other in itertools.zip_longest(_lines(mode), theirs):
        if ours is not None:
            digest.update(f"{ours}\n".encode())
            cells += 1
        if args.against is not None and ours != other:
            differing += 1
            print(f"- {other}\n+ {ours}")
    failed = cells != CELLS[mode]
    if failed:
        print(f"the {mode} has {cells} cells, not {CELLS[mode]}")
    if args.against is not None:
        failed |= child.wait() != 0
        print(f"{differing} of {cells} lines differ from {args.against}")
    pinned = TRAILS_SHA256 if args.trails else SWEEP_SHA256
    print(f"{mode}: {cells} cells, sha256 {digest.hexdigest()} "
          f"({'pinned' if digest.hexdigest() == pinned else 'NOT the pinned ' + pinned})")
    return int(failed or differing > 0 or digest.hexdigest() != pinned)


if __name__ == "__main__":
    raise SystemExit(main())
