"""The three workloads as seeded operation streams.

Every stream is built from --seed alone and repeats a fixed cycle of
operation kinds, so the mix of cheap and expensive operations is the same
for every seed; the seed picks bundles, cells and the order inside a cycle.

oneshot  one `classify` or `invariants` CLI process per operation, text and
         json, bundles from the acceptance domain (rank 2-6, |deg| <= 8,
         a 0..6, b -8..8); one call in twenty has bad grammar or rank 1.
table    one `table` CLI process per operation: 8 consecutive a values in
         1..40 times b -40..40 (648 cells, so the process pool is used),
         csv / text / json, mostly indecomposable bundles plus 1:2,2:3.
wide     one in-process classify_very_ample call per operation, over
         decomposable bundles with 4-7 distinct atoms, mostly line bundles,
         each swept over a = 1..12.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from math import floor
from typing import Iterator

from checks import atoms_of, mu_minus

WORKLOADS = ("oneshot", "table", "wide")


@dataclass(frozen=True)
class Op:
    workload: str
    command: str  # classify | invariants | table | library
    fmt: str
    bundle: str
    cells: tuple[tuple[int, int], ...]
    argv: tuple[str, ...] = ()
    expect_exit: int = 0


def _cli_op(workload: str, command: str, fmt: str, bundle: str, a: str, b: str,
            cells: tuple, expect_exit: int = 0) -> Op:
    argv = (command, "--bundle", bundle, "--a", a, "--b", b, "--format", fmt)
    return Op(workload, command, fmt, bundle, cells, argv, expect_exit)


# -- oneshot ---------------------------------------------------------------------

_ONESHOT_KINDS = (
    [("classify", "text")] * 5
    + [("classify", "json")] * 5
    + [("invariants", "text")] * 5
    + [("invariants", "json")] * 4
    + [("bad", "")]
)
_BAD_BUNDLES = ("2:x", "0:3", "1:2;2:3", "2:1,", ":", "3:4,2")


def _domain_bundle(rng: random.Random) -> str:
    remaining = rng.randint(2, 6)
    parts = []
    while remaining:
        part = rng.randint(1, remaining)
        parts.append(part)
        remaining -= part
    atoms = sorted((part, rng.randint(-8, 8)) for part in parts)
    return ",".join(f"{r}:{d}" for r, d in atoms)


def _bad_op(rng: random.Random, cycle: int) -> Op:
    command = rng.choice(("classify", "invariants"))
    a, b = rng.randint(0, 6), rng.randint(-8, 8)
    if cycle % 2:  # rank 1: a domain error
        return _cli_op("oneshot", command, "text", f"1:{rng.randint(-8, 8)}", str(a), str(b), (), 3)
    if cycle % 4 == 2:  # a range where a single integer is required
        return _cli_op("oneshot", command, "text", _domain_bundle(rng), f"{a}..{a + 2}", str(b), (), 2)
    return _cli_op("oneshot", command, "text", rng.choice(_BAD_BUNDLES), str(a), str(b), (), 2)


def oneshot_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(f"oneshot/{seed}")
    for cycle in count():
        kinds = list(_ONESHOT_KINDS)
        rng.shuffle(kinds)
        for command, fmt in kinds:
            if command == "bad":
                yield _bad_op(rng, cycle)
                continue
            bundle = _domain_bundle(rng)
            a, b = rng.randint(0, 6), rng.randint(-8, 8)
            yield _cli_op("oneshot", command, fmt, bundle, str(a), str(b), ((a, b),))


# -- table -------------------------------------------------------------------------

TABLE_BUNDLES = ("3:4", "2:1", "4:1", "5:2", "1:2,2:3", "1:2,2:3")
TABLE_FORMATS = ("csv", "text", "json")
TABLE_A_SPAN = 8
TABLE_B = (-40, 40)


def table_ops(seed: int) -> Iterator[Op]:
    """Cycles of one op per bundle slot; formats rotate from cycle to cycle,
    so every three cycles run each bundle in each format once."""
    rng = random.Random(f"table/{seed}")
    for cycle in count():
        slots = list(enumerate(TABLE_BUNDLES))
        rng.shuffle(slots)
        for slot, bundle in slots:
            fmt = TABLE_FORMATS[(slot + cycle) % len(TABLE_FORMATS)]
            lo = rng.randint(1, 40 - TABLE_A_SPAN + 1)
            a_values = range(lo, lo + TABLE_A_SPAN)
            cells = tuple((a, b) for a in a_values for b in range(TABLE_B[0], TABLE_B[1] + 1))
            yield _cli_op("table", "table", fmt, bundle, f"{lo}..{lo + TABLE_A_SPAN - 1}",
                          f"{TABLE_B[0]}..{TABLE_B[1]}", cells)


# -- wide ----------------------------------------------------------------------------

# atoms per bundle slot: (line bundles, rank-2 atoms); 4-7 distinct atoms
WIDE_SLOTS = ((4, 0), (5, 0), (4, 1), (6, 0), (7, 0))
WIDE_A = range(1, 13)


def _wide_bundle(rng: random.Random, lines: int, rank2: int) -> str:
    atoms = [(1, d) for d in rng.sample(range(-6, 7), lines)]
    atoms += [(2, d) for d in rng.sample(range(-5, 6, 2), rank2)]
    return ",".join(f"{r}:{d}" for r, d in sorted(atoms))


def wide_ops(seed: int) -> Iterator[Op]:
    """Cycles of one bundle per slot, each swept over a = 1..12 with b placed
    so that the slope invariant falls in [-1, 5)."""
    rng = random.Random(f"wide/{seed}")
    while True:
        slots = list(WIDE_SLOTS)
        rng.shuffle(slots)
        for lines, rank2 in slots:
            bundle = _wide_bundle(rng, lines, rank2)
            mm = mu_minus(atoms_of(bundle))
            for a in WIDE_A:
                b = rng.randint(-1, 4) - floor(a * mm)
                yield Op("wide", "library", "", bundle, ((a, b),))


def ops(workload: str, seed: int) -> Iterator[Op]:
    return {"oneshot": oneshot_ops, "table": table_ops, "wide": wide_ops}[workload](seed)


# Operations per cycle, used to size the traced run in whole cycles.
CYCLE_LENGTH = {"oneshot": len(_ONESHOT_KINDS), "table": len(TABLE_BUNDLES),
                "wide": len(WIDE_SLOTS) * len(WIDE_A)}
