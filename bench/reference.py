"""The reference program the benchmark times in every pass beside the jobs.

    python bench/child.py --job reference ref OUT

It imports nothing from padicwave, so no change to the package moves its
time.  Its work is of the kinds a padicwave job does, on a fixed input:
interpreter start-up, exact Fraction products summed into a dictionary,
and a CSV file written.  A shared host slows it as it slows the jobs, so
the timed metrics are reported as multiples of its fastest run.
"""

from __future__ import annotations

import csv
import itertools
import random
from fractions import Fraction
from pathlib import Path

SIDE = 110  # SIDE**2 products


def rows() -> list[list[str]]:
    rng = random.Random(1)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(SIDE)]
    sums: dict[int, Fraction] = {}
    for i, (a, b) in enumerate(itertools.product(values, repeat=2)):
        key = i * 7919 % 211
        sums[key] = sums.get(key, Fraction(0)) + a * b
    return [
        [str(k), repr(float(v)), str(v.numerator), str(v.denominator)]
        for k, v in sorted(sums.items())
    ]


def write(out: str) -> int:
    with open(out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows())
    return 0


def gate(path: Path) -> "str | None":
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
    except OSError as exc:
        return f"cannot read {path.name}: {exc}"
    return None if got == rows() else f"{path.name} differs from the reference rows"
