"""Time the smoothness test against the height of the input.

For each coefficient kind and bit size b, draws three dense cubics from
seed 1 and times one ``is_smooth_cubic`` call on each, printing a markdown
table of milliseconds per call and the verdicts.

Kinds:
  integer           ten random b-bit integer coefficients;
  p/q               ten random p/q with b-bit p and q;
  singular integer  integer coefficients, but none on z2^3, z0*z2^2 and
                    z1*z2^2, so the cubic is singular at [0:0:1];
  singular p/q      the same with p/q coefficients.

Random dense cubics are smooth, so the first two kinds time the modular
certificate; the singular kinds time the exact elimination it falls back
to.  Run from the repository root:

    python tools/height_table.py                  # up to 1024 bits
    python tools/height_table.py --max-bits 4096  # singular p/q: seconds per call
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logcubic.cubics import is_smooth_cubic  # noqa: E402
from logcubic.forms import TernaryForm, monomial_basis  # noqa: E402

SEED = 1
CUBICS_PER_ROW = 3
BITS = (16, 64, 256, 1024, 4096)
KINDS = ("integer", "p/q", "singular integer", "singular p/q")
# The monomials whose absence makes [0:0:1] a singular point.
THROUGH_POINT = {(0, 0, 3), (1, 0, 2), (0, 1, 2)}


def coefficient(rng: random.Random, kind: str, bits: int) -> Fraction:
    numerator = rng.choice((-1, 1)) * rng.getrandbits(bits)
    if kind.endswith("p/q"):
        return Fraction(numerator, rng.getrandbits(bits) | 1)
    return Fraction(numerator)


def cubic(rng: random.Random, kind: str, bits: int) -> TernaryForm:
    terms = {}
    for mono in monomial_basis(3):
        if kind.startswith("singular") and mono in THROUGH_POINT:
            continue
        terms[mono] = coefficient(rng, kind, bits)
    return TernaryForm(3, terms)


def time_call(f: TernaryForm) -> tuple[float, str]:
    start = time.perf_counter()
    verdict = is_smooth_cubic(f)
    return (time.perf_counter() - start) * 1000.0, verdict.status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-bits", type=int, default=1024,
                        help="largest bit size to run (default %(default)s)")
    args = parser.parse_args(argv)

    print(f"seed {SEED}, {CUBICS_PER_ROW} cubics per row, one call each")
    print("| coefficients | bits | ms per call | verdicts |")
    print("|---|---|---|---|")
    for kind in KINDS:
        for bits in BITS:
            if bits > args.max_bits:
                continue
            # One stream per row, so a row does not depend on which rows ran.
            rng = random.Random(f"{SEED}:{kind}:{bits}")
            results = [time_call(cubic(rng, kind, bits)) for _ in range(CUBICS_PER_ROW)]
            times = ", ".join(f"{ms:.1f}" for ms, _ in results)
            verdicts = ", ".join(sorted({status for _, status in results}))
            print(f"| {kind} | {bits} | {times} | {verdicts} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
