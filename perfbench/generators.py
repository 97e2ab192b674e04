"""Seeded input generators, one per workload.

Every generator takes the seed and returns an endless iterator of plain
data items (dicts of exponent triples to Fractions, rationals, argv lists),
so the program under test receives only generated inputs.  Nothing here
imports logcubic: the cubics are built and moved by this file's own
polynomial arithmetic.  Mixtures are stratified: each block of items holds
a fixed count of every kind in a seeded order, so a run's mix does not
drift with the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd

from oracles import (
    cayleyan_pencil,
    is_smooth_reference,
    monomials,
    normal_pencil,
    poly_mul,
    substitute,
)

CUBIC = monomials(3)

# Known-singular base cubics: a nodal cubic, a cuspidal cubic, and a triple
# of lines (a triangle), before a random unimodular change of coordinates.
NODAL = {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1), (2, 0, 1): Fraction(-1)}
CUSPIDAL = {(0, 2, 1): Fraction(1), (3, 0, 0): Fraction(-1)}
SINGULAR_KINDS = ("nodal", "cuspidal", "line-triple")

# Refusal points of the Hesse pencil and the error category each must raise.
PENCIL_REFUSALS = ((Fraction(0), "cayleyan-singular"),
                   (Fraction(-2), "cayleyan-singular"),
                   (Fraction(1), "singular-curve"))

CLI_KINDS = (
    "analyze-form",
    "analyze-hesse",
    "cayleyan",
    "jacobi",
    "reconstruct-hesse",
    "reconstruct-files",
    "sweep",
    "involution",
    "verify-identities",
)

# One cycle of cli-oneshot: every kind once and `involution`, the slowest
# call, twice.  A 15 s run then holds about 15 involution calls, so the
# tail (the 11th slowest call) falls among them and not on the edge
# between them and the next-slowest kind, as it did with about 10.
CLI_CYCLE = CLI_KINDS + ("involution",)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


def dense_integer_cubic(rng: random.Random) -> dict:
    """All ten coefficients nonzero integers in [-9, 9]."""
    return {m: Fraction(_nonzero(rng, -9, 9)) for m in CUBIC}


def small_rational_cubic(rng: random.Random) -> dict:
    """All ten coefficients p/q with p in [-9, 9] nonzero and q in [1, 9]."""
    return {m: Fraction(_nonzero(rng, -9, 9), rng.randint(1, 9)) for m in CUBIC}


def unimodular(rng: random.Random) -> list[list[int]]:
    """Integer 3x3 matrix of determinant +-1 and entries in [-9, 9], from
    random row shears, a row permutation and sign flips."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(8):
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-2, -1, 1, 2))
        row = [m[i][c] + k * m[j][c] for c in range(3)]
        if max(abs(x) for x in row) <= 9:
            m[i] = row
    rng.shuffle(m)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in m]


def _line_triple(rng: random.Random) -> dict:
    """Product of three distinct integer lines in general position."""
    while True:
        lines = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        a, b, c = lines
        det = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        if det:
            break
    product = {(0, 0, 0): Fraction(1)}
    for line in lines:
        linear = {(1, 0, 0): Fraction(line[0]), (0, 1, 0): Fraction(line[1]),
                  (0, 0, 1): Fraction(line[2])}
        product = poly_mul(product, linear)
    return product


def singular_cubic(rng: random.Random, kind: str) -> dict:
    base = {"nodal": NODAL, "cuspidal": CUSPIDAL}.get(kind) or _line_triple(rng)
    moved = substitute(base, unimodular(rng))
    scale = _nonzero(rng, -5, 5)
    return {m: c * scale for m, c in moved.items()}


def dense_analyze(seed: int):
    """Blocks of 8: four dense integer cubics, three small-rational cubics and
    one known-singular cubic (nodal, cuspidal, line-triple in turn), 12.5%
    singular, in a seeded order within the block."""
    rng = _rng("dense-analyze", seed)
    for block in count():
        kinds = ["integer"] * 4 + ["rational"] * 3 + [SINGULAR_KINDS[block % 3]]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "integer":
                terms = dense_integer_cubic(rng)
            elif kind == "rational":
                terms = small_rational_cubic(rng)
            else:
                terms = singular_cubic(rng, kind)
            yield {"kind": kind, "terms": terms,
                   "alpha": tuple(_nonzero(rng, -9, 9) for _ in range(3))}


def one_digit_t(rng: random.Random) -> Fraction:
    """t = +-p/q in lowest terms with p, q in 1..9, avoiding the refusal
    points t = 1 and t = -2."""
    while True:
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        t = Fraction(rng.choice((-1, 1)) * p, q)
        if gcd(p, q) == 1 and p != q and t != -2:
            return t


def signature(n: int) -> tuple:
    """Prime signature: (exponent of 2, odd prime exponents, descending)."""
    twos = (n & -n).bit_length() - 1
    n >>= twos
    exponents = []
    d = 3
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            exponents.append(e)
        d += 2
    if n > 1:
        exponents.append(1)
    return twos, tuple(sorted(exponents, reverse=True))


@lru_cache(maxsize=None)
def by_signature(digits: int) -> dict:
    groups: dict = {}
    for n in range(1 if digits == 1 else 10 ** (digits - 1), 10**digits):
        groups.setdefault(signature(n), []).append(n)
    return groups


# The rational-root search behind reconstruct tries every quotient of a
# divisor of 2pq^2 by a divisor of pq^2, so its work is set by the divisor
# counts of the heights, not by their size alone.  Uniformly drawn heights
# make that count heavy-tailed: a rare divisor-rich pair costs seconds, and
# how many a run meets swings its figures from seed to seed.  So each digit
# class is visited at three fixed prime signatures, so the number of divisor
# pairs is fixed per slot: plain (72 pairs), mid (about 500) and rich (2000
# to 4500).  The seed picks the primes.  The rich level is kept where one
# op takes tens of milliseconds, so that a run holds many such ops.
# Signatures are (exponent of 2, odd exponents) for p, then for q.
PENCIL_SLOTS = {
    (1, 1): (((0, (1,)), (0, (1,))), ((0, (2,)), (3, ())), ((0, (2,)), (3, ()))),
    (1, 2): (((0, (1,)), (0, (1,))), ((0, ()), (3, (1,))), ((0, (1,)), (4, (1,)))),
    (1, 3): (((0, (1,)), (0, (1,))), ((2, ()), (0, (1, 1))), ((0, ()), (3, (1, 1)))),
    (2, 1): (((0, (1,)), (0, (1,))), ((0, (1, 1)), (2, ())), ((4, (1,)), (0, (2,)))),
    (2, 2): (((0, (1,)), (0, (1,))), ((2, (2,)), (0, (1,))), ((6, ()), (0, (1, 1)))),
    (2, 3): (((0, (1,)), (0, (1,))), ((2, (2,)), (0, (1,))), ((6, ()), (0, (1, 1)))),
    (3, 1): (((0, (1,)), (0, (1,))), ((0, (1, 1)), (2, ())), ((0, (3, 1)), (3, ()))),
    (3, 2): (((0, (1,)), (0, (1,))), ((0, (1,)), (1, (1,))), ((0, (1,)), (4, (1,)))),
    (3, 3): (((0, (1,)), (0, (1,))), ((0, (1,)), (1, (1,))), ((0, (2, 1)), (1, (1,)))),
}
LEVELS = ("plain", "mid", "rich")


# Within a slot the cost still grows with the size of the heights: the
# divisor search runs trial division up to about sqrt(p q^2).  Each height is
# therefore drawn from STRATA equal runs of its sorted values in turn, q's
# run changing every visit and p's every STRATA visits, so that a run holds
# each size range of the costliest slot about equally often and the tail,
# which falls among that slot's ops, does not swing with the draw.
STRATA = 4


def _stratum(values: list, index: int) -> list:
    """The index-th of STRATA equal runs of the sorted values, never empty."""
    lo = index * len(values) // STRATA
    return values[lo:max((index + 1) * len(values) // STRATA, lo + 1)]


def _slot_t(rng: random.Random, digits: tuple, slot: tuple, visit: int) -> Fraction:
    """t = +-p/q with p, q coprime, of the slot's digit counts and prime
    signatures, drawn uniformly within the visit's size strata."""
    q = rng.choice(_stratum(by_signature(digits[1])[slot[1]], visit % STRATA))
    ps = [p for p in by_signature(digits[0])[slot[0]] if gcd(p, q) == 1 and p != q]
    p = rng.choice(_stratum(ps, visit // STRATA % STRATA))
    return Fraction(rng.choice((-1, 1)) * p, q)


# One cycle of pencil-roundtrip: every slot once and the costliest,
# p3q3-rich, twice.  The tail (the 11th slowest op) falls among that slot's
# ops; with two per cycle a 15 s run holds about 40 of them, not 20, so the
# tail no longer reads the median of a small sample of a wide spread.
PENCIL_CYCLE = tuple((digits, level) for digits in PENCIL_SLOTS for level in range(3)) + (
    ((3, 3), 2),)


def pencil_roundtrip(seed: int):
    """Cycles of the 28 slots of PENCIL_CYCLE, one Hesse parameter t = p/q
    each, in a seeded order, with heights from the size strata of the slot's
    visit; after every third cycle one refusal point (t = 0, -2, 1 in turn),
    about 1.2% of items."""
    rng = _rng("pencil-roundtrip", seed)
    slots = list(PENCIL_CYCLE)
    visits = dict.fromkeys(slots, 0)
    for cycle in count():
        rng.shuffle(slots)
        for digits, level in slots:
            t = _slot_t(rng, digits, PENCIL_SLOTS[digits][level], visits[digits, level])
            visits[digits, level] += 1
            yield {"kind": f"p{digits[0]}q{digits[1]}-{LEVELS[level]}", "t": t, "refusal": None}
        if cycle % 3 == 2:
            t, category = PENCIL_REFUSALS[(cycle // 3) % 3]
            yield {"kind": "refusal", "t": t, "refusal": category}


def small_t(rng: random.Random) -> Fraction:
    """Small-height smooth pencil parameter with a smooth Hessian: numerator
    in [-12, 12], denominator in [1, 8], avoiding t = 0, t^3 = 1, t^3 = -8."""
    while True:
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        if t != 0 and t**3 not in (1, -8):
            return t


def smooth_dense_cubic(rng: random.Random) -> dict:
    while True:
        terms = dense_integer_cubic(rng)
        if is_smooth_reference(terms):
            return terms


def involution_sampling(seed: int):
    """Blocks of three curves in a seeded order: one small-height pencil
    member and two dense integer cubics that the reference test certifies
    smooth; each item carries its own sampling seed.  Pencil members cost
    about two thirds of a dense cubic, and with one in three the median op
    falls inside the dense cubics' cost, not between the two kinds."""
    rng = _rng("involution-sampling", seed)
    while True:
        block = [("pencil", small_t(rng)), ("dense", smooth_dense_cubic(rng)),
                 ("dense", smooth_dense_cubic(rng))]
        rng.shuffle(block)
        for kind, curve in block:
            yield {"kind": kind, "curve": curve, "seed": rng.randrange(2**31)}


def form_text(terms: dict) -> str:
    """Polynomial text in z0, z1, z2 that the CLI parser reads."""
    pieces = []
    for mono in CUBIC:
        c = terms.get(mono, 0)
        if c == 0:
            continue
        factors = [f"z{i}^{e}" if e > 1 else f"z{i}" for i, e in enumerate(mono) if e]
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {abs(c)}*{'*'.join(factors)}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def pencil_files(t: Fraction) -> tuple[dict, dict]:
    """JSON records of the two invariants of the pencil member at t, from
    the closed forms: a Cayleyan form record and a hyperplane normal."""
    cayleyan = cayleyan_pencil(t)
    record = {"space": "dual", "degree": 3,
              "coeffs": [str(cayleyan.get(m, Fraction(0))) for m in CUBIC]}
    return record, {"normal": [str(x) for x in normal_pencil(t)]}


def cli_oneshot(seed: int):
    """Cycles of the ten CLI calls in CLI_CYCLE, in a seeded order per
    cycle.  Forms are dense integer cubics; Hesse parameters have small
    heights; reconstruct uses one-digit p and q; sweep lists 50 values."""
    rng = _rng("cli-oneshot", seed)
    for index in count():
        order = list(CLI_CYCLE)
        rng.shuffle(order)
        for kind in order:
            item = {"kind": kind, "index": index}
            if kind in ("analyze-form", "cayleyan", "jacobi"):
                item["terms"] = dense_integer_cubic(rng)
                item["alpha"] = tuple(_nonzero(rng, -9, 9) for _ in range(3))
            elif kind in ("analyze-hesse", "involution"):
                item["t"] = small_t(rng)
                item["seed"] = rng.randrange(1000)
            elif kind in ("reconstruct-hesse", "reconstruct-files"):
                item["t"] = one_digit_t(rng)
            elif kind == "sweep":
                item["t_values"] = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                                    for _ in range(50)]
            yield item


# The untimed warm-up op runs on a fixed, cheap item, so that set-up time
# does not depend on which item a seed puts first.
WARMUP = {
    "dense-analyze": {"kind": "integer", "terms": dense_integer_cubic(random.Random(0)),
                      "alpha": (1, 2, 3)},
    "pencil-roundtrip": {"kind": "warmup", "t": Fraction(2, 3), "refusal": None},
    "involution-sampling": {"kind": "pencil", "curve": Fraction(2), "seed": 0},
    "cli-oneshot": {"kind": "verify-identities", "index": -1},
}

GENERATORS = {
    "dense-analyze": dense_analyze,
    "pencil-roundtrip": pencil_roundtrip,
    "involution-sampling": involution_sampling,
    "cli-oneshot": cli_oneshot,
}
