"""Output oracles that do not use the code under test.

They rest on closed forms of the Hesse pencil, on sympy determinants and
expansions, and on this file's own small exact arithmetic.  Each check_*
function takes a generated item and the output the benchmark recorded for
it, and returns None when the output is right or a one-line reason when it
is not.  Monomials are read in the graded-lex order with z0 > z1 > z2 that
the library documents for its coefficient vectors.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

KOSZUL_D0 = (0, 3, 9, 17, 27)  # d0_graded_dim(f, k), k = 0..4, smooth f


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple:
    return tuple((a, b, degree - a - b)
                 for a in range(degree, -1, -1) for b in range(degree - a, -1, -1))


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def substitute(f: dict, matrix) -> dict:
    """f(z) with z_i replaced by sum_j matrix[i][j] z_j."""
    images = [{(1, 0, 0): Fraction(row[0]), (0, 1, 0): Fraction(row[1]),
               (0, 0, 1): Fraction(row[2])} for row in matrix]
    out: dict = {}
    for mono, coeff in f.items():
        term = {(0, 0, 0): Fraction(coeff)}
        for image, e in zip(images, mono):
            for _ in range(e):
                term = poly_mul(term, image)
        for m, c in term.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def derivative(f: dict, i: int) -> dict:
    out = {}
    for mono, coeff in f.items():
        if mono[i]:
            lowered = list(mono)
            lowered[i] -= 1
            out[tuple(lowered)] = coeff * mono[i]
    return out


def exact_rank(rows: list) -> int:
    """Rank of a rational matrix by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                factor = m[r][col] / m[rank][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def is_smooth_reference(f: dict) -> bool:
    """A plane cubic is smooth exactly when its partials span all quartics
    after multiplication by the quadrics: the Jacobian ring of a regular
    sequence of three conics vanishes in degree 4, while at a singular point
    every element of the ideal vanishes.  So: rank 15 of the 15 x 18 matrix
    of the products z_a z_b d_i f."""
    columns = []
    for i in range(3):
        partial = derivative(f, i)
        for mono in monomials(2):
            product = poly_mul({mono: Fraction(1)}, partial)
            columns.append([product.get(m, 0) for m in monomials(4)])
    return exact_rank(columns) == 15


def cayleyan_pencil(t: Fraction) -> dict:
    """t*(a0^3 + a1^3 + a2^3) - (t^3 + 2)*a0*a1*a2, up to a nonzero factor."""
    out = {m: t for m in ((3, 0, 0), (0, 3, 0), (0, 0, 3))}
    out[(1, 1, 1)] = -(t**3 + 2)
    return {m: c for m, c in out.items() if c}


def normal_pencil(t: Fraction) -> tuple:
    """Canonical Jacobi normal (t,0,0,0,1,0,t,0,0,t) of the member at t."""
    return tuple(Fraction(1) if m == (1, 1, 1) else (t if 3 in m else Fraction(0))
                 for m in monomials(3))


def projectively_equal(u, v) -> bool:
    """Nonzero vectors that are rational multiples of each other."""
    u, v = [Fraction(x) for x in u], [Fraction(x) for x in v]
    pivot = next((i for i, x in enumerate(u) if x), None)
    if pivot is None or not v[pivot]:
        return False
    return all(x * v[pivot] == y * u[pivot] for x, y in zip(u, v))


def vector(terms: dict, degree: int) -> list:
    return [terms.get(m, Fraction(0)) for m in monomials(degree)]


def _sympy():
    import sympy

    return sympy


def _sympy_poly(f: dict):
    """f as a sympy polynomial over QQ in z0, z1, z2, and the variables."""
    sp = _sympy()
    z = sp.symbols("z0:3")
    terms = {m: sp.Rational(c.numerator, c.denominator) for m, c in f.items()}
    return sp.Poly.from_dict(terms, *z, domain="QQ"), z


def _coefficients(poly, degree: int) -> list:
    terms = poly.as_dict()
    return [Fraction(int(terms[m].p), int(terms[m].q)) if m in terms else Fraction(0)
            for m in monomials(degree)]


def jumping_determinant(f: dict, alpha) -> Fraction:
    """sympy determinant of the 6x6 jumping matrix at the line alpha:
    columns z0*alpha, z1*alpha, z2*alpha, d0 f, d1 f, d2 f as quadric
    coefficient vectors."""
    sp = _sympy()
    poly, z = _sympy_poly(f)
    line = sp.Poly(sum(int(a) * zi for a, zi in zip(alpha, z)), *z, domain="QQ")
    columns = [line * sp.Poly(zi, *z, domain="QQ") for zi in z]
    columns += [poly.diff(zi) for zi in z]
    matrix = sp.Matrix([[col.as_dict().get(m, 0) for col in columns] for m in monomials(2)])
    det = matrix.det(method="bareiss")
    return Fraction(int(sp.numer(det)), int(sp.denom(det)))


def jacobi_products(f: dict) -> list:
    """Coefficient vectors of the nine cubics z_i * d_j f, expanded by sympy."""
    sp = _sympy()
    poly, z = _sympy_poly(f)
    partials = [poly.diff(zj) for zj in z]
    return [_coefficients(sp.Poly(zi, *z, domain="QQ") * partial, 3)
            for zi in z for partial in partials]


def evaluate(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for (e0, e1, e2), c in terms.items():
        total += c * Fraction(point[0]) ** e0 * Fraction(point[1]) ** e1 * Fraction(point[2]) ** e2
    return total


def check_cayleyan(f: dict, cayleyan: list, alpha) -> str | None:
    """The library's dual cubic at alpha equals the jumping determinant."""
    value = evaluate(dict(zip(monomials(3), cayleyan)), alpha)
    expected = jumping_determinant(f, alpha)
    if value != expected:
        return f"cayleyan({alpha}) = {value}, jumping determinant = {expected}"
    return None


def check_jacobi(f: dict, normal: list) -> str | None:
    """A nonzero normal that pairs to zero with every z_i * d_j f."""
    if not any(normal):
        return "jacobi normal is zero"
    for product in jacobi_products(f):
        if sum(n * c for n, c in zip(normal, product)):
            return "jacobi normal does not annihilate z_i * d_j f"
    return None


# -- per-workload checks -------------------------------------------------------


def check_dense(item: dict, out) -> str | None:
    """out = (status, stable, cayleyan coefficients or None, normal or None,
    d0 dims or None)."""
    if out[0] == "exception":
        return f"unexpected exception {out[1]}"
    status, stable, cayleyan, normal, dims = out
    f = item["terms"]
    if item["kind"] in ("nodal", "cuspidal", "line-triple"):
        return f"known-singular {item['kind']} cubic got 'smooth'" if status == "smooth" else None
    if (status == "smooth") != is_smooth_reference(f):
        return f"smoothness verdict {status!r} disagrees with the rank-15 criterion"
    if status != "smooth":
        return None
    if not stable:
        return "smooth cubic reported unstable"
    if tuple(dims) != KOSZUL_D0:
        return f"d0 dims {dims} != Koszul count {KOSZUL_D0}"
    return check_cayleyan(f, cayleyan, item["alpha"]) or check_jacobi(f, normal)


def check_pencil(item: dict, out) -> str | None:
    """out = ("error", category) or ("ok", cayleyan, normal, t)."""
    t = item["t"]
    if item["refusal"]:
        if out != ("error", item["refusal"]):
            return f"t = {t} should raise {item['refusal']}, got {out[:2]}"
        return None
    if out[0] != "ok":
        return f"t = {t}: {out[0]} {out[1]}"
    _, cayleyan, normal, recovered = out
    if not projectively_equal(vector(cayleyan_pencil(t), 3), cayleyan):
        return f"t = {t}: cayleyan is not the pencil closed form"
    if tuple(normal) != normal_pencil(t):
        return f"t = {t}: normal {normal} is not (t,0,0,0,1,0,t,0,0,t)"
    if recovered != t:
        return f"t = {t}: reconstruct returned {recovered}"
    return None


def check_involution(item: dict, out) -> str | None:
    """out = ("ok", passed, samples, max_err, min_fix) or an error tuple."""
    if out[0] != "ok":
        return f"{out[0]} {out[1]}"
    if not out[1]:
        return f"involution check did not pass: {out[2:]}"
    return None


def identity_coefficients() -> list:
    """(t^3 + 2)^3 - (3t)^3 in ascending powers of t."""
    cube = [Fraction(1)]
    for _ in range(3):
        cube = [sum(cube[k - j] * c for j, c in enumerate((2, 0, 0, 1)) if 0 <= k - j < len(cube))
                for k in range(len(cube) + 3)]
    cube[3] -= 27
    return cube


def j_pencil(t: Fraction) -> Fraction:
    return t**3 * (t**3 + 8) ** 3 / (64 * (t**3 - 1) ** 3)


def s_pencil(t: Fraction) -> Fraction:
    return (t**3 + 2) / (3 * t)


def _strs(values) -> list:
    return [str(Fraction(v)) for v in values]


def check_cli(item: dict, out, library) -> str | None:
    """out = (exit code, stdout bytes).  library(item) gives the in-process
    result: library values, and the bytes logcubic.cli.main prints for the
    same argv, which the stdout must equal byte for byte.  The values must
    also match the closed forms and the independent checks above."""
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    expected = library(item)
    if stdout != expected["stdout"]:
        return "stdout differs from the in-process logcubic.cli.main bytes"
    report = json.loads(stdout)
    if report.get("status") != "ok":
        return f"status {report.get('status')}"
    o = report["outputs"]
    kind = item["kind"]
    if kind == "analyze-form":
        f = item["terms"]
        if o["smoothness"]["status"] != expected["status"] or o["stable"] != expected["stable"]:
            return "analyze verdicts differ from the library"
        if expected["status"] == "smooth":
            if o["cayleyan"]["coeffs"] != expected["cayleyan"] or o["jacobi_normal"] != expected["normal"]:
                return "analyze invariants differ from the library"
            cay = [Fraction(c) for c in o["cayleyan"]["coeffs"]]
            return check_cayleyan(f, cay, item["alpha"]) or check_jacobi(
                f, [Fraction(c) for c in o["jacobi_normal"]])
        return None
    if kind == "analyze-hesse":
        t = item["t"]
        if o["smoothness"]["status"] != "smooth" or o["hesse_t"] != str(t):
            return "pencil member not reported smooth"
        if o["j_invariant"] != str(j_pencil(t)) or o["cayleyan_s"] != str(s_pencil(t)):
            return "j or s differs from the closed form"
        if not projectively_equal(vector(cayleyan_pencil(t), 3), o["cayleyan"]["coeffs"]):
            return "cayleyan differs from the closed form"
        if o["jacobi_normal"] != _strs(normal_pencil(t)):
            return "normal differs from the closed form"
        return None
    if kind == "cayleyan":
        if o["cayleyan"]["coeffs"] != expected["cayleyan"]:
            return "cayleyan differs from the library"
        return check_cayleyan(item["terms"], [Fraction(c) for c in o["cayleyan"]["coeffs"]],
                              item["alpha"])
    if kind == "jacobi":
        if o["normal"] != expected["normal"]:
            return "normal differs from the library"
        return check_jacobi(item["terms"], [Fraction(c) for c in o["normal"]])
    if kind in ("reconstruct-hesse", "reconstruct-files"):
        t = item["t"]
        if o["reconstructed_t"] != str(t) or o["cayleyan_s"] != str(s_pencil(t)):
            return f"reconstructed {o['reconstructed_t']} for t = {t}"
        if o["candidates"]["exact_roots"] != expected["roots"]:
            return "candidate roots differ from the library"
        if kind == "reconstruct-hesse" and o.get("round_trip_ok") is not True:
            return "round_trip_ok is not true"
        return None
    if kind == "sweep":
        for row, t in zip(o["rows"], item["t_values"]):
            smooth = t**3 != 1
            want = {
                "t": str(t),
                "smooth": smooth,
                "j": str(j_pencil(t)) if smooth else None,
                "s": str(s_pencil(t)) if smooth and t != 0 else None,
                "cayleyan_smooth": (s_pencil(t) ** 3 != 1 if t != 0 else False) if smooth else None,
                "stable": True if smooth else None,
            }
            if any(row[k] != v for k, v in want.items()):
                return f"sweep row for t = {t} differs from the closed forms"
        return None if len(o["rows"]) == len(item["t_values"]) else "sweep row count"
    if kind == "involution":
        if o["pass"] is not True:
            return "involution did not pass"
        got = (o["samples"], o["max_err"], o["min_fix_dist"])
        if got != expected["involution"]:
            return "involution report differs from the library"
        return None
    if kind == "verify-identities":
        if o["identity"] != "(t^3+2)^3 - (3t)^3 == (t^3-1)^2*(t^3+8)" or o["holds"] is not True \
                or o["coefficients"] != _strs(identity_coefficients()):
            return "identity coefficients differ from the expansion"
        return None
    return f"unknown kind {kind}"
