"""Sparse homogeneous polynomials in three variables over exact rationals.

A form is a map from exponent triples to nonzero ``Fraction`` coefficients,
together with a declared total degree and a variable-space tag: ``primal``
forms live in z0, z1, z2 and ``dual`` forms in a0, a1, a2.  The zero form is
the empty map at any declared degree.

All arithmetic is exact.  The monomial order is frozen to graded
lexicographic with z0 > z1 > z2 (a0 > a1 > a2 on the dual side); every
coefficient vector in the library reads its entries in this order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Mapping, Sequence, Union

from .errors import (
    DegreeMismatchError,
    InhomogeneousError,
    ParseError,
    SpaceMismatchError,
)

Monomial = tuple[int, int, int]
Scalar = Union[int, Fraction]

PRIMAL = "primal"
DUAL = "dual"

_VARS = {PRIMAL: ("z0", "z1", "z2"), DUAL: ("a0", "a1", "a2")}

# The one Fraction every zero entry of a coefficient read refers to, so a
# vector of mostly zero entries holds no zero objects of its own.
ZERO = Fraction(0)


@lru_cache(maxsize=None)
def monomial_basis(degree: int) -> tuple[Monomial, ...]:
    """All exponent triples of the given total degree, in graded-lex order.

    Graded lex with z0 > z1 > z2 sorts exponent triples descending, so the
    degree-2 basis reads z0^2, z0*z1, z0*z2, z1^2, z1*z2, z2^2 and the
    degree-3 basis has length 10 with z0*z1*z2 at index 4.
    """
    if degree < 0:
        raise DegreeMismatchError(f"degree must be >= 0, got {degree}")
    monos = [
        (e0, e1, degree - e0 - e1)
        for e0 in range(degree, -1, -1)
        for e1 in range(degree - e0, -1, -1)
    ]
    return tuple(monos)


# -- dict kernels ----------------------------------------------------------
# Sparse polynomials as plain {exponents: Fraction} maps without zero
# entries.  The TernaryForm operators and the parser share these kernels.

_RawPoly = dict[Monomial, Fraction]


def _raw_add(a: _RawPoly, b: _RawPoly) -> _RawPoly:
    out = dict(a)
    for mono, coeff in b.items():
        c = out[mono] + coeff if mono in out else coeff
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)
    return out


def _raw_mul(a: _RawPoly, b: _RawPoly) -> _RawPoly:
    out: _RawPoly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            c = out[mono] + c1 * c2 if mono in out else c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


def _raw_scale(a: _RawPoly, c: Fraction) -> _RawPoly:
    if c == 0:
        return {}
    return {m: c * v for m, v in a.items()}


def _raw_pow(a: _RawPoly, n: int) -> _RawPoly:
    """a^n by repeated squaring, so the number of products grows with the
    bit length of n rather than its value."""
    out: _RawPoly = {(0, 0, 0): Fraction(1)}
    while n:
        if n & 1:
            out = _raw_mul(out, a)
        n >>= 1
        if n:
            a = _raw_mul(a, a)
    return out


class TernaryForm:
    """Homogeneous polynomial in three variables with Fraction coefficients.

    Instances are immutable by convention: no method mutates ``terms``, and
    sharing across threads is safe.  Construction normalizes coefficients to
    ``Fraction``, drops zeros, and rejects terms whose total degree differs
    from ``degree``.
    """

    __slots__ = ("degree", "space", "terms")

    def __init__(
        self,
        degree: int,
        terms: Mapping[Monomial, Scalar] | None = None,
        space: str = PRIMAL,
    ):
        if degree < 0:
            raise DegreeMismatchError(f"degree must be >= 0, got {degree}")
        if space not in (PRIMAL, DUAL):
            raise SpaceMismatchError(f"unknown variable space {space!r}")
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if len(mono) != 3 or any(e < 0 for e in mono):
                raise DegreeMismatchError(f"bad exponent triple {mono!r}")
            if sum(mono) != degree:
                raise InhomogeneousError(
                    f"term {mono} has degree {sum(mono)}, form declares {degree}"
                )
            clean[tuple(mono)] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TernaryForm is immutable")

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), ZERO)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        # Zero forms of different declared degrees compare equal; nonzero
        # forms carry their degree in the exponents.
        if not isinstance(other, TernaryForm):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    # -- arithmetic ------------------------------------------------------

    def _check_space(self, other: "TernaryForm") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(
                f"cannot combine {self.space} and {other.space} forms"
            )

    def __add__(self, other: "TernaryForm") -> "TernaryForm":
        if not isinstance(other, TernaryForm):
            return NotImplemented
        self._check_space(other)
        # A zero summand takes the other's degree.
        if self and other and self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        degree = self.degree if self else other.degree
        return TernaryForm(degree, _raw_add(self.terms, other.terms), self.space)

    def __sub__(self, other: "TernaryForm") -> "TernaryForm":
        if not isinstance(other, TernaryForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TernaryForm":
        return self.scale(-1)

    def __mul__(self, other: Union["TernaryForm", Scalar]) -> "TernaryForm":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TernaryForm):
            return NotImplemented
        self._check_space(other)
        return TernaryForm(
            self.degree + other.degree, _raw_mul(self.terms, other.terms), self.space
        )

    def __rmul__(self, other: Scalar) -> "TernaryForm":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "TernaryForm":
        return TernaryForm(self.degree, _raw_scale(self.terms, Fraction(c)), self.space)

    def __pow__(self, n: int) -> "TernaryForm":
        if not isinstance(n, int) or n < 0:
            raise DegreeMismatchError("exponent must be a non-negative integer")
        return TernaryForm(self.degree * n, _raw_pow(self.terms, n), self.space)

    # -- serialization ---------------------------------------------------

    def __str__(self) -> str:
        """Canonical text: terms in graded-lex order, coefficients as p/q."""
        if self.is_zero():
            return "0"
        names = _VARS[self.space]
        pieces: list[str] = []
        for mono in sorted(self.terms, reverse=True):  # graded-lex order
            coeff = self.terms[mono]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, mono)
                if e > 0
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"TernaryForm({self.degree}, {self.space}: {self})"


# -- constructors ----------------------------------------------------------


def zero_form(degree: int = 0, space: str = PRIMAL) -> TernaryForm:
    return TernaryForm(degree, {}, space)


def constant_form(value: Scalar, space: str = PRIMAL) -> TernaryForm:
    return TernaryForm(0, {(0, 0, 0): Fraction(value)}, space)


def variable(i: int, space: str = PRIMAL) -> TernaryForm:
    if i not in (0, 1, 2):
        raise DegreeMismatchError(f"variable index must be 0..2, got {i}")
    mono = tuple([1 if j == i else 0 for j in range(3)])
    return TernaryForm(1, {mono: Fraction(1)}, space)


def monomial_form(mono: Monomial, coeff: Scalar = 1, space: str = PRIMAL) -> TernaryForm:
    return TernaryForm(sum(mono), {tuple(mono): Fraction(coeff)}, space)


def linear_form(coords: Sequence[Scalar], space: str = PRIMAL) -> TernaryForm:
    """c0*z0 + c1*z1 + c2*z2 from a coordinate triple."""
    c0, c1, c2 = coords
    return TernaryForm(
        1,
        {(1, 0, 0): Fraction(c0), (0, 1, 0): Fraction(c1), (0, 0, 1): Fraction(c2)},
        space,
    )


# -- calculus and linearization ---------------------------------------------


def partial_derivative(f: TernaryForm, i: int) -> TernaryForm:
    """Exact partial derivative with respect to variable i (0..2)."""
    if i not in (0, 1, 2):
        raise DegreeMismatchError(f"variable index must be 0..2, got {i}")
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in f.terms.items():
        e = mono[i]
        if e == 0:
            continue
        lowered = list(mono)
        lowered[i] = e - 1
        out[tuple(lowered)] = coeff * e
    return TernaryForm(max(f.degree - 1, 0), out, f.space)


def coefficient_vector(f: TernaryForm) -> tuple[Fraction, ...]:
    """Coefficients of f read along the graded-lex basis of its degree; every
    zero entry is the shared Fraction :data:`ZERO`.

    Round-trips with :func:`form_from_coefficients`.
    """
    return tuple([f.terms.get(mono, ZERO) for mono in monomial_basis(f.degree)])


def form_from_coefficients(
    coeffs: Sequence[Scalar], degree: int, space: str = PRIMAL
) -> TernaryForm:
    """Inverse of :func:`coefficient_vector`.  The count of coefficients is
    checked before the basis of the degree is built and cached."""
    if degree >= 0 and len(coeffs) != comb(degree + 2, 2):
        raise DegreeMismatchError(
            f"expected {comb(degree + 2, 2)} coefficients for degree {degree}, got {len(coeffs)}"
        )
    basis = monomial_basis(degree)
    return TernaryForm(degree, dict(zip(basis, map(Fraction, coeffs))), space)


def substitute_linear(f: TernaryForm, matrix: Sequence[Sequence[Scalar]]) -> TernaryForm:
    """Substitute z_i -> sum_j matrix[i][j] * z_j and expand exactly."""
    images = [
        linear_form([matrix[i][0], matrix[i][1], matrix[i][2]], f.space)
        for i in range(3)
    ]
    result = zero_form(f.degree, f.space)
    for (e0, e1, e2), coeff in f.terms.items():
        term = constant_form(coeff, f.space)
        for img, e in zip(images, (e0, e1, e2)):
            for _ in range(e):
                term = term * img
        result = result + term
    return result


def projectively_equal(f: TernaryForm, g: TernaryForm) -> bool:
    """Exact projective equality: one form is a nonzero rational multiple of
    the other.  Decided by cross-multiplying coefficient vectors with
    :func:`vectors_projectively_equal`; no tolerance is involved.
    """
    if f.space != g.space:
        raise SpaceMismatchError("cannot compare forms in different spaces")
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if f.degree != g.degree:
        return False
    return vectors_projectively_equal(coefficient_vector(f), coefficient_vector(g))


def vectors_projectively_equal(
    u: Sequence[Fraction], v: Sequence[Fraction]
) -> bool:
    """Projective equality of coefficient vectors by cross-multiplication."""
    if len(u) != len(v):
        return False
    pivot = next((i for i, x in enumerate(u) if x != 0), None)
    if pivot is None:
        return all(x == 0 for x in v)
    if v[pivot] == 0:
        return False
    a, b = v[pivot], u[pivot]
    return all(a * x == b * y for x, y in zip(u, v))


# -- parsing ---------------------------------------------------------------

# Grammar (whitespace insensitive):
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ['^' INT]
#   atom   := NUM | VAR | '(' expr ')'
# NUM is INT or INT '/' INT, one token; only an INT can be an exponent.
# VAR is z0|z1|z2 in the primal space, a0|a1|a2 in the dual space.

# The parser refuses a product or power before forming it when its result
# could hold more terms or larger coefficients than these, so that parsing
# work stays tied to the length of the text.
MAX_PARSED_TERMS = 500
MAX_PARSED_BITS = 4096
# The parser recurses once per level of parentheses, so the tokenizer
# refuses deeper nesting, well before Python's recursion limit.
MAX_PARSED_DEPTH = 100


def _size_bits(a: _RawPoly) -> int:
    """log2(q) + log2(sum |q*c|), each rounded up, for q the lcm of a's
    denominators.  It bounds log2 of every numerator and denominator in a,
    and the value for a product is at most the sum of its factors' values."""
    q = 1
    for c in a.values():
        q = q * c.denominator // gcd(q, c.denominator)
    norm = sum(abs(c.numerator) * (q // c.denominator) for c in a.values())
    return max(norm - 1, 0).bit_length() + (q - 1).bit_length()


def _check_parsed_size(terms: int, bits: int) -> None:
    if terms > MAX_PARSED_TERMS or bits > MAX_PARSED_BITS:
        raise ParseError(
            f"expansion too large: up to {terms} terms of {bits} bits, "
            f"the limits are {MAX_PARSED_TERMS} terms and {MAX_PARSED_BITS} bits"
        )


# A token is a number p or p/q in ASCII digits (q is empty when no digit
# follows the slash), a word, an operator, or any character but whitespace,
# which finditer skips.  str.isdigit() would also accept '²', which int() refuses.
_NUMBER = r"([0-9]+)(?:\s*/\s*([0-9]*))?"
_TOKEN = re.compile(rf"{_NUMBER}|([^\W\d_]\w*)|([-+*^()/])|(\S)")
_RATIONAL = re.compile(rf"\s*([-+]?)\s*{_NUMBER}\s*")


def _number(p: str, q: str | None) -> int | Fraction:
    """A number token's value: an int for p, the only exponent, or a Fraction for p/q."""
    try:
        return int(p) if q is None else Fraction(int(p), int(q or 0))
    except ValueError:  # more digits than int() converts
        raise ParseError(f"numeral of {max(len(p), len(q or ''))} digits is too long") from None
    except ZeroDivisionError:
        raise ParseError("denominator must be a nonzero integer") from None


def parse_rational(text: str) -> Fraction:
    """The one reader of exact numbers from text: a number token p or p/q of
    the polynomial grammar after an optional sign, whitespace free around each."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(f"not a rational number: {text!r}")
    value = Fraction(_number(match[2], match[3]))
    return -value if match[1] == "-" else value


class _Tokenizer:
    def __init__(self, text: str, space: str):
        self.tokens: list[tuple[str, object]] = []
        names, depth = _VARS[space], 0
        for match in _TOKEN.finditer(text):
            p, q, word, op, other = match.groups()
            if other is not None:
                raise ParseError(f"unexpected character {other!r} at position {match.start()}")
            if word is not None and word not in names:
                raise ParseError(f"unknown variable {word!r}; expected one of {names}")
            depth += (op == "(") - (op == ")")
            if depth > MAX_PARSED_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PARSED_DEPTH} levels")
            self.tokens.append(("num", _number(p, q)) if p is not None else
                               ("var", names.index(word)) if word is not None else (op, op))
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, object]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok


def _parse_expr(tk: _Tokenizer) -> _RawPoly:
    total: _RawPoly = {}
    while True:
        sign = Fraction(1)
        while tk.peek() in ("+", "-"):
            if tk.next()[0] == "-":
                sign = -sign
        total = _raw_add(total, _raw_scale(_parse_term(tk), sign))
        if tk.peek() not in ("+", "-"):
            return total


def _parse_term(tk: _Tokenizer) -> _RawPoly:
    result = _parse_factor(tk)
    while tk.peek() == "*":
        tk.next()
        factor = _parse_factor(tk)
        _check_parsed_size(
            len(result) * len(factor), _size_bits(result) + _size_bits(factor)
        )
        result = _raw_mul(result, factor)
    return result


def _parse_factor(tk: _Tokenizer) -> _RawPoly:
    base = _parse_atom(tk)
    if tk.peek() == "^":
        tk.next()
        kind, value = tk.next()
        if kind != "num" or not isinstance(value, int):
            raise ParseError("exponent must be a non-negative integer")
        # a^n has at most as many terms as there are multisets of n of a's
        # terms.
        terms = comb(len(base) + value - 1, value) if base else 1
        _check_parsed_size(terms, value * _size_bits(base))
        return _raw_pow(base, value)
    return base


def _parse_atom(tk: _Tokenizer) -> _RawPoly:
    kind, value = tk.next()
    if kind == "num":
        return {(0, 0, 0): Fraction(value)} if value else {}
    if kind == "var":
        mono = tuple([1 if j == value else 0 for j in range(3)])
        return {mono: Fraction(1)}
    if kind == "(":
        inner = _parse_expr(tk)
        if tk.peek() != ")":
            raise ParseError("missing closing parenthesis")
        tk.next()
        return inner
    raise ParseError(f"unexpected token {kind!r}")


def parse_form(text: str, space: str = PRIMAL) -> TernaryForm:
    """Parse polynomial text into an expanded homogeneous form.

    Accepts integer and p/q rational coefficients, the operators + - * ^,
    and parentheses.  Raises :class:`ParseError` on malformed syntax and
    :class:`InhomogeneousError` when the expanded polynomial mixes total
    degrees (so "(z0+1)*(z0-1)" is rejected, "(z0+z1)^2" is fine).
    """
    if space not in (PRIMAL, DUAL):
        raise SpaceMismatchError(f"unknown variable space {space!r}")
    tk = _Tokenizer(text, space)
    if tk.peek() is None:
        raise ParseError("empty input")
    poly = _parse_expr(tk)
    if tk.peek() is not None:
        raise ParseError(f"trailing input at token {tk.pos}")
    if not poly:
        return zero_form(0, space)
    degrees = {sum(m) for m in poly}
    if len(degrees) > 1:
        raise InhomogeneousError(
            f"mixed total degrees {sorted(degrees)} in {text!r}"
        )
    return TernaryForm(degrees.pop(), poly, space)
