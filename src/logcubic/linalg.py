"""Exact dense linear algebra over the rationals, plus determinants of
matrices whose entries are polynomial forms.

Rank, determinant and kernel share one fraction-free (Bareiss)
elimination on an integer copy of the matrix, each row scaled by the least
common multiple of its denominators in integer arithmetic (numerator times
multiplier // denominator, no Fraction products).  Bareiss keeps
intermediate entries as minors of that copy and avoids rational blow-up.
A row whose entry in the pivot column is zero is left out of that step and
carries the pivot it was last brought to in ``scaled_by``, so the work
follows the nonzeros of the matrix while the echelon form stays Bareiss's.
Kernel vectors are back-substituted from its integer echelon rows, so
Fractions appear only in the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import MatrixShapeError, ResultantInputError
from .forms import Monomial, Scalar, TernaryForm, constant_form, zero_form


class ExactMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        rows = len(entries)
        if rows == 0:
            raise MatrixShapeError("matrix needs at least one row")
        cols = len(entries[0])
        if cols == 0 or any(len(row) != cols for row in entries):
            raise MatrixShapeError("rows must be nonempty and equal length")
        # Tuples here and in the other hot constructors are built from lists.
        # tuple(<generator>) resizes its result, so the result skips
        # CPython's per-size tuple free list when it is made but joins that
        # list when it is freed, and the lists fill up to their cap.
        frozen = tuple([tuple([Fraction(x) for x in row]) for row in entries])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    # -- integer rescaling -------------------------------------------------

    def _integer_rows(self) -> tuple[list[list[int]], int]:
        """Scale each row by the lcm of its denominators, in integer
        arithmetic; return the int rows and the product of the multipliers
        (so det(self) = det(int rows) / product)."""
        scaled: list[list[int]] = []
        scaling = 1
        for row in self.entries:
            mult = lcm(*[x.denominator for x in row])
            scaling *= mult
            scaled.append([x.numerator * (mult // x.denominator) for x in row])
        return scaled, scaling

    # -- elimination (fraction-free) ----------------------------------------

    def _bareiss(self) -> tuple[list[list[int]], list[int], int, int]:
        """Fraction-free elimination on the integer-rescaled matrix.

        Returns (echelon, pivot_cols, sign, row_scaling): the integer row
        echelon form, whose row i leads in column pivot_cols[i] and whose
        last pivot is the determinant of the rank-sized pivot minor up to
        sign; the sign of the row permutation; and the factor relating the
        integer copy's determinant to the original's.

        Rows are scaled lazily.  Invariant: each row r not yet a pivot row
        is its Bareiss row times scaled_by[r] / prev, where prev is the last
        pivot and scaled_by[r] the pivot of the last step that updated row
        r.  A step leaves out the rows with a zero in its column; it updates
        the others to (pivot * x - factor * y) // scaled_by[r], which is
        exact because the quotient is the Bareiss entry, and brings its
        pivot row to scale first.  So the echelon form is Bareiss's.
        """
        m, scaling = self._integer_rows()
        rows, cols = self.rows, self.cols
        sign = 1
        prev = 1
        scaled_by = [1] * rows
        pivot_cols: list[int] = []
        for col in range(cols):
            rank = len(pivot_cols)
            pivot_row = next(
                (r for r in range(rank, rows) if m[r][col] != 0), None
            )
            if pivot_row is None:
                continue
            if pivot_row != rank:
                m[rank], m[pivot_row] = m[pivot_row], m[rank]
                scaled_by[rank], scaled_by[pivot_row] = scaled_by[pivot_row], scaled_by[rank]
                sign = -sign
            top = m[rank]
            if scaled_by[rank] != prev:
                lag = scaled_by[rank]
                top = m[rank] = [x * prev // lag for x in top]
            pivot = top[col]
            for r in range(rank + 1, rows):
                row = m[r]
                factor = row[col]
                if factor == 0:
                    continue
                lag = scaled_by[r]
                for c in range(col + 1, cols):
                    row[c] = (pivot * row[c] - factor * top[c]) // lag
                row[col] = 0
                scaled_by[r] = pivot
            prev = pivot
            pivot_cols.append(col)
            if len(pivot_cols) == rows:
                break
        return m, pivot_cols, sign, scaling

    def rank(self) -> int:
        return len(self._bareiss()[1])

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise MatrixShapeError(
                f"determinant needs a square matrix, got {self.rows}x{self.cols}"
            )
        echelon, pivot_cols, sign, scaling = self._bareiss()
        if len(pivot_cols) < self.rows:
            return Fraction(0)
        return Fraction(sign * echelon[-1][-1], scaling)

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right kernel: all v with M*v = 0, exactly.

        Deterministic: one vector per free column, that variable set to 1 and
        the other free variables to 0, with the pivot variables
        back-substituted through the integer echelon rows.
        """
        echelon, pivot_cols, _, _ = self._bareiss()
        cols = self.cols
        basis = []
        for free in (c for c in range(cols) if c not in pivot_cols):
            v = [Fraction(0)] * cols
            v[free] = Fraction(1)
            for row, pc in reversed(list(enumerate(pivot_cols))):
                tail = sum(echelon[row][c] * v[c] for c in range(pc + 1, cols) if v[c])
                v[pc] = Fraction(-tail, echelon[row][pc])
            basis.append(tuple(v))
        return basis


# -- determinants of form-valued matrices -------------------------------------


def det_form_matrix(rows: Sequence[Sequence[TernaryForm]]) -> TernaryForm:
    """Exact determinant of a square matrix of forms.

    Expands column by column with memoization on the set of unused rows
    (2^n subproblems), which is comfortably fast for the sizes that occur
    here: 3x3 Hessians and Sylvester matrices of up to 8x8.  A zero result
    is returned at declared degree 0.
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise MatrixShapeError("form matrix must be square and nonempty")
    space = rows[0][0].space
    result = _det_minor(rows, 0, frozenset(range(n)), {}, space)
    return result if result is not None else zero_form(0, space)


def _det_minor(
    rows: Sequence[Sequence[TernaryForm]],
    col: int,
    available: frozenset[int],
    memo: dict[frozenset[int], TernaryForm | None],
    space: str,
) -> TernaryForm | None:
    """Determinant of the submatrix on columns col.. and rows available,
    or None when identically zero.  A module-level function rather than a
    closure, so that no call leaves a reference cycle for the collector."""
    if col == len(rows):
        return constant_form(1, space)
    if available in memo:
        return memo[available]
    total: TernaryForm | None = None
    for position, row_idx in enumerate(sorted(available)):
        entry = rows[row_idx][col]
        if entry.is_zero():
            continue
        sub = _det_minor(rows, col + 1, available - {row_idx}, memo, space)
        if sub is None:
            continue
        term = entry * sub
        if position % 2 == 1:
            term = -term
        total = term if total is None else total + term
        if total is not None and total.is_zero():
            total = None
    memo[available] = total
    return total


def sylvester_resultant(p: TernaryForm, q: TernaryForm, var: int) -> TernaryForm:
    """Resultant of two forms with respect to one variable.

    Both forms are treated as univariate polynomials in the designated
    variable whose formal degree is the form's total degree (leading
    coefficients may be zero), with coefficients that are forms in the
    remaining variables.  The result is the determinant of the
    (deg p + deg q)-sized Sylvester matrix.

    With this homogeneous convention the determinant vanishes identically
    exactly when the two polynomials share a nonconstant common factor in
    the designated variable, or both formal leading coefficients vanish
    (a shared "root at infinity").  Either way a nonzero result certifies
    that no common zero with the remaining variables not all zero exists,
    which is the direction the smoothness test relies on.
    """
    if var not in (0, 1, 2):
        raise MatrixShapeError(f"variable index must be 0..2, got {var}")
    if p.is_zero() and q.is_zero():
        raise ResultantInputError("resultant of two zero forms is undefined")
    if p.space != q.space:
        raise ResultantInputError("resultant arguments must share a space")
    space = p.space

    def coeffs_desc(f: TernaryForm) -> list[TernaryForm]:
        """Coefficient forms of f in the designated variable, from the
        formal leading coefficient down to the constant term."""
        buckets: list[dict[Monomial, Fraction]] = [
            {} for _ in range(f.degree + 1)
        ]
        for mono, coeff in f.terms.items():
            e = mono[var]
            residual = list(mono)
            residual[var] = 0
            buckets[e][tuple(residual)] = coeff
        return [
            TernaryForm(f.degree - e, buckets[e], space)
            for e in range(f.degree, -1, -1)
        ]

    m, n = p.degree, q.degree
    size = m + n
    if size == 0:
        return constant_form(1, space)
    pc, qc = coeffs_desc(p), coeffs_desc(q)
    matrix: list[list[TernaryForm]] = []
    for shift in range(n):
        row = [zero_form(0, space)] * shift + pc
        row += [zero_form(0, space)] * (size - len(row))
        matrix.append(row)
    for shift in range(m):
        row = [zero_form(0, space)] * shift + qc
        row += [zero_form(0, space)] * (size - len(row))
        matrix.append(row)
    return det_form_matrix(matrix)
