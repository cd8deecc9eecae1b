"""Exact integer and rational linear algebra.

Everything is arbitrary precision: matrices hold Python ints, rational
vectors hold ``fractions.Fraction`` (which the stdlib keeps reduced with a
positive denominator).  All functions are pure and deterministic; identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

import operator
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatch, InputError

IntVec = tuple[int, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse a "p" or "p/q" literal.  Floats and exponents are rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not a rational literal (use p or p/q): {reprlib.repr(text)}")
    try:
        num, den = map(int, s.split("/")) if "/" in s else (int(s), 1)
    except ValueError as exc:  # longer than CPython's int/str digit limit (3.10.7 on)
        raise InputError(f"rational literal past the digit limit: {reprlib.repr(text)}") from exc
    if den == 0:
        raise InputError(f"zero denominator in rational literal: {reprlib.repr(text)}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_combination(coefficients: Sequence[int], name: Callable[[int], str], gap="") -> str:
    """c_1*name(1) + c_2*name(2) + ... as text, "0" if all c_j are 0: +-1 prints bare, any
    other c as |c|*; each inner term is signed with gap on both sides, a first only by "-"."""
    text = ""
    for j, c in enumerate(coefficients, start=1):
        if c:
            sign = f"{gap}{'-' if c < 0 else '+'}{gap}" if text else "-" if c < 0 else ""
            text += sign + (name(j) if c in (1, -1) else f"{abs(c)}*{name(j)}")
    return text or "0"


@dataclass(frozen=True)
class GaussRat:
    """A Gaussian rational re + im*i with exact Fraction components.

    The constructor takes int (not bool) or Fraction components and raises
    TypeError on anything else, a float included; parse reads literals.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("re", "im"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                    raise TypeError(f"components must be int or Fraction, not {value!r}")
                object.__setattr__(self, name, Fraction(value))

    @classmethod
    def parse(cls, value) -> "GaussRat":
        """Coerce an int, Fraction, "p/q" string, {"re","im"} dict or GaussRat."""
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return cls(Fraction(value))
        if isinstance(value, str):
            return cls(parse_rational(value))
        if isinstance(value, dict):
            known = set(value) - {"re", "im"}
            if known:
                raise InputError(f"unknown keys in complex literal: {sorted(known)}")
            re_part = value.get("re", 0)
            im_part = value.get("im", 0)
            if isinstance(re_part, dict) or isinstance(im_part, dict):
                raise InputError(f"nested complex literal: {reprlib.repr(value)}")
            return cls(cls.parse(re_part).re, cls.parse(im_part).re)
        raise InputError(f"cannot interpret {reprlib.repr(value)} as a Gaussian rational")

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __add__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return GaussRat(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return GaussRat(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        im = format_rational(abs(self.im)) + "*i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return ("-" if self.im < 0 else "") + im
        return f"{format_rational(self.re)}{sign}{im}"

    def to_json(self):
        if self.im == 0:
            return format_rational(self.re)
        return {"re": format_rational(self.re), "im": format_rational(self.im)}


def integer_entries(values: Iterable[int]) -> IntVec:
    """The values as a tuple of ints: bool is rejected, and nothing is truncated."""
    entries = tuple(values)
    if any(isinstance(x, bool) for x in entries):
        raise TypeError("entries must be integers, not bool")
    return tuple(map(operator.index, entries))


class IntMatrix:
    """Immutable integer matrix stored as row-major tuples."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable[int]], cols: Optional[int] = None):
        data = tuple(map(tuple, rows))
        kinds = set(map(type, chain.from_iterable(data)))
        if bool in kinds:
            raise TypeError("matrix entries must be integers, not bool")
        if kinds - {int}:
            data = tuple(tuple(map(operator.index, row)) for row in data)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatch("ragged rows in matrix")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"expected {cols} columns, got {width}")
            cols = width
        elif cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
            cols=n,
        )

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        return cls(
            tuple(tuple(col[i] for col in columns) for i in range(rows)),
            cols=len(columns),
        )

    def row(self, i: int) -> IntVec:
        return self.data[i]

    def column(self, j: int) -> IntVec:
        return tuple(row[j] for row in self.data)

    def columns(self) -> tuple[IntVec, ...]:
        return tuple(self.column(j) for j in range(self.cols))

    def mat_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.data, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r})"


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = x*a + y*b."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss 1968) elimination: every division is exact."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, prev = 0, 1
    for c in range(ncols):
        for i in range(rank, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[rank], m[i] = m[i], m[rank]
        top = m[rank]
        p = top[c]
        for row in m[rank + 1:]:
            x = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * p - x * top[j]) // prev
        prev = p
        rank += 1
    return rank


def _apply_row_pair(mat: list[list[int]], i: int, k: int, a: int, b: int, c: int, d: int):
    """rows (i, k) <- (a*row_i + b*row_k, c*row_i + d*row_k)."""
    ri, rk = mat[i], mat[k]
    mat[i] = [a * x + b * y for x, y in zip(ri, rk)]
    mat[k] = [c * x + d * y for x, y in zip(ri, rk)]


def _hermite_rows(h: list[list[int]], width: int) -> int:
    """Bring the first width columns of the rows h to row Hermite form in place.

    Returns the rank.  The nonzero rows come first, each pivot positive and
    the entries above it reduced into [0, pivot).  Later columns ride along:
    when they start as the identity they end as the transform U, U*M = H.
    """
    nrows, pivot_row = len(h), 0
    for c in range(width):
        if pivot_row == nrows:
            break
        for i in range(pivot_row + 1, nrows):
            if h[i][c] == 0:
                continue
            a, b = h[pivot_row][c], h[i][c]
            if a != 0 and b % a == 0:
                q = b // a
                h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
                continue
            g, s, t = xgcd(a, b)
            _apply_row_pair(h, pivot_row, i, s, t, -(b // g), a // g)
        piv = h[pivot_row][c]
        if piv != 0:
            if piv < 0:
                piv = -piv
                h[pivot_row] = [-x for x in h[pivot_row]]
            for i in range(pivot_row):
                q = h[i][c] // piv
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
            pivot_row += 1
    return pivot_row


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U*M = H, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    This representative is unique, so H doubles as a canonical form for the
    row lattice of M.
    """
    if M.rows == 0:
        raise DimensionMismatch("hermite_normal_form of an empty matrix")
    rows = [list(row) + [int(i == j) for j in range(M.rows)] for i, row in enumerate(M.data)]
    _hermite_rows(rows, M.cols)
    H, U = zip(*((row[:M.cols], row[M.cols:]) for row in rows))
    return IntMatrix(H, cols=M.cols), IntMatrix(U, cols=M.rows)


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = S with U, V unimodular and S diagonal, d1 | d2 | ..."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> IntVec:
        k = min(self.S.rows, self.S.cols)
        diag = tuple(self.S.data[i][i] for i in range(k))
        return tuple(d for d in diag if d != 0)

    def rank(self) -> int:
        return len(self.invariant_factors())


def smith_normal_form(M: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms, textbook pivoting.

    After each pivot is isolated we force it to divide the remaining
    submatrix (by folding an offending row into the pivot row), which yields
    the divisibility chain directly.
    """
    h = [list(row) for row in M.data]
    u = [list(row) for row in IntMatrix.identity(M.rows).data]
    v = [list(row) for row in IntMatrix.identity(M.cols).data]
    nrows, ncols = M.rows, M.cols

    def col_op(j: int, k: int, a: int, b: int, c: int, d: int):
        # cols (j, k) <- (a*col_j + b*col_k, c*col_j + d*col_k)
        for row in h:
            x, y = row[j], row[k]
            row[j], row[k] = a * x + b * y, c * x + d * y
        for row in v:
            x, y = row[j], row[k]
            row[j], row[k] = a * x + b * y, c * x + d * y

    t = 0
    while t < min(nrows, ncols):
        candidates = [
            (abs(h[i][j]), i, j)
            for i in range(t, nrows)
            for j in range(t, ncols)
            if h[i][j] != 0
        ]
        if not candidates:
            break
        _, pi, pj = min(candidates)
        if pi != t:
            h[t], h[pi] = h[pi], h[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            col_op(t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, nrows):
                if h[i][t] == 0:
                    continue
                a, b = h[t][t], h[i][t]
                if b % a == 0:
                    q = b // a
                    h[i] = [x - q * y for x, y in zip(h[i], h[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    continue
                g, s, tt = xgcd(a, b)
                _apply_row_pair(h, t, i, s, tt, -(b // g), a // g)
                _apply_row_pair(u, t, i, s, tt, -(b // g), a // g)
            for j in range(t + 1, ncols):
                if h[t][j] == 0:
                    continue
                a, b = h[t][t], h[t][j]
                if b % a == 0:
                    col_op(t, j, 1, 0, -(b // a), 1)
                    continue
                g, s, tt = xgcd(a, b)
                col_op(t, j, s, tt, -(b // g), a // g)
            if any(h[i][t] != 0 for i in range(t + 1, nrows)):
                continue
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols)
                    if h[i][j] % h[t][t] != 0
                ),
                None,
            )
            if offender is None:
                break
            i, _ = offender
            h[t] = [x + y for x, y in zip(h[t], h[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
        if h[t][t] < 0:
            h[t] = [-x for x in h[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SmithDecomposition(
        IntMatrix(u, cols=nrows), IntMatrix(h, cols=ncols), IntMatrix(v, cols=ncols)
    )


def _kernel_rows(vectors: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """A Z-basis of the saturated lattice {x : sum_i x_i vectors[i] = 0}, [] when trivial.

    One Hermite pass on the plain rows [v_i | e_i] brings the width columns
    of the vectors to row Hermite form with the transform U riding along;
    the rows of U whose H row is zero span the lattice (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).
    """
    n = len(vectors)
    rows = [[*v, *[0] * i, 1, *[0] * (n - 1 - i)] for i, v in enumerate(vectors)]
    return [row[width:] for row in rows[_hermite_rows(rows, width):]]


def kernel_lattice_basis(A: IntMatrix) -> tuple[IntVec, ...]:
    """Canonical Z-basis of the saturated integer kernel lattice {u : A*u = 0}, () when trivial.

    _kernel_rows on the columns of A, then a transform-free pass puts the
    rows in canonical order (as cones._perp_lattice_basis does): a
    deterministic function of A.
    """
    basis = _kernel_rows(A.columns(), A.rows)
    _hermite_rows(basis, A.cols)
    return tuple(map(tuple, basis))


def _hermite_solutions(rows: Sequence[Sequence[int]], vectors: Iterable[Sequence]):
    """For each vector v, the unique x over Q with v = sum x_i rows[i], or None if there is none.

    rows are the nonzero rows of a row Hermite form, whose pivots are read
    once.  Forward substitution clears one entry of the residue per row, as
    later rows vanish there; an exact quotient stays an int, so v lies in
    the lattice of the rows exactly when every coordinate is integral.
    """
    pivots = [next(k for k, x in enumerate(row) if x) for row in rows]
    for v in vectors:
        residue, coords = list(v), []
        for row, pivot in zip(rows, pivots):
            r, p = residue[pivot], row[pivot]
            q = r // p if r % p == 0 else Fraction(r, p)
            coords.append(q)
            if q:
                residue = [x - q * y for x, y in zip(residue, row)]
        yield None if any(residue) else tuple(coords)


def primitive_vector(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)

