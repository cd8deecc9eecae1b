"""Writers for the hypergeometric system: JSON and computer-algebra scripts.

All writers are deterministic functions of the system, so repeated exports
are byte-identical.  The JSON form round-trips through
:func:`parse_toric_system`; the Macaulay2 and Singular forms are executable
scripts that declare the Weyl algebra, the Euler operators and the toric
binomials.
"""

from __future__ import annotations

import json
from typing import Sequence

from .errors import InputError, UnsupportedFormat
from .intlinalg import GaussRat, format_rational
from .toric import Binomial, EulerOperator, ToricSystem

FORMATS = ("json", "macaulay2", "singular")


def export(system: ToricSystem, format: str) -> str:
    if format == "json":
        return _export_json(system)
    if format == "macaulay2":
        return _export_macaulay2(system)
    if format == "singular":
        return _export_singular(system)
    raise UnsupportedFormat(f"unknown export format {format!r} (use one of {FORMATS})")


def _export_json(system: ToricSystem) -> str:
    return json.dumps(system.to_json(), indent=2, sort_keys=True) + "\n"


def parse_toric_system(text: str) -> ToricSystem:
    """Inverse of the JSON export."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid system JSON: {exc}") from exc
    try:
        euler = tuple(
            EulerOperator(
                int(e["index"]),
                tuple(int(c) for c in e["coefficients"]),
                GaussRat.parse(e["shift"]),
            )
            for e in payload["euler"]
        )
        binomials = tuple(
            Binomial(tuple(b["plus"]), tuple(b["minus"]))
            for b in payload["binomials"]
        )
        return ToricSystem(euler, binomials, bool(payload["saturated"]), int(payload["nvars"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed system JSON: {exc}") from exc


def _system_is_real(system: ToricSystem) -> bool:
    return all(e.shift.is_real for e in system.euler)


def _monomial_text(exponents: Sequence[int], name) -> str:
    factors = []
    for j, e in enumerate(exponents, start=1):
        if e == 0:
            continue
        factors.append(name(j) if e == 1 else f"{name(j)}^{e}")
    return "*".join(factors) if factors else "1"


def _binomial_text(b: Binomial, name) -> str:
    return f"{_monomial_text(b.plus, name)}-{_monomial_text(b.minus, name)}"


def _shift_text(shift: GaussRat, imaginary_unit: str) -> str:
    # Renders "+ shift" with an explicit sign, parenthesizing fractions.
    if shift.is_real:
        if shift.re == 0:
            return ""
        sign = "-" if shift.re < 0 else "+"
        return f"{sign}{format_rational(abs(shift.re))}"
    re_text = format_rational(shift.re)
    im_text = format_rational(shift.im)
    return f"+({re_text}+({im_text})*{imaginary_unit})"


def _euler_text(op: EulerOperator, x, dx, imaginary_unit: str) -> str:
    terms = []
    for j, c in enumerate(op.coefficients, start=1):
        if c == 0:
            continue
        factor = f"{x(j)}*{dx(j)}"
        if c == 1:
            text = factor
        elif c == -1:
            text = f"-{factor}"
        else:
            text = f"{c}*{factor}"
        if terms and not text.startswith("-"):
            terms.append(f"+{text}")
        else:
            terms.append(text)
    body = "".join(terms) if terms else "0"
    return body + _shift_text(op.shift, imaginary_unit)


def _export_macaulay2(system: ToricSystem) -> str:
    n = system.nvars
    x = lambda j: f"x_{j}"
    dx = lambda j: f"dx_{j}"
    lines = [
        "-- GKZ hypergeometric system: Euler operators and toric binomials",
        'needsPackage "Dmodules";',
    ]
    unit = "ii"
    if _system_is_real(system):
        lines.append(f"W = makeWeylAlgebra(QQ[x_1..x_{n}]);")
    else:
        lines.append("K = toField(QQ[ii]/(ii^2+1));")
        lines.append(f"W = makeWeylAlgebra(K[x_1..x_{n}]);")
    names = []
    for op in system.euler:
        name = f"E_{op.index}"
        lines.append(f"{name} = {_euler_text(op, x, dx, unit)};")
        names.append(name)
    for k, b in enumerate(system.binomials, start=1):
        name = f"T_{k}"
        lines.append(f"{name} = {_binomial_text(b, dx)};")
        names.append(name)
    lines.append(f"H = ideal({','.join(names)});")
    lines.append("H")
    return "\n".join(lines) + "\n"


def _export_singular(system: ToricSystem) -> str:
    n = system.nvars
    x = lambda j: f"x({j})"
    dx = lambda j: f"d({j})"
    lines = [
        "// GKZ hypergeometric system: Euler operators and toric binomials",
        'LIB "nctools.lib";',
    ]
    unit = "i"
    if _system_is_real(system):
        lines.append(f"ring R = 0,(x(1..{n}),d(1..{n})),dp;")
    else:
        lines.append(f"ring R = (0,i),(x(1..{n}),d(1..{n})),dp;")
        lines.append("minpoly = i^2+1;")
    lines.append("def W = Weyl();")
    lines.append("setring W;")
    members = [_euler_text(op, x, dx, unit) for op in system.euler]
    members += [_binomial_text(b, dx) for b in system.binomials]
    lines.append(f"ideal H = {','.join(members)};")
    lines.append("H;")
    return "\n".join(lines) + "\n"
