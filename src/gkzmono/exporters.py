"""Writers for the hypergeometric system: JSON and computer-algebra scripts.

All writers are deterministic functions of the system, so repeated exports
are byte-identical.  The JSON form round-trips through
:func:`parse_toric_system`; the Macaulay2 and Singular forms are executable
scripts that declare the Weyl algebra, the Euler operators and the toric
binomials.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .errors import InputError, UnsupportedFormat
from .intlinalg import GaussRat, format_combination, format_rational
from .toric import Binomial, EulerOperator, ToricSystem


def export(system: ToricSystem, format: str) -> str:
    if format not in FORMATS:
        raise UnsupportedFormat(f"unknown export format {format!r} (use one of {FORMATS})")
    return _WRITERS[format](system)


class _Fragment(str):
    """Text json_text rendered already, at the depth where it is placed."""


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, _Fragment: str}  # the rest via json.dumps


def json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for str keys, without its Python encoder."""
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {json_text(value[k], inner)}"
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):  # scalar items inline: most are exponents
        items = [_SCALARS[type(x)](x) if type(x) in _SCALARS else json_text(x, inner)
                 for x in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return _SCALARS.get(type(value), json.dumps)(value)


def _generator_text(b: Binomial, format: str, render) -> str:
    """b's text in one format, rendered once per instance (the toric memo shares them)."""
    if (text := b.rendered.get(format)) is None:
        text = b.rendered[format] = render(b)
    return text


def _export_json(system: ToricSystem) -> str:
    # A generator's fragment sits at the depth of an item of the "binomials" list.
    fragment = lambda b: _Fragment(json_text(b.to_json(), "\n    "))
    return json_text(system.to_json(lambda b: _generator_text(b, "json", fragment))) + "\n"


def _integer(value, what: str) -> int:
    """A JSON integer as is; floats and booleans are refused, never rounded."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _integers(values, what: str, length: int) -> tuple[int, ...]:
    if not isinstance(values, list) or len(values) != length:
        raise InputError(f"{what} must be a list of {length} integers, got {values!r}")
    return tuple(_integer(x, what) for x in values)


def parse_toric_system(text: str) -> ToricSystem:
    """Inverse of the JSON export.

    Counts, indices, coefficients and exponents must be JSON integers, the
    Euler indices run 1, 2, ... (the scripts name each operator by its
    index), and every coefficient and exponent list has nvars entries.  The
    system must be marked saturated: the scripts declare its binomials as
    the toric ideal.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid system JSON: {exc}") from exc
    try:
        if payload["saturated"] is not True:
            raise InputError(f"\"saturated\" must be true, got {payload['saturated']!r}")
        nvars = _integer(payload["nvars"], "nvars")
        if nvars < 1:
            raise InputError(f"nvars must be at least 1, got {nvars}")
        euler = tuple(
            EulerOperator(
                _integer(e["index"], "index"),
                _integers(e["coefficients"], "coefficients", nvars),
                GaussRat.parse(e["shift"]),
            )
            for e in payload["euler"]
        )
        if [e.index for e in euler] != list(range(1, len(euler) + 1)):
            raise InputError("Euler operator indices must run 1, 2, ... in order")
        binomials = tuple(
            Binomial(*(_integers(b[side], "exponents", nvars) for side in ("plus", "minus")))
            for b in payload["binomials"]
        )
        return ToricSystem(euler, binomials, nvars)
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
    """sum_j a_ij*x_j*dx_j - beta_i as text, signs unspaced: "x_1*dx_1-2*x_2*dx_2+1/2"."""
    terms = format_combination(op.coefficients, lambda j: f"{x(j)}*{dx(j)}")
    return terms + _shift_text(op.shift, imaginary_unit)


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
        text = _generator_text(b, "macaulay2", lambda b: _binomial_text(b, dx))
        lines.append(f"{name} = {text};")
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
    members += [_generator_text(b, "singular", lambda b: _binomial_text(b, dx))
                for b in system.binomials]
    lines.append(f"ideal H = {','.join(members)};")
    lines.append("H;")
    return "\n".join(lines) + "\n"


# The one list of formats: name -> writer.  FORMATS, the CLI choices, keeps this order.
_WRITERS = {"json": _export_json, "macaulay2": _export_macaulay2, "singular": _export_singular}
FORMATS = tuple(_WRITERS)
