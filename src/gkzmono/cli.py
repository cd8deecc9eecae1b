"""Command-line front end.

Matrices are given inline as JSON (-A '[[1,1,1],[0,1,2]]'), as @file, or
through --input pointing at a JSON file {"A": [[..]], "beta": [..]}.
Rational parameter entries are "p/q" strings (floats are rejected); complex
entries are {"re": "p/q", "im": "p/q"} objects.  Every command renders a
single report value either as text or, with --json, as JSON.

Exit codes: 0 success, 1 input error, 2 scale limit, 3 internal
inconsistency.  The console script also exits 1, with no traceback, when
stdout is closed before the report is written (`gkzmono faces ... | head -1`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import exporters, toric
from .classify import classify
from .cones import reduce_configuration
from .errors import InputError, InternalInconsistency, ScaleLimit
from .groebner import DEFAULT_STEP_BUDGET
from .intlinalg import IntMatrix, kernel_lattice_basis
from .resonance import describe_resonant_arrangement, resonance_centers
from .volume import normalized_volume

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SCALE = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkzmono",
        description="Exact reducibility classification for GKZ hypergeometric systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_beta, budgeted=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-A", "--matrix", action=_Once, help="matrix as JSON [[..]] or @file")
        p.add_argument("--input", action=_Once, help="JSON file with {'A': [[..]], 'beta': [..]}")
        if needs_beta:
            p.add_argument("-b", "--beta", action=_Once,
                           help="comma-separated p/q entries or JSON list")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if budgeted:
            p.add_argument(
                "--max-steps",
                action=_Once,
                type=_step_budget,
                default=DEFAULT_STEP_BUDGET,
                help="step budget (at least 1) for toric-ideal saturation",
            )
        return p

    add("reduce", "normalize (A, beta) so the columns generate Z^d", True)
    add("faces", "list all faces of the cone with witnesses", False)
    add("centers", "resonance report for beta", True)
    add("classify", "reducible/irreducible verdict with evidence", True)
    add("volume", "normalized volume (generic rank)", False)
    add("kernel", "basis of the integer kernel lattice", False)
    add("toric-ideal", "saturated toric ideal generators", False, budgeted=True)
    exp = add(
        "export", "write the hypergeometric system for external tools", True, budgeted=True
    )
    exp.add_argument(
        "--format",
        action=_Once,
        choices=exporters.FORMATS,
        required=True,
        help="output format",
    )
    add("arrangement", "describe the resonant arrangement", False)
    return parser


class _Once(argparse.Action):
    """Store an option's value; an option given twice is an input error, not its last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given", set())
        if self.dest in given:
            parser.error(f"{'/'.join(self.option_strings)} given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _step_budget(text: str) -> int:
    steps = int(text) if text.isascii() and text.isdigit() else 0  # as rational literals
    if steps < 1:
        raise argparse.ArgumentTypeError(f"step budget must be ASCII digits, at least 1: {text!r}")
    return steps


# Built once per process: parse_args keeps no state between calls.
_PARSER = build_parser()


def _attach_beta_values(argv) -> list:
    """Rewrite "-b -1/2,1" as "--beta=-1/2,1": argparse reads "-1/2,1" as an option."""
    out: list = []
    for token in argv:
        negative = token[:1] == "-" and token[1:2].isdigit()
        if negative and out and out[-1] in ("-b", "--beta"):
            out[-1] = f"--beta={token}"
        else:
            out.append(token)
    return out


def _contains_boolean(value) -> bool:
    """JSON true/false would pass as the integers 1/0; they are rejected at any depth."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, bool):
            return True
        if isinstance(value, (list, dict)):
            stack.extend(value.values() if isinstance(value, dict) else value)
    return False


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per level
        raise InputError(f"{what} is not valid JSON: {exc}") from exc


def _load_matrix_literal(text: str) -> IntMatrix:
    if text.startswith("@"):
        text = _read_text(text[1:])
    return _matrix_from_rows(_json(text, "matrix"))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _matrix_from_rows(rows) -> IntMatrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("matrix JSON must be a list of rows")
    if _contains_boolean(rows):
        raise InputError("matrix entries must be integers, not booleans")
    try:
        return IntMatrix(rows)
    except TypeError as exc:
        raise InputError(f"matrix entries must be integers: {exc}") from exc


def _parse_beta_literal(text: str) -> list:
    text = text.strip()
    if text.startswith("["):
        entries = _json(text, "beta")
        if not isinstance(entries, list):
            raise InputError("beta JSON must be a list")
        return entries
    entries = [tok.strip() for tok in text.split(",")]
    if "" in entries:
        raise InputError(f"empty entry in beta list: {text!r}")
    return entries


def _gather_input(args) -> tuple[IntMatrix, Optional[list]]:
    matrix = beta = None
    if args.input is not None:
        payload = _json(_read_text(args.input), "input file")
        if not isinstance(payload, dict) or "A" not in payload:
            raise InputError("input file must hold a JSON object with an 'A' matrix")
        if unknown := sorted(set(payload) - {"A", "beta"}):
            raise InputError(f"unknown keys in input file: {unknown}")
        matrix = _matrix_from_rows(payload["A"])
        beta = payload.get("beta")
        if beta is not None and not isinstance(beta, list):
            raise InputError("input file field 'beta' must be a list")
    if args.matrix is not None:
        matrix = _load_matrix_literal(args.matrix)
    if getattr(args, "beta", None) is not None:
        beta = _parse_beta_literal(args.beta)
    if matrix is None:
        raise InputError("no matrix given (use -A or --input)")
    return matrix, beta


def _require_beta(beta) -> list:
    if beta is None:
        raise InputError("this command needs a parameter vector (use -b or --input)")
    if _contains_boolean(beta):
        raise InputError("beta entries must be rationals, not booleans")
    return beta


def _set_text(indices) -> str:
    return "{" + ",".join(str(j) for j in indices) + "}"


def _tuple_text(values) -> str:
    return "(" + ",".join(str(x) for x in values) + ")"


def _render_faces(report: dict) -> str:
    return "\n".join(
        f"{_set_text(face['indices'])} witness {_tuple_text(face['witness'])}"
        for face in report["faces"]
    )


def _render_classify(report: dict) -> str:
    lines = [
        f"verdict: {report['verdict']}",
        "centers: " + ", ".join(_set_text(c) for c in report["centers"]),
        f"generic rank: {report['generic_rank']}",
    ]
    for detail in report["center_details"]:
        vol = detail["face_volume"]
        lines.append(
            f"center {_set_text(detail['indices'])}: "
            f"pyramid={detail['pyramid']} "
            f"face_volume={'n/a' if vol is None else vol}"
        )
    return "\n".join(lines)


def _render_centers(report: dict) -> str:
    def faces(key):
        return ", ".join(_set_text(f["indices"]) for f in report[key])

    return (
        f"nonresonant: {report['is_nonresonant']}\n"
        f"centers: {faces('centers')}\n"
        f"member faces: {faces('member_faces')}"
    )


def _render_reduce(report: dict) -> str:
    return f"A' = {report['A']}\nbeta' = {report['beta']}\nB = {report['B']}"


def _render_kernel(report: dict) -> str:
    if not report["kernel"]:
        return "(trivial kernel)"
    return "\n".join(_tuple_text(u) for u in report["kernel"])


def _render_arrangement(report: dict) -> str:
    if not report["components"]:
        return "(no proper faces: every parameter is nonresonant)"
    return "\n".join(
        f"face {_set_text(comp['face']['indices'])}: " + "; ".join(comp["congruences"])
        for comp in report["components"]
    )


def _render_toric(report: dict) -> str:
    def mono(exps):
        return exporters._monomial_text(exps, lambda j: f"d{j}")

    if not report["binomials"]:
        return "(zero ideal)"
    lines = [f"{mono(b['plus'])} - {mono(b['minus'])}" for b in report["binomials"]]
    lines.append(f"saturated: {report['saturated']}")
    return "\n".join(lines)


def run(argv) -> int:
    """Run one command; integers of any length are read and printed exactly."""
    if not hasattr(sys, "set_int_max_str_digits"):  # CPython's digit limit, 3.10.7 on
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    try:
        args = _PARSER.parse_args(_attach_beta_values(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        matrix, beta = _gather_input(args)
        # Commands without a parameter normalize A with beta = 0.
        beta = _require_beta(beta) if "beta" in args else [0] * matrix.rows
        if args.command == "kernel":
            report = {"kernel": [list(u) for u in kernel_lattice_basis(matrix)]}
            text = _render_kernel(report)
        elif args.command == "classify":
            report = classify(matrix, beta).to_json()
            text = _render_classify(report)
        else:
            config, beta_red, basis = reduce_configuration(matrix, beta)
            if args.command == "reduce":
                report = {
                    "A": [list(r) for r in config.A.data],
                    "beta": [b.to_json() for b in beta_red],
                    "B": [list(r) for r in basis.data],
                }
                text = _render_reduce(report)
            elif args.command == "faces":
                report = {"faces": [f.to_json() for f in config.face_lattice()]}
                text = _render_faces(report)
            elif args.command == "centers":
                report = resonance_centers(config, beta_red).to_json()
                text = _render_centers(report)
            elif args.command == "volume":
                result = normalized_volume(config)
                report = result.to_json()
                text = str(result.volume)
            elif args.command == "toric-ideal":
                generators = toric.toric_ideal_generators(config, max_steps=args.max_steps)
                report = {"binomials": [b.to_json() for b in generators], "saturated": True}
                text = _render_toric(report)
            elif args.command == "export":
                system = toric.hypergeometric_system(config, beta_red, max_steps=args.max_steps)
                text = exporters.export(system, args.format)
            else:
                components = describe_resonant_arrangement(config)
                report = {"components": [c.to_json() for c in components]}
                text = _render_arrangement(report)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScaleLimit as exc:
        print(f"scale limit: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except InternalInconsistency as exc:
        print(f"internal inconsistency (bug): {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    # Written outside the try above: a closed stdout is not an input error.
    if args.command == "export":
        sys.stdout.write(text)
    elif args.json:
        print(exporters.json_text(report))
    else:
        print(text)
    return EXIT_OK


def main():  # pragma: no cover - thin wrapper
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:  # the exit flush goes to devnull (Python's signal docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_INPUT
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    main()
