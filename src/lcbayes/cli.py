"""Command-line surface: classify procedures, run example reports, evaluate
Levi-Civita expressions, and emit machine-readable certificates.

Commands::

    lcbayes finite classify <problem.json> --procedures <file>
    lcbayes finite synthesize-prior <problem.json> --procedure <index>
    lcbayes example {normal-location | bernoulli-boundary} [--dim D] [--order N]
    lcbayes lc eval <expr> [--order N]

Global flags: ``--format json|text`` and ``--order N`` (default 8).
``example`` and ``lc eval`` also take them after the subcommand, and
there they win.

Machine output is exact: rationals as "p/q" strings and Levi-Civita
values in the canonical series syntax; decimal approximations appear
only in text format.  Identical inputs and flags produce byte-identical
JSON.  Exit codes: 0 success, 1 stdout closed before the output was
written, 2 malformed input, unknown example, a ``--dim`` past
:data:`MAX_DIM`, a Levi-Civita result past the term or coefficient cap,
or a result past Python's int-to-text digit limit, 3 internal
certificate failure (a verdict that fails its LP certificate or
``classify``'s checks), 4 division by zero in ``lc eval``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .lcnum import CoefficientTooWide, LCNumber, NotNearStandard, TooManyTerms, evaluate

if TYPE_CHECKING:
    from .decision import FiniteProblem, Procedure
    from .families import BernoulliBoundaryReport, NormalLocationReport
    from .priors import AdmissibilityVerdict

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CERTIFICATE = 3
EXIT_DIV_ZERO = 4

# the largest --dim of the normal-location report: tests, demos and the
# benchmark use 1-4.  Its time is spent in the rational enclosures of
# pi^(d/2) for the probe balls, whose numerators and denominators gain 15
# digits per dimension, so it grows faster than d^2 at every order: about
# 0.07 s at 256 and 0.5 s at 1,000 in process, 25 s at 8,000 as a command
MAX_DIM = 256


def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2)


def _st_fields(value: LCNumber) -> dict:
    v = value.valuation()
    out = {"valuation": "+inf" if v is None else str(v)}
    if value.is_near_standard():
        out["st"] = str(value.standard_part())
    else:
        out["st"] = "undefined"
    return out


# ----------------------------------------------------------------------
# payload builders
# ----------------------------------------------------------------------


def classification_payload(procedure: Procedure, verdict: AdmissibilityVerdict) -> dict:
    from .decision import procedure_to_json_dict

    payload = {
        "procedure": procedure_to_json_dict(procedure),
        "admissible": verdict.admissible,
        "extended_admissible": verdict.extended_admissible,
        "epsilon_star": str(verdict.epsilon_star),
        "game_value": str(-verdict.epsilon_star),
        "prior": [str(w) for w in verdict.witness_prior.weights],
        "bayes_slack": str(verdict.epsilon_star),
    }
    if verdict.witness is not None:
        payload["witness"] = procedure_to_json_dict(verdict.witness)
    return payload


def game_payload(problem: FiniteProblem, verdict: AdmissibilityVerdict) -> dict:
    from .priors import minimal_posterior_scores

    _, best_responses = minimal_posterior_scores(problem, verdict.witness_prior)
    return {
        "game_value": str(-verdict.epsilon_star),
        "prior": [str(w) for w in verdict.witness_prior.weights],
        "slack": str(verdict.epsilon_star),
        "inner_best_responses": [list(acts) for acts in best_responses],
        "prior_possibly_nonunique": verdict.epsilon_star > 0,
    }


def normal_location_payload(report: NormalLocationReport) -> dict:
    regularity = {
        "verdict": report.regularity.verdict,
        "epsilon": str(report.regularity_epsilon),
    }
    if report.regularity.witness is not None:
        center, radius = report.regularity.witness
        regularity["witness_probe"] = {
            "center": [str(c) for c in center],
            "radius": str(radius),
        }
    payload = {
        "example": "normal-location",
        "dim": report.dim,
        "order": report.order,
        "prior_scale": str(report.scale),
        "shrinkage": str(report.shrinkage),
        "shrinkage_st": str(report.shrinkage_st),
        "shrinkage_bayes_risk": str(report.shrinkage_bayes_risk),
        "sample_mean_bayes_risk": str(report.sample_mean_bayes_risk),
        "gap": str(report.gap),
        "gap_closed_form": report.gap_closed_form,
        "gap_is_infinitesimal": report.gap_is_infinitesimal,
        "gap_st": str(report.gap.standard_part()),
        "risk_constant_coefficient": str(report.risk_constant_coefficient),
        "risk_norm_coefficient": str(report.risk_norm_coefficient),
        "regularity": regularity,
    }
    if report.discrepancy_note is not None:
        payload["regularity_discrepancy_note"] = report.discrepancy_note
    return payload


def bernoulli_payload(report: BernoulliBoundaryReport) -> dict:
    return {
        "example": "bernoulli-boundary",
        "order": report.order,
        "lc_point": str(report.lc_point),
        "lc_bayes_risk": str(report.lc_bayes_risk),
        "lc_bayes_risk_st": str(report.lc_bayes_risk_st),
        "risk_at_half": str(report.risk_at_half),
        "risk_at_zero": str(report.risk_at_zero),
        "non_bayes": [
            {
                "prior": entry.prior_label,
                "optimal_rule": [str(v) for v in entry.optimal_rule],
                "optimal_bayes_risk": str(entry.optimal_bayes_risk),
                "candidate_bayes_risk": str(entry.candidate_bayes_risk),
                "excess": str(entry.excess),
            }
            for entry in report.non_bayes
        ],
        "no_dominator_found": not report.dominators_found,
        "dominators": [[str(a), str(b)] for a, b in report.dominators_found],
        "challenger_count": report.challenger_count,
        "state_count": report.state_count,
    }


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------


def _render_text(payload, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        width = max((len(k) for k in payload), default=0)
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                line = f"{pad}{key.ljust(width)}  {value}"
                if key == "st" or key.endswith("_st"):  # an exact standard part: add a decimal
                    approx = _decimal(str(value).rsplit(" ", 1)[-1])
                    line = f"{line}  (~ {approx})" if approx else line
                lines.append(line)
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}[{i}]")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{payload}")
    return lines


def _decimal(value: str) -> str:
    try:
        return f"{float(Fraction(value)):.6g}"
    except (ValueError, ZeroDivisionError, OverflowError):
        return ""


def _print_payload(payload, fmt: str):
    print(_emit_json(payload) if fmt == "json" else "\n".join(_render_text(payload)))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _cmd_finite(args, fmt: str) -> int:
    """``finite classify`` and ``finite synthesize-prior``.

    Both print verdicts of :func:`lcbayes.priors.classify`: the second
    runs it on the one procedure its ``--procedure`` names.  Only
    reading and checking the inputs maps errors to exit 2, so a failure
    inside the solver is never reported as bad input.  The one other
    exit 2 is a result too long for Python's int-to-text limit, caught
    where the payload is written out.
    """
    from .decision import (IndexOutOfRange, SchemaError, ShapeMismatch, check_procedure,
                           problem_from_json, procedures_from_json)
    from .priors import classify
    from .ratlp import CertificateError

    try:
        problem = problem_from_json(Path(args.problem).read_text())
        procedures = procedures_from_json(Path(args.procedures).read_text())
        for procedure in procedures:
            check_procedure(problem, procedure)
    except (OSError, UnicodeDecodeError, SchemaError, IndexOutOfRange, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    classifying = args.subcommand == "classify"
    if not classifying:
        if not 0 <= args.procedure < len(procedures):
            print(f"error: procedure index {args.procedure} out of range", file=sys.stderr)
            return EXIT_BAD_INPUT
        procedures = procedures[args.procedure:args.procedure + 1]
    try:
        verdicts = [classify(problem, procedure) for procedure in procedures]
    except CertificateError as exc:
        print(f"internal certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    try:
        if classifying:
            payload = [classification_payload(procedure, verdict)
                       for procedure, verdict in zip(procedures, verdicts)]
        else:
            payload = game_payload(problem, verdicts[0])
    except ValueError as exc:  # an int/str conversion past Python's digit limit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    _print_payload(payload, fmt)
    return EXIT_OK


def _cmd_example(args, fmt: str, order: int) -> int:
    from .families import bernoulli_boundary_report, normal_location_report

    if args.name == "normal-location":
        if args.dim < 1:
            print("error: --dim must be >= 1", file=sys.stderr)
            return EXIT_BAD_INPUT
        if args.dim > MAX_DIM:
            print(f"error: --dim must be <= {MAX_DIM}", file=sys.stderr)
            return EXIT_BAD_INPUT
        report = normal_location_report(args.dim, order=order)
        _print_payload(normal_location_payload(report), fmt)
        return EXIT_OK
    if args.name == "bernoulli-boundary":
        report = bernoulli_boundary_report(order=order)
        _print_payload(bernoulli_payload(report), fmt)
        return EXIT_OK
    print(f"error: unknown example {args.name!r}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _cmd_lc_eval(args, fmt: str, order: int) -> int:
    try:
        value = evaluate(args.expr, order=order)
        payload = {"value": str(value), "order": order}
        payload.update(_st_fields(value))
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:  # a parse error, or an int/str conversion past the digit limit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ZeroDivisionError:
        print("error: division by zero", file=sys.stderr)
        return EXIT_DIV_ZERO
    _print_payload(payload, fmt)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcbayes",
        description="Exact decision-theory certificates over rational and "
                    "Levi-Civita arithmetic.")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--order", type=int, default=8,
                        help="Levi-Civita truncation order (default 8)")
    sub = parser.add_subparsers(dest="command", required=True)

    finite = sub.add_parser("finite", help="finite decision problem commands")
    finite_sub = finite.add_subparsers(dest="subcommand", required=True)
    cls = finite_sub.add_parser("classify", help="classify procedures")
    cls.add_argument("problem")
    cls.add_argument("--procedures", required=True)
    syn = finite_sub.add_parser("synthesize-prior", help="witness prior for one procedure")
    syn.add_argument("problem")
    syn.add_argument("--procedures", required=True)
    syn.add_argument("--procedure", type=int, required=True)

    ex = sub.add_parser("example", help="built-in example reports")
    ex.add_argument("name")
    ex.add_argument("--dim", type=int, default=1)
    ex.add_argument("--order", type=int, default=argparse.SUPPRESS)
    ex.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)

    lc = sub.add_parser("lc", help="Levi-Civita arithmetic")
    lc_sub = lc.add_subparsers(dest="subcommand", required=True)
    ev = lc_sub.add_parser("eval", help="evaluate an expression")
    ev.add_argument("expr")
    ev.add_argument("--order", type=int, default=argparse.SUPPRESS)
    ev.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its usage and one error line
        return exc.code
    fmt, order = args.format, args.order
    if order < 1:
        print("error: --order must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.command == "finite":
            return _cmd_finite(args, fmt)
        if args.command == "example":
            return _cmd_example(args, fmt, order)
        if args.command == "lc" and args.subcommand == "eval":
            return _cmd_lc_eval(args, fmt, order)
    except (TooManyTerms, CoefficientTooWide) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NotNearStandard as exc:  # pragma: no cover - reports catch this
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    parser.error("unknown command")
    return EXIT_BAD_INPUT  # pragma: no cover


def entry():
    """The console script and ``python -m lcbayes.cli``: :func:`main`'s exit
    code, or 1 with nothing on stderr when stdout was closed early."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
