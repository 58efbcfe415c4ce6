"""Command-line surface: classify procedures, run example reports, evaluate
Levi-Civita expressions, and emit machine-readable certificates.

Commands::

    lcbayes finite classify <problem.json> --procedures <file>
    lcbayes finite synthesize-prior <problem.json> --procedures <file> --procedure <index>
    lcbayes example {normal-location | bernoulli-boundary} [--dim D] [--order N]
    lcbayes lc eval [--] <expr> [--order N]

Global flags: ``--format json|text`` and ``--order N`` (default 8), before
the command.  ``example`` and ``lc eval`` also take them after the
command, and there they win.  The arguments are read from a table of the
four commands, not by argparse: an option takes its value as the next
word or after ``=`` (``--order=4``), names are never abbreviated, a
negative number such as ``lc eval -1`` is a positional argument, and
every word after ``--`` is one (``lc eval -- -eps``).  ``-h``/``--help``
prints the usage to stdout and exits 0; a usage error prints the usage
and one ``error:`` line to stderr and exits 2.

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

import json
import os
import re
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
        problem = problem_from_json(Path(args["problem"]).read_text())
        procedures = procedures_from_json(Path(args["procedures"]).read_text())
        for procedure in procedures:
            check_procedure(problem, procedure)
    except (OSError, UnicodeDecodeError, SchemaError, IndexOutOfRange, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    classifying = args["command"] == "finite classify"
    if not classifying:
        index = args["procedure"]
        if not 0 <= index < len(procedures):
            print(f"error: procedure index {index} out of range", file=sys.stderr)
            return EXIT_BAD_INPUT
        procedures = procedures[index:index + 1]
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

    name, dim = args["name"], args["dim"]
    if name == "normal-location":
        if dim < 1:
            print("error: --dim must be >= 1", file=sys.stderr)
            return EXIT_BAD_INPUT
        if dim > MAX_DIM:
            print(f"error: --dim must be <= {MAX_DIM}", file=sys.stderr)
            return EXIT_BAD_INPUT
        report = normal_location_report(dim, order=order)
        _print_payload(normal_location_payload(report), fmt)
        return EXIT_OK
    if name == "bernoulli-boundary":
        report = bernoulli_boundary_report(order=order)
        _print_payload(bernoulli_payload(report), fmt)
        return EXIT_OK
    print(f"error: unknown example {name!r}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _cmd_lc_eval(args, fmt: str, order: int) -> int:
    try:
        value = evaluate(args["expr"], order=order)
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

USAGE = """\
usage: lcbayes [--format json|text] [--order N] finite classify PROBLEM --procedures FILE
       lcbayes [--format json|text] [--order N] finite synthesize-prior PROBLEM
               --procedures FILE --procedure INDEX
       lcbayes [--format json|text] [--order N] example NAME [--dim D]
               [--order N] [--format json|text]
       lcbayes [--format json|text] [--order N] lc eval [--] EXPR
               [--order N] [--format json|text]"""

HELP = USAGE + """

Exact decision-theory certificates over rational and Levi-Civita arithmetic.

  finite classify          classify procedures against a finite problem
  finite synthesize-prior  witness prior and game value for one procedure
  example                  built-in reports: normal-location, bernoulli-boundary
  lc eval                  evaluate a Levi-Civita expression

  --format json|text  output format (default json)
  --order N           Levi-Civita truncation order (default 8)
  --dim D             dimension of the normal-location example (default 1)

An option takes its value as the next word or after '='.  Put '--' before
an expression that starts with '-': lcbayes lc eval -- -eps."""

_FORMATS = ("json", "text")
_GLOBAL = {"--format": _FORMATS, "--order": int}
# each command's positional arguments and its options, by the type of
# their value (a tuple lists the choices); an option with no default in
# _DEFAULTS is required
_COMMANDS = {
    "finite classify": (("problem",), {"--procedures": str}),
    "finite synthesize-prior": (("problem",), {"--procedures": str, "--procedure": int}),
    "example": (("name",), {"--dim": int, **_GLOBAL}),
    "lc eval": (("expr",), _GLOBAL),
}
_DEFAULTS = {"format": "json", "order": 8, "dim": 1}
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


class UsageError(Exception):
    """Arguments that name no command or do not fit the command's table."""


def _is_option(token: str) -> bool:
    """A word that starts with '-' names an option unless it is '-' alone,
    a negative number or holds a space, as in argparse."""
    return (token.startswith("-") and token != "-" and " " not in token
            and not _NEGATIVE.fullmatch(token))


def _read(tokens: list[str], options: dict, values: dict, stop: bool) -> list[str]:
    """Store ``tokens``' options in ``values`` and return the rest: every
    token from the first positional on with ``stop``, else the positionals.
    After ``--`` every token is positional."""
    positionals = []
    tokens = iter(tokens)
    for token in tokens:
        if token == "--":
            return positionals + list(tokens)
        if not _is_option(token):
            positionals.append(token)
            if stop:
                return positionals + list(tokens)
        else:
            flag, has_value, value = token.partition("=")
            if flag not in options:
                raise UsageError(f"unrecognized arguments: {token}")
            if not has_value:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise UsageError(f"argument {flag}: expected one argument")
            kind = options[flag]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
            elif kind is not str and value not in kind:
                raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                                 f"(choose from {', '.join(map(repr, kind))})")
            values[flag[2:]] = value
    return positionals


def parse_args(argv: list[str]) -> dict:
    """The values of ``argv``'s command, its positional arguments and its
    options, with the command itself under ``"command"``."""
    values = dict(_DEFAULTS)
    words = _read(argv, _GLOBAL, values, stop=True)
    command = " ".join(words[:2] if words[:1] in (["finite"], ["lc"]) else words[:1])
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}" if command else "no command given")
    names, options = _COMMANDS[command]
    positionals = _read(words[command.count(" ") + 1:], options, values, stop=False)
    if len(positionals) > len(names):
        raise UsageError(f"unrecognized arguments: {' '.join(positionals[len(names):])}")
    missing = names[len(positionals):] + tuple(
        flag for flag in options if flag[2:] not in values)
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    values.update(zip(names, positionals), command=command)
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    if "-h" in argv[:end] or "--help" in argv[:end]:
        print(HELP)
        return EXIT_OK
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(f"{USAGE}\nlcbayes: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    fmt, order = args["format"], args["order"]
    if order < 1:
        print("error: --order must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args["command"] == "example":
            return _cmd_example(args, fmt, order)
        if args["command"] == "lc eval":
            return _cmd_lc_eval(args, fmt, order)
        return _cmd_finite(args, fmt)
    except (TooManyTerms, CoefficientTooWide) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NotNearStandard as exc:  # pragma: no cover - reports catch this
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry():
    """The console script and ``python -m lcbayes.cli``: exit with
    :func:`main`'s code, or with 1 and nothing on stderr when stdout was
    closed early.  The streams are flushed here and the process leaves by
    ``os._exit``, so the interpreter's finalization, which a one-shot
    command does not need, is skipped and no later flush can fail."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
