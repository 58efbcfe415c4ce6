"""Command-line behavior: output schemas, determinism, exit codes."""

import importlib
import json
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import lcbayes
import lcbayes.priors
import lcbayes.ratlp
from lcbayes.cli import MAX_DIM, main
from lcbayes.decision import FiniteProblem, problem_to_json
from lcbayes.lcnum import MAX_TERMS, evaluate

SRC = Path(lcbayes.__file__).resolve().parent.parent

@pytest.fixture()
def fp1_files(tmp_path):
    problem = FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                                  model=[[1], [1]], loss=[[0, 1], [1, 0]])
    problem_path = tmp_path / "fp1.json"
    problem_path.write_text(problem_to_json(problem))
    procedures_path = tmp_path / "procs.json"
    procedures_path.write_text(json.dumps([
        {"kind": "nonrandomized", "map": [0]},
        {"kind": "nonrandomized", "map": [1]},
        {"kind": "randomized", "matrix": [["1/2", "1/2"]]},
    ]))
    return str(problem_path), str(procedures_path)


@pytest.fixture()
def fp2_files(tmp_path):
    problem = FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                                  model=[[1], [1]], loss=[[0, 1], [1, 2]])
    problem_path = tmp_path / "fp2.json"
    problem_path.write_text(problem_to_json(problem))
    procedures_path = tmp_path / "procs.json"
    procedures_path.write_text(json.dumps([
        {"kind": "nonrandomized", "map": [1]},
    ]))
    return str(problem_path), str(procedures_path)


def load_schema(name):
    text = resources.files("lcbayes").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ----------------------------------------------------------------------
# finite classify
# ----------------------------------------------------------------------


def test_classify_fp1(capsys, fp1_files):
    problem, procedures = fp1_files
    code, out = run_json(capsys, ["finite", "classify", problem,
                                  "--procedures", procedures])
    assert code == 0
    reports = json.loads(out)
    jsonschema.validate(reports, load_schema("classification_reports.schema.json"))
    assert len(reports) == 3
    for report in reports:
        assert report["admissible"] is True
        assert report["game_value"] == "0"
        assert "witness" not in report


def test_classify_fp2_witness_emitted(capsys, fp2_files):
    problem, procedures = fp2_files
    code, out = run_json(capsys, ["finite", "classify", problem,
                                  "--procedures", procedures])
    assert code == 0
    reports = json.loads(out)
    jsonschema.validate(reports, load_schema("classification_reports.schema.json"))
    assert reports[0]["epsilon_star"] == "1"
    assert reports[0]["game_value"] == "-1"
    assert "witness" in reports[0]


def test_classify_empty_procedures(capsys, tmp_path, fp1_files):
    problem, _ = fp1_files
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, out = run_json(capsys, ["finite", "classify", problem,
                                  "--procedures", str(empty)])
    assert code == 0
    assert json.loads(out) == []


def test_classify_deterministic_output(capsys, fp1_files):
    problem, procedures = fp1_files
    argv = ["finite", "classify", problem, "--procedures", procedures]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    assert first == second


def test_classify_malformed_problem(capsys, tmp_path, fp1_files):
    _, procedures = fp1_files
    broken = tmp_path / "broken.json"
    broken.write_text('{"states": []}')
    code = main(["finite", "classify", str(broken), "--procedures", procedures])
    assert code == 2


def test_classify_missing_file(capsys, fp1_files):
    _, procedures = fp1_files
    code = main(["finite", "classify", "/nonexistent.json",
                 "--procedures", procedures])
    assert code == 2


# ----------------------------------------------------------------------
# finite synthesize-prior
# ----------------------------------------------------------------------


def test_synthesize_prior(capsys, fp2_files):
    problem, procedures = fp2_files
    code, out = run_json(capsys, ["finite", "synthesize-prior", problem,
                                  "--procedures", procedures, "--procedure", "0"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("game_analysis.schema.json"))
    assert payload["game_value"] == "-1"
    assert payload["slack"] == "1"
    assert payload["prior_possibly_nonunique"] is True


def test_synthesize_prior_bad_index(capsys, fp2_files):
    problem, procedures = fp2_files
    code = main(["finite", "synthesize-prior", problem,
                 "--procedures", procedures, "--procedure", "5"])
    assert code == 2


@pytest.mark.parametrize("command", [["classify"], ["synthesize-prior", "--procedure", "0"]],
                         ids=["classify", "synthesize-prior"])
def test_certificate_failure_exits_3(capsys, monkeypatch, fp2_files, command):
    def refuse(problem, solution):
        raise lcbayes.ratlp.CertificateError("refused")

    monkeypatch.setattr(lcbayes.ratlp, "check_certificate", refuse)
    problem, procedures = fp2_files
    assert main(["finite", command[0], problem, "--procedures", procedures,
                 *command[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal certificate failure:")


@pytest.mark.parametrize("command", [["classify"], ["synthesize-prior", "--procedure", "0"]],
                         ids=["classify", "synthesize-prior"])
def test_verdict_that_fails_the_checks_exits_3(capsys, monkeypatch, fp2_files, command):
    # S* off by 1: the improver's slacks no longer sum to it, so classify
    # refuses the verdict, and neither subcommand prints it
    honest = lcbayes.priors.check_admissible

    def corrupted(problem, procedure):
        verdict = honest(problem, procedure)
        return verdict.replace(total_slack=verdict.total_slack + 1)

    monkeypatch.setattr(lcbayes.priors, "check_admissible", corrupted)
    problem, procedures = fp2_files
    assert main(["finite", command[0], problem, "--procedures", procedures,
                 *command[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal certificate failure:")


@pytest.mark.parametrize("command", [["classify"], ["synthesize-prior", "--procedure", "1"]],
                         ids=["classify", "synthesize-prior"])
@pytest.mark.parametrize("bad", [
    {"kind": "nonrandomized", "map": [5]},
    {"kind": "nonrandomized", "map": [0, 1]},
    {"kind": "randomized", "matrix": [["1/3", "1/3", "1/3"]]},
    {"kind": "randomized", "matrix": ["10"]},
], ids=["action-out-of-range", "wrong-row-count", "wrong-row-length", "string-row"])
def test_malformed_procedure_is_bad_input(capsys, tmp_path, fp1_files, command, bad):
    problem, _ = fp1_files
    procedures = tmp_path / "bad.json"
    procedures.write_text(json.dumps([{"kind": "nonrandomized", "map": [0]}, bad]))
    code = main(["finite", command[0], problem, "--procedures", str(procedures)]
                + command[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["classify"], ["synthesize-prior", "--procedure", "0"]],
                         ids=["classify", "synthesize-prior"])
@pytest.mark.parametrize("bad", [
    {"kind": "nonrandomized", "map": ["a"]},
    {"kind": "nonrandomized", "map": [1.7]},
    {"kind": "nonrandomized", "map": [True]},
    {"kind": "nonrandomized", "map": "0"},
    "nonrandomized",
], ids=["string-action", "float-action", "bool-action", "map-not-a-list", "bare-string"])
def test_non_integer_map_is_bad_input(capsys, tmp_path, fp1_files, command, bad):
    # JSON 1.7 and true used to be read as action 1, and "a" raised a traceback
    problem, _ = fp1_files
    procedures = tmp_path / "bad.json"
    procedures.write_text(json.dumps([bad]))
    code = main(["finite", command[0], problem, "--procedures", str(procedures)]
                + command[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["classify"], ["synthesize-prior", "--procedure", "0"]],
                         ids=["classify", "synthesize-prior"])
@pytest.mark.parametrize("field, entry", [("states", "t1"), ("actions", "a1")])
def test_bare_string_entry_is_named(capsys, tmp_path, fp1_files, command, field, entry):
    problem_path, procedures = fp1_files
    payload = json.loads(open(problem_path).read())
    payload[field][0] = entry
    broken = tmp_path / "bare.json"
    broken.write_text(json.dumps(payload))
    code = main(["finite", command[0], str(broken), "--procedures", procedures]
                + command[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f'error: {field[:-1]} entry "{entry}" must be a JSON object\n'


@pytest.mark.parametrize("command", [["classify"], ["synthesize-prior", "--procedure", "0"]],
                         ids=["classify", "synthesize-prior"])
@pytest.mark.parametrize("field, value, message", [
    ("observations", "x", "observations must be a list, got 'x'"),
    ("model", ["1", "1"], "model row 0 must be a list, got '1'"),
], ids=["observations", "model-rows"])
def test_string_for_list_is_named(capsys, tmp_path, fp1_files, command, field, value,
                                  message):
    # these strings used to be iterated character by character and classified
    problem_path, procedures = fp1_files
    payload = json.loads(open(problem_path).read())
    payload[field] = value
    broken = tmp_path / "string.json"
    broken.write_text(json.dumps(payload))
    code = main(["finite", command[0], str(broken), "--procedures", procedures]
                + command[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["classify"], ["synthesize-prior", "--procedure", "0"]],
                         ids=["classify", "synthesize-prior"])
def test_null_label_is_bad_input(capsys, tmp_path, fp1_files, command):
    # a null label used to become the state "None"
    problem_path, procedures = fp1_files
    payload = json.loads(open(problem_path).read())
    payload["states"][0]["label"] = None
    broken = tmp_path / "null-label.json"
    broken.write_text(json.dumps(payload))
    code = main(["finite", command[0], str(broken), "--procedures", procedures]
                + command[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: state label must be a string, got None\n"


RAW_DIGITS = "<raw integer of 5000 digits>"


@pytest.mark.parametrize("target, path, value, message", [
    ("problem", ("loss", 0, 0), RAW_DIGITS, "invalid JSON: Exceeds the limit"),
    ("procedures", (0, "map", 0), RAW_DIGITS, "invalid JSON: Exceeds the limit"),
    ("problem", ("loss", 0, 0), "1e5000", "rational in loss has more than 1000 digits"),
    ("problem", ("loss", 0, 0), "1e-10000000", "rational in loss has more than 1000 digits"),
    ("problem", ("loss", 0, 0), "1" * 1001, "rational in loss has more than 1000 digits"),
    ("problem", ("loss", 0, 0), "2_0", "bad rational '2_0' in loss"),
    ("problem", ("model", 0, 0), True, "expected exact rational in model, got bool"),
    ("problem", ("loss", 0, 1), True, "expected exact rational in loss, got bool"),
    ("problem", ("actions", 0, "value"), False, "expected exact rational in action value"),
    ("procedures", (0,), {"kind": "randomized", "matrix": [[True, False]]},
     "expected exact rational in procedure, got bool"),
], ids=["loss-5000-digits", "map-5000-digits", "loss-1e5000", "loss-1e-10000000",
        "loss-1001-digits", "loss-underscore", "model-true", "loss-true", "action-value-false",
        "matrix-true-false"])
def test_oversized_or_boolean_rational_is_bad_input(capsys, tmp_path, fp1_files, target,
                                                    path, value, message):
    # the 5,000-digit integers raised a ValueError traceback, 1e5000 one at
    # printing, 1e-10000000 spent seconds in Fraction(), true/false read as 1/0,
    # and "2_0" parsed on Python 3.11 but not on 3.10
    problem_path, procedures_path = fp1_files
    paths = {"problem": Path(problem_path), "procedures": Path(procedures_path)}
    payload = json.loads(paths[target].read_text())
    entry = payload
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    paths[target] = tmp_path / f"bad-{target}.json"
    paths[target].write_text(json.dumps(payload).replace(json.dumps(RAW_DIGITS), "9" * 5000))
    start = time.perf_counter()
    code = main(["finite", "classify", str(paths["problem"]),
                 "--procedures", str(paths["procedures"])])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe[]", "'utf-8' codec can't decode"),
    (b"[" * 100000, "invalid JSON: maximum recursion depth"),
], ids=["not-utf-8", "nested-too-deep"])
def test_unreadable_procedures_file_is_bad_input(capsys, tmp_path, fp1_files, text, message):
    # both used to end in a traceback
    problem, _ = fp1_files
    procedures = tmp_path / "procs.json"
    procedures.write_bytes(text)
    code = main(["finite", "classify", problem, "--procedures", str(procedures)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python without an int/str digit limit")
def test_classify_result_past_the_digit_limit_exits_2(capsys, tmp_path):
    # one state, five observations each answered by its own action: the risk
    # (1/5) * sum 1/(10^999 - i) has a denominator of about 5,000 digits
    n = 5
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "states": [{"label": "t"}], "observations": [f"x{i}" for i in range(n)],
        "actions": [{"label": f"a{i}"} for i in range(n)], "model": [[f"1/{n}"] * n],
        "loss": [[f"1/{10 ** 999 - i}" for i in range(1, n + 1)]]}))
    procedures = tmp_path / "procs.json"
    procedures.write_text(json.dumps([{"kind": "nonrandomized", "map": list(range(n))}]))
    assert main(["finite", "classify", str(problem), "--procedures", str(procedures)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "digits" in captured.err


# ----------------------------------------------------------------------
# examples
# ----------------------------------------------------------------------


def test_example_normal_location_dim1(capsys):
    code, out = run_json(capsys, ["example", "normal-location", "--dim", "1"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("example_normal_location.schema.json"))
    assert payload["gap_closed_form"] == "eps^2/(1+eps^2)"
    assert payload["gap_st"] == "0"
    assert payload["regularity"]["verdict"] == "Regular"


def test_example_normal_location_dim3(capsys):
    code, out = run_json(capsys, ["example", "normal-location", "--dim", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["regularity"]["verdict"] == "NotRegular"


def test_example_normal_location_dim2_flags_discrepancy(capsys):
    code, out = run_json(capsys, ["example", "normal-location", "--dim", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["regularity"]["verdict"] == "NotRegular"
    assert "regularity_discrepancy_note" in payload


def test_example_bernoulli(capsys):
    code, out = run_json(capsys, ["example", "bernoulli-boundary"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("example_bernoulli_boundary.schema.json"))
    assert payload["lc_bayes_risk"] == "eps^2"
    assert payload["lc_bayes_risk_st"] == "0"
    assert payload["risk_at_half"] == "1/4"
    assert payload["risk_at_zero"] == "1"


def test_example_unknown_name(capsys):
    assert main(["example", "nosuch"]) == 2


def test_example_bad_dim(capsys):
    # past the cap, the report would run for seconds to minutes (25 s at 8,000)
    for dim in (0, MAX_DIM + 1):
        start = time.perf_counter()
        assert main(["example", "normal-location", "--dim", str(dim)]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --dim") and err.count("\n") == 1
    assert main(["example", "normal-location", "--dim", str(MAX_DIM), "--order", "4"]) == 0


# ----------------------------------------------------------------------
# lc eval
# ----------------------------------------------------------------------


def test_lc_eval_rational_function(capsys):
    code, out = run_json(capsys, ["lc", "eval", "(eps^-2)/(eps^-2 + 1)"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("lc_eval.schema.json"))
    assert payload["value"] == "1 - eps^2 + eps^4 - eps^6 + eps^8"
    assert payload["st"] == "1"


def test_lc_eval_cancellation(capsys):
    code, out = run_json(capsys, ["lc", "eval", "eps * eps^-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1"
    assert payload["st"] == "1"


def test_lc_eval_division_by_zero(capsys):
    assert main(["lc", "eval", "1/0"]) == 4


def test_lc_eval_parse_error(capsys):
    assert main(["lc", "eval", "eps +* 2"]) == 2


def test_lc_eval_infinite_st_undefined(capsys):
    code, out = run_json(capsys, ["lc", "eval", "eps^-1"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("lc_eval.schema.json"))
    assert payload["st"] == "undefined"
    assert payload["valuation"] == "-1"


def test_lc_eval_order_flag(capsys):
    code, out = run_json(capsys, ["lc", "eval", "1/(1+eps)", "--order", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1 - eps + eps^2 - eps^3"
    assert payload["order"] == 3


def test_global_order_flag(capsys):
    code, out = run_json(capsys, ["--order", "2", "lc", "eval", "1/(1+eps)"])
    assert code == 0
    assert json.loads(out)["value"] == "1 - eps + eps^2"


def test_order_after_the_subcommand_wins(capsys):
    code, out = run_json(capsys, ["--order", "2", "lc", "eval", "1/(1+eps)", "--order", "3"])
    assert code == 0
    assert json.loads(out)["order"] == 3


def test_format_after_the_subcommand_wins(capsys):
    code, out = run_json(capsys, ["--format", "text", "example", "bernoulli-boundary",
                                  "--format", "json"])
    assert code == 0
    assert json.loads(out)["example"] == "bernoulli-boundary"


def test_text_format(capsys):
    code = main(["--format", "text", "example", "normal-location", "--dim", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gap_closed_form" in out
    assert "{" not in out.split("\n")[0]


@pytest.mark.parametrize("argv,keys", [
    (["example", "normal-location", "--dim", "2"], {"gap_st", "shrinkage_st"}),
    (["example", "bernoulli-boundary", "--order", "4"], {"lc_bayes_risk_st"}),
    (["lc", "eval", "1/3 + eps"], {"st"})])
def test_text_format_annotates_each_standard_part(capsys, argv, keys):
    # each standard part, and no other value, gets a decimal approximation
    assert main(["--format", "text"] + argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in lines if "(~ " in line} == keys


def test_lc_eval_past_the_term_cap_exits_2_quickly(capsys):
    # 800,001 exponents k/100000 fill the order-8 window; the division stops at the cap
    start = time.perf_counter()
    assert main(["lc", "eval", "1/(1+eps^(1/100000))", "--order", "8"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: result would keep more than {MAX_TERMS} terms\n"


def test_lc_eval_fine_reciprocal_is_correct_or_rejected(capsys):
    code = main(["lc", "eval", "1/(1+eps^1/1000)", "--order", "8"])
    captured = capsys.readouterr()
    if code == 0:
        value = evaluate(json.loads(captured.out)["value"], order=8)
        assert value * evaluate("1+eps^1/1000", order=8) == 1
    else:
        assert code == 2
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("expr", ["(" * 400 + "1" + ")" * 400, "0" + "-" * 3000 + "1",
                                  "9" * 5000, "2^20000", "2^16384", "3^10000000",
                                  "3^100000000", "(3+eps^1/64)^16384",
                                  "(1+2^100*eps^1/64)^1024", "(3+eps^1/64)^4096"])
def test_lc_eval_outsized_input_exits_2(capsys, expr):
    # nesting past the recursion limit, ints past Python's digit limit, and
    # powers past the coefficient cap or the work bound, which stop before
    # the multiplication that could pass it
    start = time.perf_counter()
    assert main(["lc", "eval", expr]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_lc_eval_square_past_the_coefficient_cap_names_the_cap(capsys):
    # a 4,000-digit coefficient is inside Python's digit limit, but its
    # square would pass the coefficient cap: the product is refused before
    # it is taken, with the cap's own message
    assert main(["lc", "eval", "(1+" + "7" * 4000 + "*eps)^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a coefficient would pass 16384 bits\n"


def test_lc_eval_text_format_with_a_huge_standard_part(capsys):
    assert main(["--format", "text", "lc", "eval", "10^400"]) == 0
    st_line = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("st"))
    assert st_line.endswith("0" * 400)  # no decimal: it overflows a float


def test_lc_eval_order_zero_is_rejected(capsys):
    assert main(["lc", "eval", "1", "--order", "0"]) == 2
    assert capsys.readouterr().err == "error: --order must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["lc", "eval", "-eps"],
    ["nosuch"],
    ["finite", "classify", "problem.json"],
    ["--format", "xml", "lc", "eval", "1"],
    ["--order", "x", "lc", "eval", "1"],
    ["example", "normal-location", "--dim", "x"],
    ["lc", "eval", "1", "2"],
    ["finite", "classify", "problem.json", "--procedures", "procs.json", "--order", "4"],
], ids=["leading-dash", "unknown-command", "missing-procedures", "format-xml", "order-x",
        "dim-x", "extra-positional", "order-after-finite"])
def test_usage_error_returns_2_without_raising(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage:")
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("argv, value", [
    (["lc", "eval", "1/(1+eps)", "--order=4"], "1 - eps + eps^2 - eps^3 + eps^4"),
    (["--order=2", "lc", "eval", "1/(1+eps)"], "1 - eps + eps^2"),
    (["lc", "eval", "--", "-eps"], "-eps"),
    (["lc", "eval", "-1"], "-1"),
], ids=["order-equals", "global-order-equals", "dash-dash", "negative-number"])
def test_accepted_argument_forms(capsys, argv, value):
    code, out = run_json(capsys, argv)
    assert code == 0
    assert json.loads(out)["value"] == value


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["lc", "eval", "-h"]])
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: lcbayes") and "lc eval -- -eps" in out
    assert err == ""


def run_cli(argv):
    """``python -m lcbayes.cli argv`` from the checkout's src/, its output
    buffered as it is when PYTHONUNBUFFERED is not set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "lcbayes.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=dict(env, PYTHONPATH=str(SRC)))


def test_hard_exit_keeps_stdout_whole(capsys, tmp_path, monkeypatch):
    # the process leaves by os._exit: what main printed must be flushed first
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    workloads = importlib.import_module("workloads")
    batch = workloads.classify_request(random.Random("hard-exit"), "large", (10, 10, 5))
    for name, text in batch.files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for argv in (["example", "bernoulli-boundary", "--order", "16"], batch.argv):
        assert main(argv) == 0
        expected = capsys.readouterr().out
        result = run_cli(argv)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == expected


@pytest.mark.parametrize("argv, code", [(["lc", "eval", "1", "2"], 2),
                                        (["lc", "eval", "1/(eps-eps)"], 4)],
                         ids=["usage-error", "division-by-zero"])
def test_hard_exit_keeps_stderr_whole(capsys, argv, code):
    assert main(argv) == code
    expected = capsys.readouterr()
    result = run_cli(argv)
    assert (result.returncode, result.stdout, result.stderr) == (code, "", expected.err)


@pytest.mark.parametrize("argv", [["lc", "eval", "1/(1+eps)"],
                                  ["example", "bernoulli-boundary", "--order", "16"]],
                         ids=["lc-eval", "bernoulli-boundary"])
def test_closed_stdout_exits_1_quietly(argv):
    # a pipe with its read end closed: the first write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "lcbayes.cli", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, timeout=60,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""
