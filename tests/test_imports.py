"""Start-up cost follows the command: what each entry point imports, and
the public names of the lazily loaded ``lcbayes`` package."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lcbayes

SRC = Path(lcbayes.__file__).resolve().parent.parent

# the package's public names, by the submodule that defines them
PUBLIC = {
    "lcnum": ("DEFAULT_ORDER", "LCNumber", "LCParseError", "NotNearStandard", "approx_eq",
              "compare", "eps", "evaluate", "leq_approx", "much_greater", "parse",
              "refute_much_greater", "st"),
    "ratlp": ("CertificateError", "LPProblem", "LPSolution", "MalformedProblem",
              "check_certificate", "solve_lp"),
    "decision": ("FiniteProblem", "Prior", "Procedure", "bayes_risk", "convex_combine",
                 "derandomize", "dominates", "risk", "risk_vector"),
    "priors": ("AdmissibilityVerdict", "check_admissible", "classify",
               "max_uniform_improvement", "minimal_bayes_risk", "synthesize_prior",
               "verify_epsilon_bayes"),
    "families": ("BernoulliBoundary", "BlythCertificate", "GaussianPrior",
                 "NormalLocationLinear", "RegularityVerdict", "bernoulli_boundary_report",
                 "blyth_certificate", "check_epsilon_regular_normal",
                 "normal_location_report", "pushdown", "pushdown_risk_consistency"),
}

# the standard library's generated records, and what they pull in; the
# package's records (lcbayes._record) need neither
RECORD_MACHINERY = {"dataclasses", "inspect"}
# argparse, and the gettext and locale modules that its messages load;
# cli reads its arguments from a table of its own
ARGUMENT_PARSING = {"argparse", "gettext", "locale"}


def modules_loaded_by(statements: str) -> set:
    """The modules a fresh interpreter imports to run ``statements``,
    beyond those it starts with."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            f"{statements}\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule():
    loaded = modules_loaded_by("import lcbayes")
    assert "lcbayes" in loaded
    assert not {name for name in loaded if name.startswith("lcbayes.")}


def test_lc_eval_loads_only_lcnum():
    loaded = modules_loaded_by('from lcbayes.cli import main\nmain(["lc", "eval", "1/(1+eps)"])')
    assert {name for name in loaded if name.startswith("lcbayes")} == {
        "lcbayes", "lcbayes.cli", "lcbayes.lcnum"}
    assert not (RECORD_MACHINERY | ARGUMENT_PARSING) & loaded


@pytest.fixture
def finite_argv(tmp_path):
    """The problem and procedure arguments of a small ``finite`` command."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "states": [{"label": "t1"}, {"label": "t2"}], "observations": ["x"],
        "actions": [{"label": "a1"}, {"label": "a2"}],
        "model": [[1], [1]], "loss": [[0, 1], [1, 0]]}))
    procedures = tmp_path / "procs.json"
    procedures.write_text(json.dumps([{"kind": "nonrandomized", "map": [0]}]))
    return [str(problem), "--procedures", str(procedures)]


def test_finite_classify_loads_no_families_or_admissibility(finite_argv):
    argv = ["finite", "classify", *finite_argv]
    loaded = modules_loaded_by(f"from lcbayes.cli import main\nassert main({argv!r}) == 0")
    assert {"lcbayes.decision", "lcbayes.priors", "lcbayes.ratlp"} <= loaded
    assert not {"lcbayes.families", "lcbayes.admissibility"} & loaded
    assert not (RECORD_MACHINERY | ARGUMENT_PARSING) & loaded


def test_finite_synthesize_prior_loads_no_record_machinery(finite_argv):
    argv = ["finite", "synthesize-prior", *finite_argv, "--procedure", "0"]
    loaded = modules_loaded_by(f"from lcbayes.cli import main\nassert main({argv!r}) == 0")
    assert "lcbayes.priors" in loaded
    assert not (RECORD_MACHINERY | ARGUMENT_PARSING) & loaded


@pytest.mark.parametrize("example", ["normal-location", "bernoulli-boundary"])
def test_example_loads_no_prior_game_or_solver(example):
    loaded = modules_loaded_by("from lcbayes.cli import main\n"
                               f"assert main(['example', {example!r}, '--order', '4']) == 0")
    assert {"lcbayes.families", "lcbayes.decision"} <= loaded
    assert not {"lcbayes.priors", "lcbayes.ratlp", "lcbayes.admissibility"} & loaded
    assert not (RECORD_MACHINERY | ARGUMENT_PARSING) & loaded


def test_every_public_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"lcbayes.{module}")
        for name in names:
            assert getattr(lcbayes, name) is getattr(home, name), name


def test_all_lists_exactly_the_public_names():
    public = [name for names in PUBLIC.values() for name in names]
    assert len(public) == 46
    assert sorted(lcbayes.__all__) == sorted(public)
    namespace = {}
    exec("from lcbayes import *", namespace)
    assert {name: namespace[name] for name in public} == {
        name: getattr(lcbayes, name) for name in public}


def test_admissibility_holds_only_the_tracers_two_readers():
    # bench/tracing.py spans these two names in lcbayes.admissibility
    import lcbayes.admissibility as shim
    import lcbayes.priors
    own = {name for name in vars(shim) if not name.startswith("__")}
    assert own == {"check_admissible", "max_uniform_improvement"}
    assert shim.check_admissible is lcbayes.priors.check_admissible
    assert shim.max_uniform_improvement is lcbayes.priors.max_uniform_improvement


def test_a_submodule_loads_on_first_access():
    loaded = modules_loaded_by("import lcbayes\nassert lcbayes.priors.classify is lcbayes.classify")
    assert {"lcbayes.priors", "lcbayes.decision"} <= loaded
    assert "lcbayes.families" not in loaded


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'classify_all'"):
        lcbayes.classify_all
