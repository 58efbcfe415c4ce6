"""The span tracer of the benchmark harness still finds what it measures.

``bench/tracing.py`` rebinds the package functions it spans by name; a
renamed function or a moved LP would make its per-layer figures read 0.
"""

import importlib
import sys
from pathlib import Path

import lcbayes.priors
from lcbayes.decision import FiniteProblem, Procedure

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_attributes_classify_lps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    tracing = importlib.import_module("tracing")
    # epsilon* = 0 but dominated by always-a1: the floored game LP alone
    flat = FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                               model=[[1], [1]], loss=[[0, 0], [0, 1]])
    # epsilon* = 1: always-a1 is better by 1 everywhere, the game LP alone
    costly = FiniteProblem.build(["t1", "t2"], ["x1"], ["a1", "a2"],
                                 model=[[1], [1]], loss=[[0, 1], [1, 2]])
    always_a2 = Procedure.nonrandomized([1])
    with tracing.Tracer() as tracer:
        # through the module, whose attribute the tracer rebinds
        reports = [lcbayes.priors.classify(flat, always_a2),
                   lcbayes.priors.classify(costly, always_a2)]
    assert [(r.admissible, r.epsilon_star) for r in reports] == [(False, 0), (False, 1)]
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
    assert metrics["priors.classify.calls"] == 2
    # classify reads its verdict through the module global the tracer rebinds
    assert metrics["admissibility.check_admissible.calls"] == metrics["priors.classify.calls"]
    # and re-checks the witness prior by the separable minimum
    assert metrics["priors.verify_epsilon_bayes.ms"] > 0
    assert metrics["priors.lps_per_verdict"] == 1.0
    assert metrics["ratlp.solve_lp.game.self_ms"] > 0
    assert metrics["ratlp.solve_lp.admissibility.self_ms"] == 0
