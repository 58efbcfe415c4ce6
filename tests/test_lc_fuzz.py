"""Hypothesis fuzzer over the ``lc eval`` expression grammar.

Every input, well formed or not, must end with a documented exit code
(0, 2 or 4), raise nothing out of ``main``, and on failure write exactly
one ``error:`` line to stderr.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as hst

from lcbayes.cli import main

literals = hst.integers(min_value=0, max_value=99).map(str)
eps_powers = hst.builds(lambda p, q: f"eps^({p}/{q})",
                        hst.integers(min_value=-64, max_value=64),
                        hst.integers(min_value=1, max_value=64))
atoms = hst.one_of(literals, hst.just("eps"), eps_powers)


def _compound(inner):
    return hst.one_of(
        hst.builds(lambda a, op, b: f"{a} {op} {b}", inner, hst.sampled_from("+-*/"), inner),
        inner.map(lambda a: f"({a})"),
        inner.map(lambda a: f"-({a})"),
        hst.builds(lambda a, k: f"({a})^{k}", inner, hst.integers(min_value=-3, max_value=3)),
    )


expressions = hst.recursive(atoms, _compound, max_leaves=10)
# near misses built from the grammar's own characters, and arbitrary text
garbage = hst.one_of(hst.text(alphabet="eps0123456789+-*/^() ", max_size=24),
                     hst.text(max_size=24))
orders = hst.integers(min_value=1, max_value=16)
formats = hst.sampled_from(("json", "text"))


def check(expr: str, order: int, fmt: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lc", "eval", expr, "--order", str(order), "--format", fmt])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 4), (expr, order, code, err)
    if code:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, (expr, err)
    else:
        assert err == "" and "value" in out


@settings(max_examples=300, deadline=2000)
@given(expressions, orders, formats)
def test_grammar_expressions_end_cleanly(expr, order, fmt):
    check(expr, order, fmt)


@settings(max_examples=200, deadline=2000)
@given(garbage, orders, formats)
def test_garbage_ends_cleanly(expr, order, fmt):
    check(expr, order, fmt)
