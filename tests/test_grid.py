"""Brute force against the closed forms on every field with 49 < q <= 256,
and on GF(512), k = 3, full field, past the default budget.

The grid tests are marked `grid`, which the default run deselects; run them
with `pytest -m grid` (about five minutes on one core).  Each field
gets k = 2 and 3, on the full field and on the field minus the point 1, plain
and extended, wherever both the closed form's output bound and the q^k
codewords fit the default budget.
"""

import pytest

from rscwe import CodeSpec, build_field, cwe_bruteforce, cwe_equal, make_eval_set
from rscwe.codes import DEFAULT_ENUM_BUDGET as BUDGET
from rscwe.cwe import closed_form
from rscwe.gf import is_prime

FIELDS = [
    (p, m)
    for p in range(2, 257)
    if is_prime(p)
    for m in range(1, 9)
    if 49 < p**m <= 256
]

# (name, kind, beta): the full field, and the field minus the point 1
EVAL_SETS = [("full", "full", None), ("punctured:1", "punctured", 1)]


def _specs():
    """Every grid spec that fits the budget, with its test id."""
    for p, m in FIELDS:
        ctx = build_field(p, m)
        for k in (2, 3):
            if ctx.q**k > BUDGET:
                continue
            for name, kind, beta in EVAL_SETS:
                alpha = make_eval_set(ctx, kind, beta=beta)
                for extended in (False, True):
                    spec = CodeSpec(ctx, k, alpha, extended)
                    if closed_form(spec)[1] <= BUDGET:
                        label = "extended" if extended else "plain"
                        yield f"GF({ctx.q}) k={k} {name} {label}", spec


SPECS = dict(_specs())


def test_grid_size():
    # 47 fields x 8 specs, less those over the budget; a change to the
    # bounds or the field list must not shrink the grid silently
    assert len(FIELDS) == 47
    assert len(SPECS) == 334


@pytest.mark.grid
@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_bruteforce_matches_closed_form(spec):
    build, _ = closed_form(spec)
    assert cwe_equal(cwe_bruteforce(spec), build()) == (True, None)


@pytest.mark.grid
def test_bruteforce_matches_closed_form_past_the_budget():
    # 2^27 codewords, of which brute force encodes 514
    ctx = build_field(2, 9)
    spec = CodeSpec(ctx, 3, make_eval_set(ctx, "full"))
    build, _ = closed_form(spec)
    assert cwe_equal(cwe_bruteforce(spec, budget=spec.size), build()) == (True, None)
