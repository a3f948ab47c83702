"""Frozen output of every closed form on every field with q <= 32.

Each case is the SHA-256 of serialize(spec, cwe_formula(spec)), stored in
frozen_digests.json next to this module.  A change to the closed-form
machinery that is meant to keep its output must leave every digest alone.

Regenerate only for a deliberate, declared change of output:

    PYTHONPATH=src python tests/test_frozen_digests.py > tests/frozen_digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from rscwe import CodeSpec, build_field, cwe_formula, make_eval_set, serialize
from rscwe.gf import is_prime
from test_cwe import STABILIZED_SETS

DIGESTS = Path(__file__).with_name("frozen_digests.json")

FIELDS = [
    (p, m)
    for p in range(2, 33)
    if is_prime(p)
    for m in range(1, 6)
    if p**m <= 32
]


def cases(p, m):
    """(label, spec) of every frozen case over GF(p^m): k=2 on the full field
    and on the stabilized sets, k=3 on the full and a punctured field, each
    plain and extended."""
    ctx = build_field(p, m)
    q = ctx.q
    full = make_eval_set(ctx, "full")
    shapes = [(2, "full", full)]
    shapes += [(2, ",".join(map(str, s)), s) for s in STABILIZED_SETS.get((p, m), [])]
    if q >= 3:
        shapes.append((3, "full", full))
    if q >= 4:
        shapes.append((3, "punctured:1", make_eval_set(ctx, "punctured", beta=1)))
    for k, name, alpha in shapes:
        for extended in (False, True):
            label = f"p={p} m={m} k={k} eval={name} extended={extended}"
            yield label, CodeSpec(ctx, k, alpha, extended)


def digest(spec):
    return hashlib.sha256(serialize(spec, cwe_formula(spec)).encode()).hexdigest()


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("p,m", FIELDS)
def test_closed_forms_match_frozen_digests(frozen, p, m):
    for label, spec in cases(p, m):
        assert digest(spec) == frozen[label], label


def test_every_frozen_digest_is_a_case(frozen):
    labels = {label for p, m in FIELDS for label, _ in cases(p, m)}
    assert labels == set(frozen)


if __name__ == "__main__":
    table = {label: digest(spec) for p, m in FIELDS for label, spec in cases(p, m)}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
