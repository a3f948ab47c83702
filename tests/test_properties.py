"""Property tests: deserialize and parse_eval_kind on arbitrary input, and
the canonical JSON round trip on random valid enumerators."""

import json

from hypothesis import given, settings, strategies as st

from rscwe import CodeSpec, CwePolynomial, ParseError, RscweError, build_field, deserialize, serialize
from rscwe.cli import parse_eval_kind

# the same examples on every run and no example database, so the suite stays
# reproducible and quick
EXAMPLES = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# JSON's syntax, the letters of its literals, digits in two scripts, and a
# line separator, a lone surrogate and a NUL; a fixed alphabet also spares
# building the table of every Unicode character on each fresh checkout
TEXT = st.text(alphabet='{}[]",:.+-eE0123456789\u0663 \n\\truefalsnIiyNacpdo_\u2028\ud800\x00')

FROZEN_GF2 = {
    "alpha": [0, 1], "extended": False, "k": 2, "m": 1, "n": 2, "p": 2,
    "terms": [{"c": 1, "e": [0, 2]}, {"c": 2, "e": [1, 1]}, {"c": 1, "e": [2, 0]}],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)

# a frozen document with some keys replaced by arbitrary JSON, and terms
# whose entries are arbitrary or small integers
TERMS = st.lists(
    st.fixed_dictionaries({
        "c": st.integers(-2, 3) | JSON_VALUES,
        "e": st.lists(st.integers(-1, 3), max_size=4) | JSON_VALUES,
    }),
    max_size=4,
)
DOCUMENTS = st.builds(
    lambda overrides, terms: json.dumps({**FROZEN_GF2, "terms": terms, **overrides}),
    st.dictionaries(st.sampled_from(sorted(FROZEN_GF2)), JSON_VALUES, max_size=2),
    TERMS,
)


@EXAMPLES
@given(TEXT | DOCUMENTS)
def test_deserialize_refuses_with_parse_error_only(text):
    try:
        spec, cwe = deserialize(text)
    except ParseError:
        return
    # whatever it accepts is an enumerator of the code it names
    assert json.loads(serialize(spec, cwe))["n"] == spec.length


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@st.composite
def enumerators(draw):
    """A code over a field of q <= 9 and a valid term map of its shape."""
    p, m = draw(st.sampled_from(FIELDS))
    ctx = build_field(p, m)
    q = ctx.q
    alpha = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True))
    spec = CodeSpec(ctx, draw(st.integers(1, len(alpha))), tuple(alpha), draw(st.booleans()))

    def composition(cuts):
        # q - 1 cuts of 0..length make q exponents that sum to the length
        bounds = [0, *sorted(cuts), spec.length]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    cuts = st.lists(st.integers(0, spec.length), min_size=q - 1, max_size=q - 1)
    terms = draw(st.dictionaries(cuts.map(composition), st.integers(1, 10**30), max_size=12))
    return spec, CwePolynomial(q, spec.length, terms)


@EXAMPLES
@given(enumerators())
def test_serialize_round_trip(case):
    spec, cwe = case
    text = serialize(spec, cwe)
    spec_back, cwe_back = deserialize(text)
    assert (spec_back.ctx.p, spec_back.ctx.m) == (spec.ctx.p, spec.ctx.m)
    assert (spec_back.k, spec_back.alpha, spec_back.extended) == (spec.k, spec.alpha, spec.extended)
    assert cwe_back == cwe
    assert serialize(spec_back, cwe_back) == text


@EXAMPLES
@given(TEXT | st.sampled_from(["full", "punctured:", "custom:"]).flatmap(
    lambda prefix: TEXT.map(prefix.__add__)
))
def test_parse_eval_kind_returns_a_triple_or_refuses(text):
    try:
        result = parse_eval_kind(text)
    except RscweError:
        return
    kind, beta, points = result
    assert kind in ("full", "primitive", "standard", "punctured", "custom")
    assert beta is None or type(beta) is int
    assert points is None or all(type(x) is int for x in points)
