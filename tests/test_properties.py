"""Property tests: deserialize and parse_eval_kind on arbitrary input, the
canonical JSON round trip on random valid enumerators, and the canonical
reader against the json.loads reader on canonical and mutated documents."""

import json
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from rscwe import CodeSpec, CwePolynomial, ParseError, RscweError, build_field, deserialize, serialize
from rscwe.cli import parse_eval_kind
from rscwe.cwe import _read_canonical, _read_json

# the same examples on every run and no example database, so the suite stays
# reproducible and quick
EXAMPLES = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# Hypothesis's pytest plugin imports this module to report a failing example;
# with libcst installed the import warns (mypy_extensions.TypedDict), which
# -W error turns into an INTERNALERROR that hides the example.  Loaded here,
# that one warning ignored, the failure prints as any other.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: the plugin skips the report
        pass

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
def enumerators(draw, length_ten=False):
    """A code over a field of q <= 9 and a valid term map of its shape; with
    length_ten, the extended code on all of GF(9), whose exponents reach 10."""
    p, m = (3, 2) if length_ten else draw(st.sampled_from(FIELDS))
    ctx = build_field(p, m)
    q = ctx.q
    if length_ten:
        spec = CodeSpec(ctx, draw(st.integers(1, q)), tuple(range(q)), True)
    else:
        alpha = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True))
        spec = CodeSpec(ctx, draw(st.integers(1, len(alpha))), tuple(alpha), draw(st.booleans()))

    def composition(cuts):
        # q - 1 cuts of 0..length make q exponents that sum to the length
        bounds = [0, *sorted(cuts), spec.length]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    cuts = st.lists(st.integers(0, spec.length), min_size=q - 1, max_size=q - 1)
    terms = draw(st.dictionaries(cuts.map(composition), st.integers(1, 10**30), max_size=12))
    return spec, CwePolynomial(q, spec.length, terms)


ENUMERATORS = enumerators() | enumerators(length_ten=True)


@EXAMPLES
@given(ENUMERATORS)
def test_serialize_round_trip(case):
    spec, cwe = case
    text = serialize(spec, cwe)
    spec_back, cwe_back = deserialize(text)
    assert (spec_back.ctx.p, spec_back.ctx.m) == (spec.ctx.p, spec.ctx.m)
    assert (spec_back.k, spec_back.alpha, spec_back.extended) == (spec.k, spec.alpha, spec.extended)
    assert cwe_back == cwe
    assert serialize(spec_back, cwe_back) == text


@EXAMPLES
@given(ENUMERATORS)
def test_canonical_reader_agrees_with_json(case):
    spec, cwe = case
    text = serialize(spec, cwe)
    fast = _read_canonical(text)
    if not len(cwe):  # no term: left to the json reader
        assert fast is None
        return
    slow = _read_json(text)
    assert fast[1] == slow[1] == cwe
    assert serialize(*fast) == serialize(*slow) == text


def _swap_terms(doc, i):
    terms = doc["terms"]
    i %= len(terms)
    terms[i - 1], terms[i] = terms[i], terms[i - 1]


def _repeat_term(doc, i):
    doc["terms"].insert(i % len(doc["terms"]), doc["terms"][i % len(doc["terms"])])


def _true_exponent(doc, i):
    term = doc["terms"][i % len(doc["terms"])]
    term["e"][i % len(term["e"])] = True


def _dump(doc, spaced=False):
    separators = (", ", ": ") if spaced else (",", ":")
    return json.dumps(doc, sort_keys=True, separators=separators)


def _swap_separator(text, i):
    """The first separator between two terms, or else within one, that
    starts at or after index i, written as the other."""
    for old, new in ((']},{"c":', ',"e":['), (',"e":[', ']},{"c":')):
        j = text.find(old, i)
        if j >= 0:
            return text[:j] + new + text[j + len(old):]
    return text


def _leading_zero(text, i):
    """A zero before the first number that starts at or after index i."""
    match = re.compile(r"(?<![0-9])[0-9]").search(text, i)
    return text if match is None else text[:match.start()] + "0" + text[match.start():]


# (name, edit): of the parsed document, or of the canonical text at index i
DOCUMENT_EDITS = [
    ("reorder", _swap_terms),
    ("duplicate", _repeat_term),
    ("true exponent", _true_exponent),
]
TEXT_EDITS = [
    ("whitespace", lambda text, i: text[:i] + " " + text[i:]),
    ("newline", lambda text, i: text[:i] + "\n" + text[i:]),
    ("leading zero", _leading_zero),
    ("delete", lambda text, i: text[:i] + text[i + 1:]),
    ("digit", lambda text, i: text[:i] + "1" + text[i + 1:]),
    ("comma", lambda text, i: text[:i] + "," + text[i + 1:]),
    ("separator", _swap_separator),
    ("spaced", lambda text, i: _dump(json.loads(text), spaced=True)),
]


def _outcome(read, text):
    try:
        spec, cwe = read(text)
    except ParseError as exc:
        return "ParseError", exc.path
    return "accepted", serialize(spec, cwe)


@EXAMPLES
@given(
    ENUMERATORS.filter(lambda case: len(case[1])),
    st.sampled_from(DOCUMENT_EDITS + TEXT_EDITS),
    st.integers(0, 10**6),
)
def test_readers_agree_on_mutated_documents(case, edit, index):
    spec, cwe = case
    text = serialize(spec, cwe)
    name, change = edit
    if edit in DOCUMENT_EDITS:
        doc = json.loads(text)
        change(doc, index)
        mutated = _dump(doc)
    else:
        mutated = change(text, index % len(text))
    _assert_readers_agree(mutated)


def _assert_readers_agree(text):
    # deserialize tries the canonical reader first, _read_json never does
    assert _outcome(deserialize, text) == _outcome(_read_json, text)
    fast = _read_canonical(text)
    if fast is not None:  # it only accepts what serialize writes
        assert serialize(*fast) == text


GF3, GF9 = build_field(3, 1), build_field(3, 2)
SMALL_DOCUMENTS = {
    "one-digit exponents": (CodeSpec(GF3, 2, (0, 1, 2), True), {
        (4, 0, 0): 1, (2, 1, 1): 6, (1, 2, 1): 6, (0, 0, 4): 1, (1, 1, 2): 6,
    }),
    "exponent 10, long coefficients": (CodeSpec(GF9, 1, tuple(range(9)), True), {
        (10, 0, 0, 0, 0, 0, 0, 0, 0): 10**20, (1, 1, 1, 1, 1, 1, 1, 1, 2): 7,
        (0, 0, 0, 0, 0, 0, 0, 0, 10): 100, (0, 2, 0, 1, 0, 1, 0, 1, 5): 1,
    }),
}


@pytest.mark.parametrize("name", SMALL_DOCUMENTS)
def test_readers_agree_on_every_single_edit(name):
    # each text edit at every index of two small canonical documents
    spec, terms = SMALL_DOCUMENTS[name]
    text = serialize(spec, CwePolynomial(spec.ctx.q, spec.length, terms))
    assert _read_canonical(text) is not None
    for _, change in TEXT_EDITS:
        for i in range(len(text)):
            _assert_readers_agree(change(text, i))


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
