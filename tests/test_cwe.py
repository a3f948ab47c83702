"""Complete weight enumerators: brute force vs closed forms, JSON, rendering."""

import json
import random
import struct
import tracemalloc
from collections import Counter
from functools import partial
from itertools import product
from operator import itemgetter
from zlib import adler32

import pytest

from rscwe import (
    CodeSpec,
    CwePolynomial,
    ParameterOutOfRangeError,
    ParseError,
    ShapeMismatchError,
    SizeLimitError,
    build_field,
    cwe_bruteforce,
    cwe_equal,
    cwe_formula,
    cwe_k3_fullfield,
    cwe_k3_punctured,
    cwe_rs2,
    deserialize,
    enumerate_codewords,
    make_eval_set,
    render_terms,
    serialize,
    weight_distribution,
)
from rscwe.cwe import _chunks, _lane_steps, _layout, _read_canonical, _read_json, _translates
from rscwe.gf import is_prime

GF2 = build_field(2, 1)
GF3 = build_field(3, 1)
GF4 = build_field(2, 2)
GF5 = build_field(5, 1)


def brute(ctx, k, alpha, extended=False):
    return cwe_bruteforce(CodeSpec(ctx, k, alpha, extended))


class TestBruteForce:
    def test_frozen_gf2_rs(self):
        cwe = brute(GF2, 2, (0, 1))
        assert cwe.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        assert cwe.mass() == 4

    def test_frozen_gf2_ers(self):
        cwe = brute(GF2, 2, (0, 1), extended=True)
        assert cwe.terms == {(3, 0): 1, (1, 2): 3}

    def test_frozen_gf3_k1(self):
        cwe = brute(GF3, 1, (0, 1, 2))
        assert cwe.terms == {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}

    def test_mass_is_code_size(self):
        for extended in (False, True):
            cwe = brute(GF5, 3, (0, 2, 3, 4), extended=extended)
            assert cwe.mass() == 125
            assert cwe.n == (5 if extended else 4)


def literal_tally(spec):
    """The definition of the enumerator: one composition per codeword."""
    q = spec.ctx.q
    words = enumerate_codewords(spec, budget=spec.size)
    return dict(Counter(tuple(map(word.count, range(q))) for word in words))


class TestBruteForceIsTheDefinition:
    """The translate-tally oracle against a literal per-codeword tally."""

    FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]

    @pytest.mark.parametrize("p,m", FIELDS)
    def test_every_set_dimension_and_extension(self, p, m):
        ctx = build_field(p, m)
        q = ctx.q
        rng = random.Random(500 + q)
        sets = [
            make_eval_set(ctx, "full"),
            make_eval_set(ctx, "punctured", beta=rng.randrange(q)),
            make_eval_set(ctx, "primitive"),
            tuple(rng.sample(range(q), rng.randint(1, q))),
        ]
        for k in (1, 2, 3):
            for alpha in sets:
                if len(alpha) < k:
                    continue
                for extended in (False, True):
                    spec = CodeSpec(ctx, k, alpha, extended)
                    got = cwe_bruteforce(spec)
                    assert got.n == spec.length
                    assert got.terms == literal_tally(spec), (k, alpha, extended)

    @pytest.mark.parametrize(
        "p,m,w",
        [(p, m, w) for p, m in [(5, 1), (2, 3), (3, 2), (3, 3)] for w in (8, 16)] + [(2, 8, 16)],
    )
    def test_lane_steps_match_the_definition(self, p, m, w):
        # _expand walks translates by these steps; the oracle sums over every
        # g, so no enumerator tells the translate by g from the one by -g,
        # and the direction is pinned here: each digit d of g is d steps
        ctx = build_field(p, m)
        q, size = ctx.q, w // 8
        e = [(257 * r + 1) % (1 << w) for r in range(q)]  # distinct, both bytes used at w = 16

        def lanes(x):
            raw = x.to_bytes(q * size, "big")
            return [int.from_bytes(raw[i:i + size], "big") for i in range(0, len(raw), size)]

        start = int.from_bytes(b"".join(v.to_bytes(size, "big") for v in e), "big")
        steps = _lane_steps(p, m, w)
        assert len(steps) == m
        for g in range(q):
            x = start
            for j, (low, high, up, down) in enumerate(steps):
                for _ in range(g // p**j % p):
                    x = ((x & low) << up) | ((x & high) >> down)
            assert lanes(x) == [e[ctx.sub(r, g)] for r in range(q)], g


class TestBruteForceBudget:
    def test_refused_before_encoding(self, monkeypatch):
        from rscwe import codes

        ctx = build_field(3, 2)
        spec = CodeSpec(ctx, 3, make_eval_set(ctx, "full"))

        def unreachable(spec):
            raise AssertionError("the encoder was reached")

        monkeypatch.setattr(codes, "_encoder", unreachable)
        # the patch is live: a request within budget reaches the encoder
        with pytest.raises(AssertionError, match="encoder was reached"):
            cwe_bruteforce(spec, budget=729)
        with pytest.raises(SizeLimitError) as info:
            cwe_bruteforce(spec, budget=728)
        assert str(info.value) == (
            "enumeration of q^k = 729 codewords exceeds the budget 728"
        )
        assert info.value.budget == 728
        monkeypatch.undo()
        assert cwe_bruteforce(spec, budget=729).mass() == 729


# evaluation sets A with a nontrivial translation stabilizer {h : A + h = A},
# by (p, m); random sets almost never have one, so they hide multiplicity bugs.
# The last set of each field is a subgroup that no digit unit p^j lies in, so
# the translate walk meets its stabilizer only after the digits that span it
STABILIZED_SETS = {
    (2, 2): [(0, 3)],
    # the prime subfield of GF(9)
    (3, 2): [(0, 1, 2), (0, 4, 8)],
    # the additive subgroup {0, 1, 2, 3} of GF(16), and two of its cosets
    (2, 4): [(0, 1, 2, 3), (0, 1, 2, 3, 8, 9, 10, 11), (0, 5, 10, 15)],
    # a GF(3)-subspace of GF(27)
    (3, 3): [tuple(range(9)), (0, 13, 26)],
}


class TestDimensionTwoClosedForm:
    FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3), (11, 1), (2, 4), (3, 3)]

    @pytest.mark.parametrize("p,m", FIELDS)
    def test_matches_brute_force_named_sets(self, p, m):
        ctx = build_field(p, m)
        sets = [make_eval_set(ctx, "full")]
        if ctx.q >= 3:
            sets.append(make_eval_set(ctx, "primitive"))
            sets.append(make_eval_set(ctx, "punctured", beta=ctx.q - 1))
        sets += STABILIZED_SETS.get((p, m), [])
        for alpha in sets:
            for extended in (False, True):
                left = cwe_rs2(ctx, alpha, extended)
                right = brute(ctx, 2, alpha, extended)
                assert cwe_equal(left, right) == (True, None)

    @pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1), (13, 1), (3, 2)])
    def test_matches_brute_force_random_sets(self, p, m):
        ctx = build_field(p, m)
        rng = random.Random(100 + ctx.q)
        for _ in range(8):
            n = rng.randint(2, ctx.q)
            alpha = tuple(rng.sample(range(ctx.q), n))
            for extended in (False, True):
                left = cwe_rs2(ctx, alpha, extended)
                right = brute(ctx, 2, alpha, extended)
                assert cwe_equal(left, right) == (True, None)

    def test_invariant_under_point_order(self):
        assert cwe_rs2(GF5, (0, 1, 2, 3)) == cwe_rs2(GF5, (3, 1, 0, 2))

    def test_constant_block(self):
        # each constant message lands on w_rho^n with coefficient 1
        cwe = cwe_rs2(GF5, (0, 1, 2))
        for rho in range(5):
            exps = [0] * 5
            exps[rho] = 3
            assert cwe.terms[tuple(exps)] == 1

    def test_too_few_points(self):
        with pytest.raises(ParameterOutOfRangeError):
            cwe_rs2(GF5, (0,))


class TestDimensionThreeClosedForms:
    @pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    def test_full_field_matches_brute_force(self, p, m):
        ctx = build_field(p, m)
        alpha = make_eval_set(ctx, "full")
        for extended in (False, True):
            left = cwe_k3_fullfield(ctx, extended)
            right = brute(ctx, 3, alpha, extended)
            assert cwe_equal(left, right) == (True, None)
            assert left.mass() == ctx.q**3

    @pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    def test_punctured_matches_brute_force(self, p, m):
        ctx = build_field(p, m)
        for beta in (0, 1, ctx.q - 1):
            alpha = make_eval_set(ctx, "punctured", beta=beta)
            for extended in (False, True):
                left = cwe_k3_punctured(ctx, beta, extended)
                right = brute(ctx, 3, alpha, extended)
                assert cwe_equal(left, right) == (True, None)

    def test_punctured_is_beta_independent(self):
        reference = cwe_k3_punctured(GF5, 0)
        for beta in range(1, 5):
            assert cwe_k3_punctured(GF5, beta) == reference

    def test_punctured_interior_point_extended(self):
        ctx = build_field(7, 1)
        left = cwe_k3_punctured(ctx, 3, extended=True)
        right = brute(ctx, 3, make_eval_set(ctx, "punctured", beta=3), extended=True)
        assert cwe_equal(left, right) == (True, None)

    def test_small_fields_rejected(self):
        with pytest.raises(ParameterOutOfRangeError):
            cwe_k3_fullfield(GF2)
        with pytest.raises(ParameterOutOfRangeError):
            cwe_k3_punctured(GF3, 0)
        with pytest.raises(ParameterOutOfRangeError):
            cwe_k3_punctured(GF5, 9)


class TestWeightDistribution:
    def test_frozen_gf2(self):
        assert weight_distribution(brute(GF2, 2, (0, 1))) == [1, 2, 1]

    @pytest.mark.parametrize(
        "ctx,k,alpha,extended",
        [
            (GF4, 2, (0, 1, 2, 3), False),
            (GF5, 3, (0, 1, 2, 3, 4), True),
            (GF3, 2, (0, 2), False),
        ],
    )
    def test_matches_direct_tally(self, ctx, k, alpha, extended):
        from rscwe import enumerate_codewords

        spec = CodeSpec(ctx, k, alpha, extended)
        direct = [0] * (spec.length + 1)
        for word in enumerate_codewords(spec):
            direct[sum(1 for x in word if x != 0)] += 1
        dist = weight_distribution(cwe_bruteforce(spec))
        assert dist == direct
        assert dist[0] == 1
        assert sum(dist) == spec.size
        # MDS: nothing strictly between weight 0 and length - k + 1
        assert all(v == 0 for v in dist[1 : spec.length - k + 1])


class TestCweEqual:
    def test_equal(self):
        a = brute(GF3, 2, (0, 1, 2))
        b = cwe_rs2(GF3, (0, 1, 2))
        assert cwe_equal(a, b) == (True, None)

    def test_mismatch_located(self):
        a = CwePolynomial(2, 2, {(2, 0): 1, (1, 1): 2})
        b = CwePolynomial(2, 2, {(2, 0): 1, (1, 1) : 1, (0, 2): 1})
        same, where = cwe_equal(a, b)
        assert not same
        assert where == ((0, 2), 0, 1)  # smallest differing vector first

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            cwe_equal(CwePolynomial(2, 2), CwePolynomial(2, 3))
        with pytest.raises(ShapeMismatchError):
            cwe_equal(CwePolynomial(2, 2), CwePolynomial(3, 2))


class TestCwePolynomialValidation:
    def test_bad_shape(self):
        for q, n in ((0, 2), (2, -1), (2.5, 2), (True, 0), (2, False), ("2", 2), (2, 65536)):
            with pytest.raises(ParameterOutOfRangeError):
                CwePolynomial(q, n)

    def test_longest_code_length(self):
        # a two-byte lane holds 65,535 at most
        terms = {(65535, 0): 1, (1, 65534): 2}
        cwe = CwePolynomial(2, 65535, terms)
        assert cwe.terms == terms and cwe.sorted_terms() == sorted(terms.items())

    def test_bad_terms(self):
        for terms in (
            {(1, 1, 0): 1},  # wrong length
            {(3, -1): 1},  # negative exponent
            {(1, 0): 1},  # wrong degree
            {(1, 1): 0},  # zero coefficient
            {(1, 1): True},  # bool coefficient
            {(True, True): 1},  # bool exponents, although they sum to 2
            {b"\x01\x01": 1},  # not a tuple, although its entries are valid
            {(2, 0): 1, (1, 1): 2.0},  # one bad term among good ones
        ):
            with pytest.raises(ParameterOutOfRangeError):
                CwePolynomial(2, 2, terms)

    INVALID_MAPS = {
        "bool": {(1, 1, 0): 2, (0, True, True): 3, (False, 2, 0): True},
        "negative": {(1, 1, 0): 2, (3, -1, 0): 1},
        "float": {(1, 1, 0): 2, (0, 1.5, 0.5): 1, (2.0, 0, 0): 2.5},
        "length": {(1, 1, 0): 2, (1, 1): 4, (0, 0, 1, 1): 5},
    }

    @pytest.mark.parametrize("kind", INVALID_MAPS)
    @pytest.mark.parametrize("q", [3, 257])
    def test_invalid_map_refused(self, q, kind):
        # each map at q = 3, n = 2, and widened by zeros to q = n = 257,
        # where an exponent no longer fits in a byte
        pad = (0,) * (q - 3)
        terms = {e + pad: c for e, c in self.INVALID_MAPS[kind].items()}
        with pytest.raises(ParameterOutOfRangeError):
            CwePolynomial(q, 2 if q == 3 else q, terms)

    def test_terms_read_only(self):
        source = {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        cwe = CwePolynomial(2, 2, source)
        source[(1, 1)] = 5  # the constructor copied the map
        with pytest.raises(TypeError):
            cwe.terms[(1, 1)] = 5
        with pytest.raises(AttributeError):  # a mapping proxy has no update
            cwe.terms.update({(1, 1): 5})
        with pytest.raises(TypeError):
            dict.update(cwe.terms, {(1, 1): 5})
        with pytest.raises(TypeError):
            del cwe.terms[(1, 1)]
        with pytest.raises(AttributeError):
            cwe.terms = {(1, 1): 5}
        assert cwe.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_shape_read_only(self):
        # a shape set after the terms were checked would let serialize write
        # a document that deserialize refuses
        cwe = brute(GF2, 2, (0, 1))
        for name, value in (("q", 3), ("n", 3), ("_terms", {}), ("terms", {})):
            with pytest.raises(AttributeError):
                setattr(cwe, name, value)
            with pytest.raises(AttributeError):
                delattr(cwe, name)
        assert (cwe.q, cwe.n, len(cwe)) == (2, 2, 3)

    def test_copy_and_pickle(self):
        import copy
        import pickle

        cwe = brute(GF5, 2, (0, 1, 3), extended=True)
        for clone in (copy.copy(cwe), copy.deepcopy(cwe), pickle.loads(pickle.dumps(cwe))):
            assert clone == cwe and clone.terms is not cwe.terms

    @pytest.mark.parametrize("two_byte", [False, True])
    def test_reduce_readmits_the_stored_map(self, two_byte):
        # what copy and pickle call, given a tampered stored map, refuses it
        if two_byte:
            cwe = CwePolynomial(3, 300, {(100, 100, 100): 1, (300, 0, 0): 2, (0, 1, 299): 3})
        else:
            cwe = brute(GF5, 2, (0, 1, 3), extended=True)
        build, (q, n, stored) = cwe.__reduce__()
        assert build(q, n, dict(stored)) == cwe
        layout = _layout(q, n)
        key = next(iter(stored))
        exps = layout.unpack(key)
        j = next(j for j, t in enumerate(exps) if t)
        light = layout.pack(*exps[:j], exps[j] - 1, *exps[j + 1:])  # lanes sum to n - 1
        for bad in ({light: 1}, {key + bytes(layout.size // q): 1}, {key: True}, {exps: 1}):
            with pytest.raises(ParameterOutOfRangeError):
                build(q, n, {**stored, **bad})


FROZEN_GF2_JSON = (
    '{"alpha":[0,1],"extended":false,"k":2,"m":1,"n":2,"p":2,'
    '"terms":[{"c":1,"e":[0,2]},{"c":2,"e":[1,1]},{"c":1,"e":[2,0]}]}'
)


class TestSerialization:
    def test_frozen_bytes(self):
        spec = CodeSpec(GF2, 2, (0, 1))
        assert serialize(spec, cwe_bruteforce(spec)) == FROZEN_GF2_JSON

    def test_deterministic_across_insertion_order(self):
        spec = CodeSpec(GF2, 2, (0, 1))
        a = CwePolynomial(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        b = CwePolynomial(2, 2, {(0, 2): 1, (1, 1): 2, (2, 0): 1})
        assert serialize(spec, a) == serialize(spec, b)

    def test_round_trip(self):
        for spec in (
            CodeSpec(GF5, 2, (3, 0, 4), extended=True),
            CodeSpec(GF4, 3, (0, 1, 2, 3)),
        ):
            cwe = cwe_bruteforce(spec)
            text = serialize(spec, cwe)
            spec2, cwe2 = deserialize(text)
            assert (spec2.ctx.p, spec2.ctx.m) == (spec.ctx.p, spec.ctx.m)
            assert (spec2.k, spec2.alpha, spec2.extended) == (
                spec.k,
                spec.alpha,
                spec.extended,
            )
            assert cwe2 == cwe
            assert (spec2, cwe2) == (spec, cwe)
            assert serialize(spec2, cwe2) == text

    def test_shape_mismatch_refused(self):
        spec = CodeSpec(GF2, 2, (0, 1))
        with pytest.raises(ShapeMismatchError):
            serialize(spec, CwePolynomial(2, 3))

    def test_terms_sorted_in_output(self):
        spec = CodeSpec(GF3, 2, (0, 1, 2))
        doc = json.loads(serialize(spec, cwe_bruteforce(spec)))
        vectors = [tuple(t["e"]) for t in doc["terms"]]
        assert vectors == sorted(vectors)

    def test_sorted_terms_in_any_insertion_order(self):
        # ascending (as deserialize leaves them), descending and shuffled
        spec = CodeSpec(GF5, 3, make_eval_set(GF5, "full"), True)
        items = sorted(cwe_k3_fullfield(GF5, True).terms.items())
        shuffled = items.copy()
        random.Random(5).shuffle(shuffled)
        for order in (items, items[::-1], shuffled):
            cwe = CwePolynomial(5, 6, dict(order))
            assert cwe.sorted_terms() == items
        assert deserialize(serialize(spec, cwe))[1].sorted_terms() == items


def reference_serialize(spec, cwe):
    """The canonical JSON writer as first written: one json.dumps call."""
    doc = {
        "p": spec.ctx.p,
        "m": spec.ctx.m,
        "k": spec.k,
        "n": cwe.n,
        "extended": spec.extended,
        "alpha": list(spec.alpha),
        "terms": [{"e": list(e), "c": c} for e, c in sorted(cwe.terms.items())],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def reference_render(cwe):
    """The text writer as first written: one f-string per factor."""
    lines = []
    for exps, coeff in sorted(cwe.terms.items()):
        factors = " ".join(f"w[{i}]^{t}" for i, t in enumerate(exps) if t)
        lines.append(f"{coeff} * {factors}")
    return lines


def builder_specs(ctx):
    """The code of every closed-form builder over ctx, plain and extended:
    k=2 on the full field, two random sets, the nonzero elements and the
    STABILIZED_SETS; k=3 on the full and a punctured field."""
    q = ctx.q
    rng = random.Random(q)
    sets = [
        make_eval_set(ctx, "full"),
        tuple(rng.sample(range(q), 2)),
        tuple(rng.sample(range(q), max(2, q // 2))),
    ]
    if q >= 3:
        sets.append(make_eval_set(ctx, "primitive"))
    sets += STABILIZED_SETS.get((ctx.p, ctx.m), [])
    beta = rng.randrange(q)
    for extended in (False, True):
        for alpha in sets:
            yield CodeSpec(ctx, 2, alpha, extended)
        if q >= 3:
            yield CodeSpec(ctx, 3, make_eval_set(ctx, "full"), extended)
        if q >= 4:
            yield CodeSpec(ctx, 3, make_eval_set(ctx, "punctured", beta=beta), extended)


def builder_outputs(ctx):
    """(spec, enumerator) of each of builder_specs(ctx), by its builder."""
    q = ctx.q
    for spec in builder_specs(ctx):
        if spec.k == 2:
            yield spec, cwe_rs2(ctx, spec.alpha, spec.extended)
        elif spec.n == q:
            yield spec, cwe_k3_fullfield(ctx, spec.extended)
        else:
            (beta,) = set(range(q)) - set(spec.alpha)
            yield spec, cwe_k3_punctured(ctx, beta, spec.extended)


def assert_writers_match_reference(spec, cwe):
    assert serialize(spec, cwe) == reference_serialize(spec, cwe)
    assert render_terms(cwe) == reference_render(cwe)


class TestWritersMatchReference:
    """serialize and render_terms write the bytes of their reference copies."""

    @pytest.mark.parametrize("p,m", TestBruteForceIsTheDefinition.FIELDS)
    def test_every_builder(self, p, m):
        for spec, cwe in builder_outputs(build_field(p, m)):
            assert_writers_match_reference(spec, cwe)

    @pytest.mark.parametrize(
        "p,m,k", [(2, 1, 1), (5, 1, 1), (13, 1, 1), (2, 2, 4), (5, 1, 4), (3, 2, 4)]
    )
    def test_brute_force(self, p, m, k):
        ctx = build_field(p, m)
        for extended in (False, True):
            spec = CodeSpec(ctx, k, make_eval_set(ctx, "full"), extended)
            assert_writers_match_reference(spec, cwe_bruteforce(spec))

    def test_exponents_past_a_byte(self):
        # n = 257: the constant terms have exponent 257, so terms are
        # compared as tuples and those vectors take the reference encoder
        ctx = build_field(257, 1)
        spec = CodeSpec(ctx, 2, make_eval_set(ctx, "full"))
        cwe = cwe_bruteforce(spec)
        assert max(map(max, cwe.terms)) == 257
        assert_writers_match_reference(spec, cwe)


def vector_of_kind(rng, q, n, index, kind):
    """A vector of q entries summing to n, ascending with index, which lanes
    0 and 1 hold as (index // 8, index % 8); one random lane more holds an
    entry past 255 (kind W) or past 9 (kind N), and the rest at most 9 a
    lane (D, a vector of digits)."""
    e = [0] * q
    e[0], e[1] = divmod(index, 8)
    lanes = list(range(2, q))
    rng.shuffle(lanes)
    rest = n - e[0] - e[1]
    if kind != "D":
        e[lanes.pop()] = rng.randint(256, rest) if kind == "W" else rng.randint(10, min(rest, 255))
    for j in range(n - sum(e)):
        e[lanes[j % len(lanes)]] += 1
    top = max(e)
    assert {"W": top > 255, "N": 9 < top < 256, "D": top < 10}[kind]
    return tuple(e)


class TestVectorsPastTheTemplate:
    """serialize writes a vector the digit template cannot hold (N: an
    exponent past 9; W: an entry past 255) through the encoder, at its
    place: in chunks of three vectors, such vectors come first, last, side
    by side and alone, and in two-byte lanes, W, N and digit vectors mix."""

    CASES = {
        "one-byte": (31, 1, False, "NDD" "DDN" "DNN" "NNN" "DND" "D"),
        "two-byte": (2, 9, True, "WDN" "DDW" "WWD" "WWW" "NNN" "DWN" "N"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_in_every_place_of_a_chunk(self, case, monkeypatch):
        p, m, extended, pattern = self.CASES[case]
        ctx = build_field(p, m)
        spec = CodeSpec(ctx, 2, make_eval_set(ctx, "full"), extended)
        q, n = ctx.q, spec.length
        rng = random.Random(q)
        exps = [vector_of_kind(rng, q, n, i, kind) for i, kind in enumerate(pattern)]
        coeffs = [rng.choice([1, 9, 10, rng.randrange(10**30)]) for _ in exps]
        cwe = CwePolynomial(q, n, dict(zip(exps, coeffs)))
        assert lane_bytes(cwe) == 1 + extended
        monkeypatch.setattr("rscwe.cwe._CHUNK", 3 * q)
        assert [len(chunk[1]) for chunk in _chunks(cwe)] == [3] * (len(exps) // 3) + [1]
        assert_writers_match_reference(spec, cwe)
        assert deserialize(serialize(spec, cwe))[1] == cwe


def test_serialize_holds_about_two_copies_of_its_output():
    # the chunks of the terms, then the document they are joined into, then
    # the document decoded: a term-by-term writer holds more than 3 copies
    ctx = build_field(3, 3)
    spec = CodeSpec(ctx, 3, make_eval_set(ctx, "punctured", beta=4), True)
    cwe = cwe_formula(spec)
    tracemalloc.start()
    try:
        text = serialize(spec, cwe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cwe) == 9572 and len(text) > 600_000
    assert peak < 2.5 * len(text)


GF256 = build_field(2, 8)


def lane_bytes(cwe):
    """The bytes per entry of the stored keys, which are bytes of q lanes
    each (one byte wide when n < 256, two otherwise)."""
    keys = cwe._terms
    assert {bytes}.issuperset(map(type, keys))
    (size,) = set(map(len, keys))
    assert size % cwe.q == 0
    return size // cwe.q


class TestStorageBoundary:
    """n = 255 is the longest code stored with one-byte lanes, n = 256 the
    shortest stored with two-byte lanes; both look the same from outside."""

    CASES = {
        # k = 1: q terms w_rho^n, so exponents 255 and 256 themselves
        "n=255": (CodeSpec(GF256, 1, make_eval_set(GF256, "primitive")), 1),
        "n=256": (CodeSpec(GF256, 1, make_eval_set(GF256, "primitive"), True), 2),
        "small n": (CodeSpec(GF256, 1, (0, 1, 2)), 1),
        "rs2 full field": (CodeSpec(GF256, 2, make_eval_set(GF256, "full")), 2),
    }

    @pytest.fixture(params=CASES, scope="class")
    def case(self, request):
        spec, stored = self.CASES[request.param]
        cwe = cwe_rs2(GF256, spec.alpha) if spec.k == 2 else cwe_bruteforce(spec)
        assert (cwe.n, lane_bytes(cwe)) == (spec.length, stored)
        return spec, cwe, stored

    def test_json_round_trip(self, case):
        spec, cwe, stored = case
        text = serialize(spec, cwe)
        assert text == reference_serialize(spec, cwe)
        for read in (deserialize, _read_canonical, _read_json):
            spec_back, cwe_back = read(text)
            assert cwe_back == cwe and lane_bytes(cwe_back) == stored
            assert serialize(spec_back, cwe_back) == text

    def test_terms_view(self, case):
        _, cwe, _ = case
        terms = cwe.terms
        items = sorted(terms.items())
        assert len(terms) == len(items) == len(cwe) == len(list(cwe))
        assert all(type(e) is tuple and len(e) == cwe.q and sum(e) == cwe.n for e in terms)
        assert items == sorted(zip(terms, terms.values())) == cwe.sorted_terms()
        assert dict(terms) == dict(items) and terms == dict(items)
        for e, c in items[:3]:
            assert e in terms and terms[e] == terms.get(e) == c
        e = items[0][0]
        for missing in ((0,) * cwe.q, e[:-1], e + (0,), bytes(cwe.q), (-1,) * cwe.q, 5, None):
            assert missing not in terms and terms.get(missing) is None
            with pytest.raises(KeyError):
                terms[missing]

    def test_copy_pickle_and_mismatch(self, case):
        import copy
        import pickle

        _, cwe, stored = case
        for clone in (copy.copy(cwe), copy.deepcopy(cwe), pickle.loads(pickle.dumps(cwe))):
            assert clone == cwe and lane_bytes(clone) == stored
        (e, c), *rest = cwe.sorted_terms()
        other = CwePolynomial(cwe.q, cwe.n, {e: c + 1, **dict(rest)})
        equal, diff = cwe_equal(cwe, other)
        assert not equal and diff == (e, c, c + 1) and type(diff[0]) is tuple
        fewer = CwePolynomial(cwe.q, cwe.n, dict(rest))
        assert cwe_equal(fewer, cwe) == (False, (e, 0, c))

    def test_constructor(self):
        short = {(255, 0): 1, (0, 255): 1, (100, 155): 3}
        long = {(256, 0): 1, (0, 256): 1, (100, 156): 3}
        for n, terms, stored in ((255, short, 1), (256, long, 2)):
            cwe = CwePolynomial(2, n, terms)
            assert lane_bytes(cwe) == stored and cwe.terms == terms
            dist = weight_distribution(cwe)
            assert (dist[0], dist[n - 100], dist[n], sum(dist)) == (1, 3, 1, 5)
        # checked before it is packed: a byte lane would refuse 256 itself
        for n, exps in ((255, (256, -1)), (255, (-1, 256)), (256, (257, -1))):
            with pytest.raises(ParameterOutOfRangeError):
                CwePolynomial(2, n, {exps: 1})

    def test_two_byte_lanes_order_as_tuples(self):
        # the high byte of a lane comes first: little-endian lanes would put
        # (256, 0) before (255, 1)
        ctx = build_field(257, 1)
        spec = CodeSpec(ctx, 2, make_eval_set(ctx, "punctured", beta=0))
        pad = (0,) * 255
        low, high = (255, 1) + pad, (256, 0) + pad
        cwe = CwePolynomial(257, 256, {high: 1, low: 2})
        assert lane_bytes(cwe) == 2
        assert [e for e, _ in cwe.sorted_terms()] == [low, high]
        assert render_terms(cwe) == ["2 * w[0]^255 w[1]^1", "1 * w[0]^256"]
        text = serialize(spec, cwe)
        assert text == reference_serialize(spec, cwe)
        assert [tuple(t["e"]) for t in json.loads(text)["terms"]] == [low, high]
        assert cwe_equal(cwe, CwePolynomial(257, 256)) == (False, (low, 2, 0))

    @pytest.mark.parametrize("extended", [False, True])
    def test_low_bytes_and_unpacked_vectors_mixed(self, extended):
        # n = 512, 513: the constants w_rho^512 are written from their
        # two-byte lanes, and every other term, with entries below 256, from
        # its low bytes
        ctx = build_field(2, 9)
        spec = CodeSpec(ctx, 2, make_eval_set(ctx, "full"), extended)
        cwe = cwe_rs2(ctx, spec.alpha, extended)
        assert lane_bytes(cwe) == 2
        chunks = list(_chunks(cwe))
        wide = sum(len(chunk[3]) for chunk in chunks)
        narrow = sum(len(chunk[2]) for chunk in chunks) // cwe.q
        assert (wide, narrow) == (512, 1 + 510 * extended)
        assert_writers_match_reference(spec, cwe)
        text = serialize(spec, cwe)
        for read in (_read_canonical, _read_json):
            assert read(text)[1] == cwe

    @pytest.mark.parametrize("key", [
        b"\x00\x80\x00\x80\x00",  # length 2q + 1
        b"\x00\x80\x80",  # length 2q - 1
        b"\x80",  # odd length
        b"\xff\x01",  # one-byte lanes that sum to n
        b"\x00\x80\x00\x7f",  # lanes that sum to n - 1
        b"\x01\x7f\x00\x80",  # bytes that sum to n, lanes to 511
        (128, 128),  # a tuple key
    ])
    def test_adopt_checks_two_byte_lanes(self, key):
        assert CwePolynomial._adopt(2, 256, {b"\x00\x80\x00\x80": 2, b"\x01\x00\x00\x00": 1})
        with pytest.raises(ParameterOutOfRangeError):
            CwePolynomial._adopt(2, 256, {b"\x01\x00\x00\x00": 1, key: 1})

    @staticmethod
    def key_summing_to(q, total):
        """A key of q one-byte lanes whose bytes sum to total, nonzero first."""
        full, rest = divmod(total, 255)
        return (b"\xff" * full + bytes([rest])).ljust(q, b"\0")

    @pytest.mark.parametrize("q,n,wraps", [(300, 255, 1), (512, 7, 1), (1024, 0, 1), (4096, 200, 2)])
    def test_adopt_refuses_byte_sums_past_adler32s_modulus(self, q, n, wraps):
        # the low half of adler32 is 1 + (byte sum mod 65521): these keys
        # read n + 1 there, but have fewer than q - 255 zero bytes
        key = self.key_summing_to(q, n + wraps * 65521)
        assert adler32(key) & 0xFFFF == n + 1 and key.count(0) < q - 255
        valid = self.key_summing_to(q, n)
        assert CwePolynomial._adopt(q, n, {valid: 1})
        with pytest.raises(ParameterOutOfRangeError):
            CwePolynomial._adopt(q, n, {valid: 1, key: 1})

    @pytest.mark.parametrize("q", [257, 512, 4096])
    def test_adopt_admits_keys_with_q_minus_255_zero_bytes(self, q):
        # n = 255 over 255 nonzero lanes, as many as a valid key can have
        key = b"\x01" * 255 + bytes(q - 255)
        assert key.count(0) == q - 255
        cwe = CwePolynomial._adopt(q, 255, {key: 3, self.key_summing_to(q, 255): 1})
        assert len(cwe) == 2 and cwe.terms[(1,) * 255 + (0,) * (q - 255)] == 3

    @pytest.mark.parametrize("terms", [
        {(1, 1): 1},  # a tuple key where bytes are stored
        {b"\x01\x01\x00": 1},  # wrong length
        {b"\x01\x00": 1},  # wrong sum
        {b"\x01\x01": 0},  # zero coefficient
        {b"\x01\x01": True},  # bool coefficient
        {b"\x02\x00": 1, b"\x01\x01": 2.0},  # one bad term among good ones
    ])
    def test_adopt_checks_every_term(self, terms):
        assert CwePolynomial._adopt(2, 2, {b"\x01\x01": 2})
        with pytest.raises(ParameterOutOfRangeError):
            CwePolynomial._adopt(2, 2, terms)


class TestDeserializeErrors:
    def _path_of(self, text):
        with pytest.raises(ParseError) as info:
            deserialize(text)
        return info.value.path

    def test_not_json(self):
        assert self._path_of("{nope") == "$"

    def test_integer_past_digit_limit(self):
        # json.loads raises ValueError past the interpreter's int digit limit
        big = "9" * 5000
        assert self._path_of(FROZEN_GF2_JSON.replace('"p":2', f'"p":{big}')) == "$"
        assert self._path_of(FROZEN_GF2_JSON.replace('"e":[0,2]', f'"e":[0,{big}]')) == "$"

    def test_nested_too_deep(self):
        depth = 100_000
        assert self._path_of("[" * depth + "]" * depth) == "$"

    def test_not_object(self):
        assert self._path_of("[1, 2]") == "$"

    def test_missing_key(self):
        assert self._path_of('{"p":2,"m":1,"k":2,"n":2,"extended":false,"alpha":[0,1]}') == "$"

    def _doc(self, **overrides):
        doc = json.loads(FROZEN_GF2_JSON)
        doc.update(overrides)
        return json.dumps(doc)

    def test_bad_scalar_types(self):
        assert self._path_of(self._doc(p="2")) == "$.p"
        assert self._path_of(self._doc(m=None)) == "$.m"
        assert self._path_of(self._doc(k=2.0)) == "$.k"
        assert self._path_of(self._doc(extended="false")) == "$.extended"

    def test_bad_alpha(self):
        assert self._path_of(self._doc(alpha=7)) == "$.alpha"
        assert self._path_of(self._doc(alpha=[0, "1"])) == "$.alpha[1]"

    def test_invalid_code_parameters_wrapped(self):
        assert self._path_of(self._doc(p=4)) == "$"
        assert self._path_of(self._doc(alpha=[0, 0])) == "$"

    def test_wrong_length(self):
        assert self._path_of(self._doc(n=5)) == "$.n"

    def test_bad_terms(self):
        assert self._path_of(self._doc(terms={})) == "$.terms"
        assert self._path_of(self._doc(terms=[[1, 2]])) == "$.terms[0]"
        assert self._path_of(self._doc(terms=[{"e": [2, 0]}])) == "$.terms[0]"
        assert self._path_of(self._doc(terms=[{"e": 3, "c": 1}])) == "$.terms[0].e"
        assert self._path_of(self._doc(terms=[{"e": [2, "0"], "c": 1}])) == "$.terms[0].e[1]"
        assert self._path_of(self._doc(terms=[{"e": [2, 0, 0], "c": 1}])) == "$.terms[0].e"
        assert self._path_of(self._doc(terms=[{"e": [3, -1], "c": 1}])) == "$.terms[0].e"
        assert self._path_of(self._doc(terms=[{"e": [1, 0], "c": 1}])) == "$.terms[0].e"
        assert self._path_of(self._doc(terms=[{"e": [True, True], "c": 1}])) == "$.terms[0].e[0]"
        assert self._path_of(self._doc(terms=[{"e": [1.0, 1], "c": 1}])) == "$.terms[0].e[0]"
        assert self._path_of(self._doc(terms=[{"e": [1, 1], "c": 0}])) == "$.terms[0].c"
        assert self._path_of(self._doc(terms=[{"e": [1, 1], "c": True}])) == "$.terms[0].c"
        assert (
            self._path_of(
                self._doc(terms=[{"e": [1, 1], "c": 1}, {"e": [1, 1], "c": 2}])
            )
            == "$.terms[1].e"
        )


class TestRenderTerms:
    def test_frozen(self):
        assert render_terms(brute(GF2, 2, (0, 1))) == [
            "1 * w[1]^2",
            "2 * w[0]^1 w[1]^1",
            "1 * w[0]^2",
        ]

    def test_every_line_well_formed(self):
        cwe = cwe_k3_fullfield(GF5, extended=True)
        lines = render_terms(cwe)
        assert len(lines) == len(cwe)
        for line in lines:
            coeff, _, monomial = line.partition(" * ")
            assert int(coeff) >= 1
            assert monomial.count("w[") == monomial.count("^")


class TestFormulaDispatch:
    def test_k2_any_set(self):
        spec = CodeSpec(GF5, 2, (4, 1, 2), extended=True)
        assert cwe_equal(cwe_formula(spec), cwe_bruteforce(spec)) == (True, None)

    def test_k3_full_set_any_order(self):
        spec = CodeSpec(GF5, 3, (3, 0, 4, 1, 2))
        assert cwe_formula(spec) == cwe_k3_fullfield(GF5)

    def test_k3_missing_one_point(self):
        spec = CodeSpec(GF5, 3, (4, 0, 1, 3))  # 2 is missing
        assert cwe_formula(spec) == cwe_k3_punctured(GF5, 2)
        assert cwe_equal(cwe_formula(spec), cwe_bruteforce(spec)) == (True, None)

    def test_k3_other_sets_unsupported(self):
        spec = CodeSpec(GF5, 3, (0, 1, 2))
        with pytest.raises(ParameterOutOfRangeError):
            cwe_formula(spec)

    def test_other_dimensions_unsupported(self):
        with pytest.raises(ParameterOutOfRangeError):
            cwe_formula(CodeSpec(GF5, 1, (0, 1)))
        with pytest.raises(ParameterOutOfRangeError):
            cwe_formula(CodeSpec(GF5, 4, (0, 1, 2, 3, 4)))


def fields_up_to(limit):
    """(p, m) of every field with q <= limit."""
    return [
        (p, m)
        for p in range(2, limit + 1)
        if is_prime(p)
        for m in range(1, limit.bit_length())
        if p**m <= limit
    ]


class TestStabilizer:
    """The translate walk, _translates, against its definition: the
    translates of a base by every g, each a gather, entry rho of the one by g
    being entry rho - g of base.  The walk must give each distinct one
    exactly once, as _expand weighs each by the stabilizer's size q / (their
    number); a walk that repeats one still adds up to the right enumerator,
    so no other test sees it."""

    @staticmethod
    def assert_walk_is_the_definition(ctx, base):
        q = ctx.q
        fixed = tuple(base)
        gathers = [tuple(fixed[ctx.sub(r, g)] for r in range(q)) for g in range(q)]
        stabilizer = [g for g in range(q) if gathers[g] == fixed]
        for w, lane in ((8, "B"), (16, "H")):
            layout = struct.Struct(f">{q}{lane}")  # entry rho in lane rho
            x = int.from_bytes(layout.pack(*fixed), "big")
            words = _translates(x, _lane_steps(ctx.p, ctx.m, w), ctx.p)
            assert words[0] == x
            walked = [layout.unpack(y.to_bytes(layout.size, "big")) for y in words]
            assert len(set(walked)) == len(walked), (fixed, w)
            assert set(walked) == set(gathers), (fixed, w)
            assert len(walked) * len(stabilizer) == q, (fixed, w)
        return len(stabilizer)

    @pytest.mark.parametrize("p,m", fields_up_to(32))
    def test_equals_definition(self, p, m, monkeypatch):
        # every base the closed-form builders and brute force hand _expand
        from rscwe import cwe

        ctx = build_field(p, m)
        q = ctx.q
        bases = set()

        def listed(ctx, n, extended, orbits):
            bases.update(tuple(base) for base, _, _ in orbits)
            return CwePolynomial(q, n + extended)

        monkeypatch.setattr(cwe, "_expand", listed)
        list(builder_outputs(ctx))
        for spec in [*builder_specs(ctx), CodeSpec(ctx, 1, make_eval_set(ctx, "full"))]:
            cwe_bruteforce(spec)
        sizes = [self.assert_walk_is_the_definition(ctx, base) for base in bases]
        assert max(sizes) > 1  # a walk that skips a digit

    def test_every_level_set_checked(self):
        # GF(8): the level sets {0, 1} and {2, 4} are each moved onto
        # themselves by a nonzero translate (1 and 6), but not both by one
        ctx = build_field(2, 3)
        for base in ((1, 1, 2, 3, 2, 3, 3, 3), (2, 2, 1, 3, 1, 3, 3, 3)):
            assert self.assert_walk_is_the_definition(ctx, base) == 1


def reference_expand(ctx, n, extended, orbits):
    """_expand by its definition: each orbit's word translated by every g,
    entry rho of the translate by g being entry rho - g of base (a gather),
    each top bumped on a copy, equal words added up; no stabilizer and no
    merging of orbits."""
    q = ctx.q
    gathers = [itemgetter(*[ctx.sub(r, g) for r in range(q)]) for g in range(q)]
    terms = Counter()
    for base, tops, coeff in orbits:
        for word, times in Counter(gather(base) for gather in gathers).items():
            if not extended:
                terms[word] += times * coeff * len(tops)
                continue
            for t in tops:
                bumped = list(word)
                bumped[t] += 1
                terms[tuple(bumped)] += times * coeff
    return CwePolynomial(q, n + extended, terms)


class TestExpandIsTheDefinition:
    """_expand against reference_expand on the orbit lists that each
    closed-form builder and brute force hand it: every field with q <= 16,
    a seeded sample of fields up to q = 128, and the codes of length 255,
    256 and 257 of GF(256), where the lanes widen from 8 to 16 bits.  A
    code is left out when its closed-form output bound, or for brute force
    its q^k codewords times max(q, length), is over LIMIT.  The class runs
    in about 11 s on one core of a 2-core Intel Xeon machine."""

    LIMIT = 1 << 22
    FIELDS = fields_up_to(16) + random.Random(12).sample(
        [f for f in fields_up_to(128) if f[0] ** f[1] > 16], 5
    )

    @staticmethod
    def assert_expansions_match(monkeypatch, build):
        from rscwe import cwe

        real, seen = cwe._expand, []

        def checked(ctx, n, extended, orbits):
            got = real(ctx, n, extended, orbits)
            assert got == reference_expand(ctx, n, extended, orbits), (ctx, n, extended)
            seen.append(got)
            return got

        with monkeypatch.context() as patch:
            patch.setattr(cwe, "_expand", checked)
            result = build()
        assert seen == [result]

    @pytest.mark.parametrize("p,m", FIELDS)
    def test_every_builder_and_brute_force(self, p, m, monkeypatch):
        from rscwe.cwe import closed_form

        ctx = build_field(p, m)
        q = ctx.q
        for spec in builder_specs(ctx):
            if closed_form(spec)[1] <= self.LIMIT:
                self.assert_expansions_match(monkeypatch, partial(cwe_formula, spec))
        rng = random.Random(q)
        sets = [make_eval_set(ctx, "full"), tuple(rng.sample(range(q), rng.randint(1, q)))]
        for k, alpha, extended in product((1, 2, 3), sets, (False, True)):
            spec = CodeSpec(ctx, k, alpha, extended) if k <= len(alpha) else None
            if spec and spec.size * max(q, spec.length) <= self.LIMIT:
                self.assert_expansions_match(monkeypatch, partial(cwe_bruteforce, spec))

    @pytest.mark.parametrize("kind,extended", [("punctured", False), ("full", False), ("full", True)])
    def test_lane_width_boundary(self, kind, extended, monkeypatch):
        # code lengths 255 (8-bit lanes), 256 and 257 (16-bit lanes)
        ctx = build_field(2, 8)
        spec = CodeSpec(ctx, 2, make_eval_set(ctx, kind, beta=7), extended)
        assert spec.length == 255 + (kind == "full") + extended
        self.assert_expansions_match(monkeypatch, partial(cwe_formula, spec))
        self.assert_expansions_match(monkeypatch, partial(cwe_bruteforce, spec))


class TestOutputEstimate:
    """closed_form pairs each builder with a bound on what it emits, and the
    budget refuses that bound before any orbit is listed."""

    @pytest.mark.parametrize("p,m", fields_up_to(64))
    def test_bounds_every_builder_output(self, p, m):
        from rscwe.cwe import closed_form

        for spec, cwe in builder_outputs(build_field(p, m)):
            build, bound = closed_form(spec)
            assert build() == cwe, spec
            width = max(spec.ctx.q, spec.length)
            assert len(cwe) * width <= bound <= spec.size * width, spec

    def test_builds_through_the_module_names(self, monkeypatch):
        # the call looks each builder up when it is made, so a wrapper put in
        # the module (as bench/spans.py does) sees it; a punctured set gets
        # the one point it misses
        from rscwe import cwe

        calls = []
        for name in ("cwe_rs2", "cwe_k3_fullfield", "cwe_k3_punctured"):
            monkeypatch.setattr(cwe, name, lambda ctx, *args, name=name: calls.append((name, args)))
        ctx = build_field(3, 2)
        for spec in (
            CodeSpec(ctx, 2, (4, 1), True),
            CodeSpec(ctx, 3, make_eval_set(ctx, "full")),
            CodeSpec(ctx, 3, make_eval_set(ctx, "punctured", beta=7), True),
        ):
            cwe.closed_form(spec)[0]()
        assert calls == [
            ("cwe_rs2", ((4, 1), True)),
            ("cwe_k3_fullfield", (False,)),
            ("cwe_k3_punctured", (7, True)),
        ]

    def test_refused_before_any_orbit(self, monkeypatch):
        from rscwe import cwe

        ctx = build_field(3, 2)
        spec = CodeSpec(ctx, 3, make_eval_set(ctx, "full"), True)
        bound = cwe.closed_form(spec)[1]
        assert cwe_formula(spec, budget=bound).mass() == 729

        def unreachable(*args):
            raise AssertionError("an orbit list was built")

        for name in ("_expand", "_k3_orbits", "_scalings"):
            monkeypatch.setattr(cwe, name, unreachable)
        with pytest.raises(SizeLimitError) as info:
            cwe_formula(spec, budget=bound - 1)
        assert str(info.value) == (
            f"closed-form output of up to {bound} (terms x max(q, code length)) "
            f"exceeds the budget {bound - 1}"
        )
        assert info.value.budget == bound - 1

    def test_default_budget(self):
        from rscwe.cwe import closed_form

        ctx = build_field(2, 12)
        spec = CodeSpec(ctx, 2, make_eval_set(ctx, "full"))
        assert closed_form(spec)[1] == (2 * ctx.q - 1) * ctx.q > 2**24
        with pytest.raises(SizeLimitError):
            cwe_formula(spec)

    def test_uncovered_spec_raises_as_closed_form(self):
        from rscwe.cwe import closed_form

        with pytest.raises(ParameterOutOfRangeError, match="closed form"):
            closed_form(CodeSpec(GF5, 3, (0, 1, 2)))
