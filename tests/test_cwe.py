"""Complete weight enumerators: brute force vs closed forms, JSON, rendering."""

import json
import random
from collections import Counter
from functools import partial
from itertools import product
from operator import itemgetter

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
from rscwe.cwe import _read_canonical, _read_json
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

    @pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (2, 3)])
    def test_translator_matches_its_definition(self, p, m):
        # the oracle sums over every g, so it cannot tell the translate by g
        # from the one by -g; the gather itself must be right
        from rscwe.cwe import _translator

        ctx = build_field(p, m)
        e = list(range(10, 10 + ctx.q))
        for g in range(ctx.q):
            assert _translator(ctx, g)(e) == tuple(e[ctx.sub(r, g)] for r in range(ctx.q))

    @pytest.mark.parametrize(
        "p,m,w",
        [(p, m, w) for p, m in [(5, 1), (2, 3), (3, 2), (3, 3)] for w in (8, 16)] + [(2, 8, 16)],
    )
    def test_lane_steps_match_the_definition(self, p, m, w):
        # _expand walks translates by these steps; as with the gather, no
        # enumerator tells the translate by g from the one by -g, so the
        # direction is pinned here: each digit d of g is d steps
        ctx = build_field(p, m)
        q, size = ctx.q, w // 8
        e = [(257 * r + 1) % (1 << w) for r in range(q)]  # distinct, both bytes used at w = 16

        def lanes(x):
            raw = x.to_bytes(q * size, "little")
            return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]

        start = int.from_bytes(b"".join(v.to_bytes(size, "little") for v in e), "little")
        steps = ctx.lane_steps(w)
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
# by (p, m); random sets almost never have one, so they hide multiplicity bugs
STABILIZED_SETS = {
    # the prime subfield of GF(9)
    (3, 2): [(0, 1, 2)],
    # the additive subgroup {0, 1, 2, 3} of GF(16), and two of its cosets
    (2, 4): [(0, 1, 2, 3), (0, 1, 2, 3, 8, 9, 10, 11)],
    # a GF(3)-subspace of GF(27)
    (3, 3): [tuple(range(9))],
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
        for q, n in ((0, 2), (2, -1), (2.5, 2), (True, 0), (2, False), ("2", 2)):
            with pytest.raises(ParameterOutOfRangeError):
                CwePolynomial(q, n)

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


GF256 = build_field(2, 8)


def stored_type(cwe):
    """The type of the keys of the stored term map (bytes when n < 256)."""
    return type(next(iter(cwe._terms)))


class TestStorageBoundary:
    """n = 255 is the longest code stored with bytes keys, n = 256 the
    shortest stored with tuples; both look the same from outside."""

    CASES = {
        # k = 1: q terms w_rho^n, so exponents 255 and 256 themselves
        "n=255": (CodeSpec(GF256, 1, make_eval_set(GF256, "primitive")), bytes),
        "n=256": (CodeSpec(GF256, 1, make_eval_set(GF256, "primitive"), True), tuple),
        "small n": (CodeSpec(GF256, 1, (0, 1, 2)), bytes),
        "rs2 full field": (CodeSpec(GF256, 2, make_eval_set(GF256, "full")), tuple),
    }

    @pytest.fixture(params=CASES, scope="class")
    def case(self, request):
        spec, stored = self.CASES[request.param]
        cwe = cwe_rs2(GF256, spec.alpha) if spec.k == 2 else cwe_bruteforce(spec)
        assert (cwe.n, stored_type(cwe)) == (spec.length, stored)
        return spec, cwe, stored

    def test_json_round_trip(self, case):
        spec, cwe, stored = case
        text = serialize(spec, cwe)
        assert text == reference_serialize(spec, cwe)
        for read in (deserialize, _read_canonical, _read_json):
            spec_back, cwe_back = read(text)
            assert cwe_back == cwe and stored_type(cwe_back) is stored
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
            assert clone == cwe and stored_type(clone) is stored
        (e, c), *rest = cwe.sorted_terms()
        other = CwePolynomial(cwe.q, cwe.n, {e: c + 1, **dict(rest)})
        equal, diff = cwe_equal(cwe, other)
        assert not equal and diff == (e, c, c + 1) and type(diff[0]) is tuple
        fewer = CwePolynomial(cwe.q, cwe.n, dict(rest))
        assert cwe_equal(fewer, cwe) == (False, (e, 0, c))

    def test_constructor(self):
        short = {(255, 0): 1, (0, 255): 1, (100, 155): 3}
        long = {(256, 0): 1, (0, 256): 1, (100, 156): 3}
        for n, terms, stored in ((255, short, bytes), (256, long, tuple)):
            cwe = CwePolynomial(2, n, terms)
            assert stored_type(cwe) is stored and cwe.terms == terms
            dist = weight_distribution(cwe)
            assert (dist[0], dist[n - 100], dist[n], sum(dist)) == (1, 3, 1, 5)
        # checked before it is packed: bytes() would refuse 256 itself
        for n, exps in ((255, (256, -1)), (255, (-1, 256)), (256, (257, -1))):
            with pytest.raises(ParameterOutOfRangeError):
                CwePolynomial(2, n, {exps: 1})

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
    """_stabilizer against its definition, {h : shift_h(base) == base}."""

    @pytest.mark.parametrize("p,m", fields_up_to(32))
    def test_equals_definition(self, p, m, monkeypatch):
        from rscwe import cwe
        from rscwe.cwe import _stabilizer, _translator

        ctx = build_field(p, m)
        q = ctx.q
        bases = {}

        def listed(ctx, n, extended, orbits):
            for base, _, _ in orbits:
                bases.setdefault(tuple(base), base)
            return CwePolynomial(q, n + extended)

        monkeypatch.setattr(cwe, "_expand", listed)
        list(builder_outputs(ctx))
        assert bases
        shifts = [_translator(ctx, h) for h in range(q)]
        for key, base in bases.items():
            fixed = {h for h, shift in enumerate(shifts) if shift(base) == key}
            basis, free = _stabilizer(ctx, base)
            group = {0}
            for b in basis:
                group = {ctx.add(x, ctx.mul(c, b)) for x in group for c in range(p)}
            assert group == fixed, key
            assert len(group) == p ** len(basis)
            # the codes whose digits are zero outside the free ones
            transversal = [
                sum(d * p**j for d, j in zip(digits, free))
                for digits in product(range(p), repeat=len(free))
            ]
            cosets = [ctx.add(t, h) for t in transversal for h in group]
            assert sorted(cosets) == list(range(q)), key

    def test_every_level_set_checked(self):
        # GF(8): the level sets {0, 1} and {2, 4} are each moved onto
        # themselves by a nonzero translate (1 and 6), but not both by one
        from rscwe.cwe import _stabilizer

        ctx = build_field(2, 3)
        for base in ((1, 1, 2, 3, 2, 3, 3, 3), (2, 2, 1, 3, 1, 3, 3, 3)):
            assert _stabilizer(ctx, base) == ([], [0, 1, 2])


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
