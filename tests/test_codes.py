"""Evaluation sets, code parameters, encoding, and codeword enumeration."""

import copy
import io
import pickle
import random
from dataclasses import dataclass
from itertools import islice, product

import pytest

from rscwe import (
    CodeSpec,
    FieldContext,
    DimensionMismatchError,
    DuplicateEvaluationPointError,
    ParameterOutOfRangeError,
    SizeLimitError,
    build_field,
    encode,
    enumerate_codewords,
    make_eval_set,
)
from rscwe.codes import _check_points


def _poly_value(ctx, message, a):
    """Independent (non-Horner) evaluation of sum_i message[i] * a^i."""
    acc = 0
    for i, c in enumerate(message):
        term = c
        for _ in range(i):
            term = ctx.mul(term, a)
        acc = ctx.add(acc, term)
    return acc


class TestMakeEvalSet:
    def test_frozen_gf4(self):
        ctx = build_field(2, 2)
        assert make_eval_set(ctx, "full") == (0, 1, 2, 3)
        assert make_eval_set(ctx, "punctured", beta=2) == (0, 1, 3)
        assert make_eval_set(ctx, "punctured", beta=0) == (1, 2, 3)
        assert make_eval_set(ctx, "primitive") == (1, 2, 3)
        assert make_eval_set(ctx, "standard") == (0, 1, 2, 3)
        assert make_eval_set(ctx, "custom", points=(3, 0, 1)) == (3, 0, 1)

    def test_validation(self):
        ctx = build_field(3, 1)
        with pytest.raises(ParameterOutOfRangeError):
            make_eval_set(ctx, "punctured")
        with pytest.raises(ParameterOutOfRangeError):
            make_eval_set(ctx, "custom")
        with pytest.raises(ParameterOutOfRangeError):
            make_eval_set(ctx, "sideways")
        with pytest.raises(DuplicateEvaluationPointError):
            make_eval_set(ctx, "custom", points=(1, 2, 1))
        with pytest.raises(ParameterOutOfRangeError):
            make_eval_set(ctx, "custom", points=(0, 5))
        with pytest.raises(ParameterOutOfRangeError):
            make_eval_set(ctx, "punctured", beta=7)


class TestCodeSpec:
    def test_lengths_and_size(self):
        ctx = build_field(5, 1)
        spec = CodeSpec(ctx, 2, (0, 1, 2, 3, 4))
        assert (spec.n, spec.length, spec.size) == (5, 5, 25)
        ext = CodeSpec(ctx, 2, (0, 1, 2, 3, 4), extended=True)
        assert (ext.n, ext.length, ext.size) == (5, 6, 25)

    def test_validation(self):
        ctx = build_field(3, 1)
        with pytest.raises(ParameterOutOfRangeError):
            CodeSpec(ctx, 0, (0, 1))
        with pytest.raises(ParameterOutOfRangeError):
            CodeSpec(ctx, True, (0, 1))
        with pytest.raises(ParameterOutOfRangeError):
            CodeSpec(ctx, 3, (0, 1))  # k exceeds n
        with pytest.raises(DuplicateEvaluationPointError):
            CodeSpec(ctx, 2, (0, 1, 0))
        with pytest.raises(ParameterOutOfRangeError):
            CodeSpec(ctx, 2, (0, 3))

    def test_alpha_normalized_to_tuple(self):
        ctx = build_field(3, 1)
        spec = CodeSpec(ctx, 2, [2, 0, 1])
        assert spec.alpha == (2, 0, 1)

    @pytest.mark.parametrize("extended", [1, 0, None, "yes"])
    def test_extended_must_be_bool(self, extended):
        # a non-bool would serialize as "extended":1, which deserialize refuses
        with pytest.raises(ParameterOutOfRangeError, match="must be a bool"):
            CodeSpec(build_field(5, 1), 2, (0, 1, 2), extended)


@dataclass(frozen=True)
class DataclassCodeSpec:
    """CodeSpec as it was written, a frozen dataclass: the reference the
    plain class must behave like."""

    ctx: FieldContext
    k: int
    alpha: tuple[int, ...]
    extended: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ParameterOutOfRangeError(f"dimension k = {self.k!r} must be >= 1")
        _check_points(self.ctx, self.alpha)
        if self.k > len(self.alpha):
            raise ParameterOutOfRangeError(
                f"dimension k = {self.k} exceeds the {len(self.alpha)} evaluation points"
            )


def _both(*args, **kwargs):
    return CodeSpec(*args, **kwargs), DataclassCodeSpec(*args, **kwargs)


def _pickled(obj):
    """A pickle round trip that rebuilds a FieldContext, whose bound
    operations do not pickle, from (p, m)."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer)
    pickler.dispatch_table = {FieldContext: lambda ctx: (build_field, (ctx.p, ctx.m))}
    pickler.dump(obj)
    return pickle.loads(buffer.getvalue())


class TestCodeSpecParity:
    GF9 = build_field(3, 2)

    def _same_repr(self, new, ref):
        assert repr(new) == repr(ref).replace("DataclassCodeSpec", "CodeSpec")

    def test_repr_eq_hash(self):
        new, ref = _both(self.GF9, 2, (0, 4, 7), extended=True)
        self._same_repr(new, ref)
        assert hash(new) == hash(ref)
        assert new == CodeSpec(self.GF9, 2, [0, 4, 7], True)
        assert new != CodeSpec(self.GF9, 2, (0, 4, 7))
        other = CodeSpec(build_field(3, 2), 2, (0, 4, 7), True)  # another field object
        assert new == other and hash(new) == hash(other)
        assert (new == ref) is (ref == new) is False
        assert len({new, CodeSpec(self.GF9, 2, (0, 4, 7), True)}) == 1

    def test_keywords_and_list_alpha(self):
        new, ref = _both(ctx=self.GF9, k=3, alpha=[8, 0, 1], extended=False)
        assert new.alpha == ref.alpha == (8, 0, 1)
        assert type(new.alpha) is tuple
        self._same_repr(new, ref)
        assert (new.ctx, new.k, new.extended) == (self.GF9, 3, False)

    @pytest.mark.parametrize("field", ["ctx", "k", "alpha", "extended", "other"])
    def test_read_only(self, field):
        for spec in _both(self.GF9, 2, (0, 1)):
            with pytest.raises(AttributeError):
                setattr(spec, field, 1)
            with pytest.raises(AttributeError):
                delattr(spec, field)
            assert (spec.k, spec.alpha) == (2, (0, 1))

    def test_copy_deepcopy_pickle(self):
        new, ref = _both(self.GF9, 2, (0, 4, 7), extended=True)
        for spec in (new, ref):
            shallow = copy.copy(spec)
            assert shallow == spec and shallow.ctx is spec.ctx
            deep = copy.deepcopy(spec)
            assert deep == spec and deep.ctx is not spec.ctx
            assert (deep.ctx.q, deep.k, deep.alpha, deep.extended) == (9, 2, (0, 4, 7), True)
        self._same_repr(copy.deepcopy(new), copy.deepcopy(ref))
        self._same_repr(_pickled(new), _pickled(ref))
        assert type(_pickled(new)) is CodeSpec
        with pytest.raises(Exception) as new_error:
            pickle.dumps(new)
        with pytest.raises(Exception) as ref_error:
            pickle.dumps(ref)
        assert type(new_error.value) is type(ref_error.value)

    @pytest.mark.parametrize("k,alpha", [
        (True, (0, 1)),
        (0, (0, 1)),
        (3, (0, 1)),
        (2, (0, 1, 0)),
        (2, (0, 9)),
        ("2", (0, 1)),
    ])
    def test_same_errors(self, k, alpha):
        with pytest.raises(Exception) as new_error:
            CodeSpec(self.GF9, k, alpha)
        with pytest.raises(Exception) as ref_error:
            DataclassCodeSpec(self.GF9, k, alpha)
        assert type(new_error.value) is type(ref_error.value)
        assert str(new_error.value) == str(ref_error.value)


class TestEncode:
    def test_frozen_gf3(self):
        ctx = build_field(3, 1)
        spec = CodeSpec(ctx, 2, (0, 1, 2))
        # f(x) = 1 + 2x: f(0)=1, f(1)=0, f(2)=2
        assert encode(spec, (1, 2)) == (1, 0, 2)
        ext = CodeSpec(ctx, 2, (0, 1, 2), extended=True)
        assert encode(ext, (1, 2)) == (1, 0, 2, 2)

    def test_frozen_gf4(self):
        ctx = build_field(2, 2)
        spec = CodeSpec(ctx, 3, (0, 1, 2, 3))
        # f(y) = 2 + 3y + y^2 over GF(4) with modulus x^2 + x + 1
        assert encode(spec, (2, 3, 1)) == (2, 0, 0, 2)
        ext = CodeSpec(ctx, 3, (0, 1, 2, 3), extended=True)
        assert encode(ext, (2, 3, 1)) == (2, 0, 0, 2, 1)

    def test_frozen_gf2_identity_map(self):
        ctx = build_field(2, 1)
        spec = CodeSpec(ctx, 2, (0, 1))
        assert encode(spec, (0, 1)) == (0, 1)  # f(x) = x
        ext = CodeSpec(ctx, 2, (0, 1), extended=True)
        assert encode(ext, (0, 1)) == (0, 1, 1)

    def test_zero_polynomial_gives_zero_codeword(self):
        ctx = build_field(5, 1)
        for extended in (False, True):
            spec = CodeSpec(ctx, 3, (0, 1, 3, 4), extended=extended)
            assert encode(spec, (0, 0, 0)) == (0,) * spec.length

    def test_constant_polynomial_extended(self):
        ctx = build_field(7, 1)
        ext = CodeSpec(ctx, 3, make_eval_set(ctx, "full"), extended=True)
        for c in range(7):
            assert encode(ext, (c, 0, 0)) == (c,) * 7 + (0,)

    def test_dimension_mismatch(self):
        ctx = build_field(3, 1)
        spec = CodeSpec(ctx, 2, (0, 1, 2))
        with pytest.raises(DimensionMismatchError):
            encode(spec, (1,))
        with pytest.raises(DimensionMismatchError):
            encode(spec, (1, 2, 0))

    def test_message_elements_validated(self):
        ctx = build_field(3, 1)
        spec = CodeSpec(ctx, 2, (0, 1, 2))
        with pytest.raises(ParameterOutOfRangeError):
            encode(spec, (1, 3))

    @pytest.mark.parametrize("p,m,k", [(3, 1, 2), (2, 2, 3), (7, 1, 3), (3, 2, 2)])
    def test_horner_matches_plain_evaluation(self, p, m, k):
        ctx = build_field(p, m)
        spec = CodeSpec(ctx, k, make_eval_set(ctx, "full"))
        rng = random.Random(p * m * k)
        for _ in range(200):
            message = tuple(rng.randrange(ctx.q) for _ in range(k))
            word = encode(spec, message)
            assert word == tuple(_poly_value(ctx, message, a) for a in spec.alpha)

    def test_extension_coordinate_is_leading_coefficient(self):
        ctx = build_field(5, 1)
        ext = CodeSpec(ctx, 3, (0, 2, 4), extended=True)
        for message in product(range(5), repeat=3):
            assert encode(ext, message)[-1] == message[2]


class TestEnumeration:
    def test_counts_and_injectivity(self):
        ctx = build_field(3, 1)
        for extended in (False, True):
            spec = CodeSpec(ctx, 2, (0, 1, 2), extended=extended)
            words = list(enumerate_codewords(spec))
            assert len(words) == 9
            assert len(set(words)) == 9
            assert all(len(w) == spec.length for w in words)

    def test_message_order_is_lexicographic(self):
        ctx = build_field(5, 1)
        spec = CodeSpec(ctx, 2, (0, 1, 2, 3, 4))
        first, second = islice(enumerate_codewords(spec), 2)
        assert first == encode(spec, (0, 0))
        assert second == encode(spec, (0, 1))

    def test_frozen_gf2_code(self):
        ctx = build_field(2, 1)
        spec = CodeSpec(ctx, 2, (0, 1))
        assert set(enumerate_codewords(spec)) == {(0, 0), (1, 1), (0, 1), (1, 0)}

    def test_linearity(self):
        ctx = build_field(2, 2)
        spec = CodeSpec(ctx, 2, (0, 1, 2, 3), extended=True)
        words = set(enumerate_codewords(spec))
        for u in words:
            for v in words:
                s = tuple(ctx.add(a, b) for a, b in zip(u, v))
                assert s in words

    @pytest.mark.parametrize(
        "p,m,k,extended",
        [(7, 1, 3, False), (3, 2, 3, True), (2, 3, 2, True), (13, 1, 2, False)],
    )
    def test_linearity_random_pairs(self, p, m, k, extended):
        # encode(f) + encode(g) = encode(f + g) componentwise.
        ctx = build_field(p, m)
        spec = CodeSpec(ctx, k, make_eval_set(ctx, "full"), extended=extended)
        rng = random.Random(7000 + ctx.q * k)
        for _ in range(1000):
            f = tuple(rng.randrange(ctx.q) for _ in range(k))
            g = tuple(rng.randrange(ctx.q) for _ in range(k))
            fg = tuple(ctx.add(a, b) for a, b in zip(f, g))
            lhs = tuple(
                ctx.add(a, b) for a, b in zip(encode(spec, f), encode(spec, g))
            )
            assert lhs == encode(spec, fg)

    def test_budget_enforced_eagerly(self):
        ctx = build_field(3, 1)
        spec = CodeSpec(ctx, 2, (0, 1, 2))
        with pytest.raises(SizeLimitError) as info:
            enumerate_codewords(spec, budget=8)
        assert info.value.budget == 8
        assert "8" in str(info.value)
        # exactly at the budget is allowed
        assert len(list(enumerate_codewords(spec, budget=9))) == 9

    @pytest.mark.parametrize(
        "p,m,k",
        [(2, 2, 2), (5, 1, 2), (7, 1, 2), (2, 3, 2), (3, 2, 2), (13, 1, 2),
         (2, 2, 3), (5, 1, 3), (7, 1, 3), (2, 3, 3), (3, 2, 3), (2, 4, 3)],
    )
    def test_minimum_weight_is_mds(self, p, m, k):
        # nonzero codewords of RS_k on n points have weight >= n - k + 1,
        # with equality attained (extended codes: n + 1 - k + 1)
        ctx = build_field(p, m)
        for extended in (False, True):
            spec = CodeSpec(ctx, k, make_eval_set(ctx, "full"), extended=extended)
            best = spec.length
            for word in enumerate_codewords(spec):
                weight = sum(1 for x in word if x != 0)
                if 0 < weight < best:
                    best = weight
            assert best == spec.length - k + 1
