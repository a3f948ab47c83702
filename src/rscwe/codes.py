"""Reed-Solomon codes RS_k(alpha) and their extended variants over GF(q).

A message is a tuple (f_0, ..., f_{k-1}) of field codes, read as the
polynomial f(x) = f_0 + f_1 x + ... + f_{k-1} x^{k-1}.  A codeword is the
tuple of values of f on the evaluation points, with the leading coefficient
f_{k-1} appended once more when the code is extended.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .errors import (
    DimensionMismatchError,
    DuplicateEvaluationPointError,
    ParameterOutOfRangeError,
    SizeLimitError,
)
from .gf import FieldContext, _is_int

DEFAULT_ENUM_BUDGET = 2**24

Message = tuple[int, ...]
Codeword = tuple[int, ...]

EVAL_KINDS = ("full", "punctured", "primitive", "standard", "custom")

# "standard" (0, then the nonzero elements) is the same tuple as "full"; the
# name stays accepted for callers and command lines that use it
EVAL_ALIASES = {"standard": "full"}


def make_eval_set(
    ctx: FieldContext,
    kind: str,
    *,
    beta: int | None = None,
    points: tuple[int, ...] | None = None,
) -> tuple[int, ...]:
    """Build an evaluation-point tuple of one of the named kinds.

    full: all q elements ascending; punctured: all but beta, ascending;
    primitive: all nonzero elements; standard: an alias of full;
    custom: the given points, checked for duplicates.
    """
    kind = EVAL_ALIASES.get(kind, kind)
    if kind == "full":
        return tuple(ctx.elements())
    if kind == "punctured":
        if beta is None:
            raise ParameterOutOfRangeError("punctured evaluation set needs beta")
        ctx.validate_element(beta)
        return tuple(x for x in ctx.elements() if x != beta)
    if kind == "primitive":
        return tuple(range(1, ctx.q))
    if kind == "custom":
        if points is None:
            raise ParameterOutOfRangeError("custom evaluation set needs points")
        pts = tuple(points)
        _check_points(ctx, pts)
        return pts
    raise ParameterOutOfRangeError(
        f"unknown evaluation-set kind {kind!r}; expected one of {EVAL_KINDS}"
    )


def _check_points(ctx: FieldContext, points: tuple[int, ...]) -> None:
    """Every point is an element of the field, and none repeats."""
    seen = set()
    for x in points:
        ctx.validate_element(x)
        if x in seen:
            raise DuplicateEvaluationPointError(f"evaluation point {x} repeats")
        seen.add(x)


class CodeSpec:
    """Parameters of one (extended) Reed-Solomon code.

    Immutable, compared and hashed by its four fields, like a frozen
    dataclass; a plain class so that importing codes does not import
    dataclasses (and inspect with it).
    """

    __slots__ = ("ctx", "k", "alpha", "extended")
    __match_args__ = __slots__

    def __init__(self, ctx: FieldContext, k: int, alpha: tuple[int, ...], extended: bool = False):
        alpha = tuple(alpha)
        if not _is_int(k) or k < 1:
            raise ParameterOutOfRangeError(f"dimension k = {k!r} must be >= 1")
        if not isinstance(extended, bool):
            raise ParameterOutOfRangeError(f"extended = {extended!r} must be a bool")
        _check_points(ctx, alpha)
        if k > len(alpha):
            raise ParameterOutOfRangeError(
                f"dimension k = {k} exceeds the {len(alpha)} evaluation points"
            )
        for name, value in zip(self.__slots__, (ctx, k, alpha, extended)):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return self.ctx, self.k, self.alpha, self.extended

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(ctx={self.ctx!r}, k={self.k!r}, "
            f"alpha={self.alpha!r}, extended={self.extended!r})"
        )

    def __reduce__(self):
        # rebuilt through __init__, since __setattr__ refuses the slot state
        # that copy and pickle would otherwise restore
        return type(self), self._fields()

    @property
    def n(self) -> int:
        """Number of evaluation points (excludes the extension coordinate)."""
        return len(self.alpha)

    @property
    def length(self) -> int:
        return self.n + 1 if self.extended else self.n

    @property
    def size(self) -> int:
        return self.ctx.q**self.k


def _encoder(spec: CodeSpec):
    """Message-to-codeword function for spec, by Horner's rule on table rows.

    f(alpha) = f_0 + alpha * (f_1 + alpha * (f_2 + ...)): the word starts as
    alpha * f_{k-1}, built once per leading coefficient; each f_j, j from
    k - 2 down to 1, is added and the sum multiplied by alpha in one pass,
    and f_0 is added last, in a pass of its own only when it is nonzero.
    Each step indexes lists, the mul row of each evaluation point and the
    add row of a coefficient, instead of calling field operations, and a
    row is built once, on first use.  At k = 1 the word is f_0 at every
    point.
    """
    ctx = spec.ctx
    points = [ctx.mul_row(a) for a in spec.alpha]
    shifts = [None] * ctx.q
    starts = [None] * ctx.q
    k, extended = spec.k, spec.extended

    def add_row(c: int) -> list[int]:
        row = shifts[c]
        if row is None:
            row = shifts[c] = ctx.add_row(c)
        return row

    def encode_message(message: Message) -> Codeword:
        top = message[-1]
        if k == 1:
            word = [top] * len(points)
        else:
            word = starts[top]
            if word is None:
                word = starts[top] = [row[top] for row in points]
            for c in message[-2:0:-1]:
                shift = add_row(c)
                word = [row[shift[x]] for row, x in zip(points, word)]
            if message[0]:
                word = map(add_row(message[0]).__getitem__, word)
        return (*word, top) if extended else tuple(word)

    return encode_message


def encode(spec: CodeSpec, message: Message) -> Codeword:
    """Evaluate the message polynomial on alpha (Horner), then extend."""
    if len(message) != spec.k:
        raise DimensionMismatchError(
            f"message has {len(message)} coefficients, code dimension is {spec.k}"
        )
    for c in message:
        spec.ctx.validate_element(c)
    return _encoder(spec)(tuple(message))


def refuse_over_budget(amount: int, budget: int | None, what: str) -> None:
    """Raise SizeLimitError, "<what> exceeds the budget <limit>", when amount
    exceeds budget (default DEFAULT_ENUM_BUDGET)."""
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    if amount > limit:
        raise SizeLimitError(f"{what} exceeds the budget {limit}", budget=limit)


def check_budget(spec: CodeSpec, budget: int | None = None) -> None:
    """Refuse, with SizeLimitError, a code of more than budget codewords
    (default DEFAULT_ENUM_BUDGET).  Every enumeration calls it before any
    work, so the budget counts all q^k codewords however they are tallied."""
    refuse_over_budget(spec.size, budget, f"enumeration of q^k = {spec.size} codewords")


def enumerate_codewords(
    spec: CodeSpec, *, budget: int | None = None
) -> Iterator[Codeword]:
    """All q^k codewords, messages in lexicographic code order.

    The budget check happens at call time, so an oversized request fails
    before any work starts.
    """
    check_budget(spec, budget)
    return map(_encoder(spec), product(range(spec.ctx.q), repeat=spec.k))
