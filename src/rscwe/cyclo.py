"""Exact arithmetic in Z[zeta_p] and the character sums built on it.

Elements are integer vectors over the power basis 1, zeta, ..., zeta^(p-2);
the relation 1 + zeta + ... + zeta^(p-1) = 0 eliminates zeta^(p-1) eagerly,
so equality is plain tuple equality and no rounding ever happens.
"""

from __future__ import annotations

import cmath
from typing import Iterable

from .errors import (
    CharacteristicTwoError,
    DegenerateQuadraticError,
    InvalidPrimeError,
    MixedCyclotomicOrderError,
)
from .gf import FieldContext, _is_int, is_prime


class CyclotomicInt:
    """An element of Z[zeta_p] with exact integer coordinates."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int]):
        if not is_prime(p):
            raise InvalidPrimeError(f"cyclotomic order {p!r} is not prime")
        coeffs = tuple(coeffs)
        if not all(map(_is_int, coeffs)):
            raise TypeError(f"coordinates must be ints, got {coeffs!r}")
        if len(coeffs) != p - 1:
            raise ValueError(
                f"expected {p - 1} coordinates for order {p}, got {len(coeffs)}"
            )
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CyclotomicInt":
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p: int, n: int) -> "CyclotomicInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def from_exponent_counts(cls, p: int, counts: Iterable[int]) -> "CyclotomicInt":
        """Reduce sum(counts[t] * zeta^t for t in range(p)) to the power basis."""
        counts = list(counts)
        if len(counts) != p:
            raise ValueError(f"expected {p} exponent counts, got {len(counts)}")
        top = counts[p - 1]
        return cls(p, tuple(counts[i] - top for i in range(p - 1)))

    def _check_order(self, other: "CyclotomicInt") -> None:
        if self.p != other.p:
            raise MixedCyclotomicOrderError(
                f"cannot combine orders {self.p} and {other.p}"
            )

    def _coerce(self, other):
        if isinstance(other, CyclotomicInt):
            self._check_order(other)
            return other
        if _is_int(other):
            return CyclotomicInt.from_int(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicInt(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicInt(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CyclotomicInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        raw = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[(i + j) % p] += a * b
        return CyclotomicInt.from_exponent_counts(p, raw)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not _is_int(e) or e < 0:
            return NotImplemented
        result = CyclotomicInt.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "CyclotomicInt":
        """Complex conjugation, zeta -> zeta^(p-1)."""
        p = self.p
        raw = [0] * p
        for i, a in enumerate(self.coeffs):
            raw[(p - i) % p] += a
        return CyclotomicInt.from_exponent_counts(p, raw)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other) if not isinstance(other, CyclotomicInt) else other
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CyclotomicInt({self.p}, {self.coeffs})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                unit = f"z{self.p}" if i == 1 else f"z{self.p}^{i}"
                if c == 1:
                    parts.append(unit)
                elif c == -1:
                    parts.append(f"-{unit}")
                else:
                    parts.append(f"{c}*{unit}")
        if not parts:
            return "0"
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def root_power(p: int, t: int) -> CyclotomicInt:
    """zeta_p^t reduced to the power basis (t taken mod p)."""
    counts = [0] * p
    counts[t % p] = 1
    return CyclotomicInt.from_exponent_counts(p, counts)


def complex_embedding(x: CyclotomicInt) -> tuple[float, float]:
    """Evaluate at zeta_p = exp(2*pi*i/p); returns (real, imag)."""
    z = 0j
    for i, c in enumerate(x.coeffs):
        if c:
            z += c * cmath.exp(2j * cmath.pi * i / x.p)
    return (z.real, z.imag)


def additive_char_sum(
    ctx: FieldContext, b: int, subset: Iterable[int] | None = None
) -> CyclotomicInt:
    """sum of zeta^Tr(b*x) over x in subset (default: the whole field)."""
    ctx.validate_element(b)
    counts = [0] * ctx.p
    if subset is None:
        subset = ctx.elements()
    for x in subset:
        counts[ctx.trace(ctx.mul(b, x))] += 1
    return CyclotomicInt.from_exponent_counts(ctx.p, counts)


def gauss_sum(ctx: FieldContext) -> CyclotomicInt:
    """Quadratic Gauss sum: sum of eta(x) * zeta^Tr(x) over nonzero x."""
    if ctx.p == 2:
        raise CharacteristicTwoError("Gauss sum needs the quadratic character")
    counts = [0] * ctx.p
    for x in range(1, ctx.q):
        counts[ctx.trace(x)] += ctx.quadratic_character(x)
    return CyclotomicInt.from_exponent_counts(ctx.p, counts)


def quadratic_sum(ctx: FieldContext, a2: int, a1: int, a0: int) -> CyclotomicInt:
    """sum of zeta^Tr(a2*c^2 + a1*c + a0) over all c, by direct summation."""
    if ctx.p == 2:
        raise CharacteristicTwoError("quadratic sums are evaluated in odd characteristic")
    for v in (a2, a1, a0):
        ctx.validate_element(v)
    if a2 == 0:
        raise DegenerateQuadraticError("leading coefficient a2 must be nonzero")
    counts = [0] * ctx.p
    mul, add, trace = ctx.mul, ctx.add, ctx.trace
    for c in ctx.elements():
        v = add(mul(add(mul(a2, c), a1), c), a0)
        counts[trace(v)] += 1
    return CyclotomicInt.from_exponent_counts(ctx.p, counts)
