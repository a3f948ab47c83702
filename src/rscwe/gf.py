"""Arithmetic in GF(p^m) with integer-coded elements.

An element with coefficient vector (c_0, ..., c_{m-1}) over F_p (low degree
first) is coded as the integer c_0 + c_1*p + ... + c_{m-1}*p^{m-1}, so codes
run over range(q) and the prime subfield occupies codes 0..p-1.  The modulus
is the monic irreducible polynomial of degree m whose own coefficient vector
codes to the smallest integer, which makes every field here reproducible from
(p, m) alone.

Arithmetic is one lookup kernel, built when the field is constructed, in O(q)
time and memory, for every field alike:

* Multiplication, inverses and powers go through exp/log tables of the first
  primitive element g in code order.  The log of 0 is a sentinel index into a
  zero-filled tail of the exp table, so mul(a, b) = exp[log a + log b] needs
  no test for zero.
* Negation is a lookup in a table made from exp/log: -1 = g^((q-1)/2) in odd
  characteristic, and negation is the identity in characteristic 2.
* Addition uses Zech's logarithms: a + b = exp[log a + Z(log b - log a)] with
  g^Z(n) = 1 + g^n.  Extra regions of the Zech table cover a zero operand and
  a zero sum, so addition too is one expression.  Subtraction is
  a - b = a + (-b).

Each field binds its operations once, at construction, as plain functions
(add, sub, neg, mul, add_row).  Loops over many elements use mul_row(a) and
add_row(b), whole rows of the multiplication and addition tables, and index
those instead of calling per element.  The trace and quadratic-character
tables are derived from the kernel in O(q) on first use.  One polynomial
toolkit over F_p, on coefficient lists that _digits and _code convert to and
from element codes, is the reference.  Its remainder (_pmod) finds the
modulus by trial division.  Its product and power mod the modulus
(_pmulmod, _ppowmod, and _mul_poly on codes) find the generator and step
the generator's powers in odd characteristic; characteristic 2 steps them
as bit vectors by a carry-less product.  The tests check the tables against
the product and power.
"""

from __future__ import annotations

from math import isqrt
from operator import itemgetter

from .errors import (
    CharacteristicTwoError,
    InvalidPrimeError,
    ParameterOutOfRangeError,
    SizeLimitError,
)

DEFAULT_MAX_Q = 4096


def _is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division up to isqrt(n)."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def is_prime(n: int) -> bool:
    return n > 1 and _least_factor(n) == n


def _prime_factors(n: int) -> list[int]:
    factors = []
    while n > 1:
        d = _least_factor(n)
        factors.append(d)
        while n % d == 0:
            n //= d
    return factors


# -- polynomial helpers over F_p (coefficient lists, low degree first) --------


def _digits(x: int, p: int, m: int) -> list[int]:
    """The m base-p digits of the code x, low first: its coefficient list."""
    digits = []
    for _ in range(m):
        x, c = divmod(x, p)
        digits.append(c)
    return digits


def _code(digits: list[int], p: int) -> int:
    """The element code of a coefficient list of any length."""
    return sum(c * p**i for i, c in enumerate(digits))


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f with f monic; coefficients returned in [0, p)."""
    a = list(a)
    m = len(f) - 1
    # clear the coefficients of degree m and up, high to low; reduce mod p once
    for d in range(len(a) - 1, m - 1, -1):
        c = a[d] % p
        if c:
            for i in range(m):
                a[d - m + i] -= c * f[i]
    return _ptrim([c % p for c in a[:m]])


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _pmod(prod, f, p)


def _ppowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Monic f of degree m >= 1 is irreducible when no monic polynomial of
    degree 1 to m/2 divides it: a reducible f has a factor of degree <= m/2."""
    return all(
        _pmod(f, _digits(code, p, d) + [1], p)
        for d in range(1, (len(f) - 1) // 2 + 1)
        for code in range(p**d)
    )


def _poly_text(coeffs: tuple[int, ...]) -> str:
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            x = "x" if d == 1 else f"x^{d}"
            parts.append(x if c == 1 else f"{c}{x}")
    return " + ".join(parts) if parts else "0"


class FieldContext:
    """GF(p^m) under the canonical modulus; elements are integer codes.

    Fields compare and hash by (p, m, modulus), so two constructions of one
    field are equal, and so are the code specs built on them.

    Every field has the same kernel: add, sub, neg and mul are plain
    functions bound at construction over exp/log and Zech tables; mul_row
    and add_row return whole rows, indexed by element code.
    """

    __slots__ = (
        "p", "m", "q", "modulus",
        "add", "sub", "neg", "mul", "add_row",
        "_exp", "_log", "_by_log", "_trace_t", "_eta_t",
    )

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = q = p**m
        self.modulus = modulus
        self._trace_t = None
        self._eta_t = None

        # exp holds g^i for 0 <= i <= 2n-2, then zeros from index `zero`, the
        # log of 0, on: log a + log b < 2n-1 for nonzero a, b, and it lands
        # in the zero tail (at most 2*zero) when either is 0.
        n = q - 1
        zero = 2 * n - 1
        powers = self._powers()
        exp = powers + powers[: n - 1] + [0] * (2 * n)
        log = [zero] * q
        for i, x in enumerate(powers):
            log[x] = i
        self._exp = exp
        self._log = log
        by_log = self._by_log = itemgetter(*log)
        self.mul = lambda a, b: exp[log[a] + log[b]]
        # -1 = g^h: h = n/2 in odd characteristic, h = 0 in characteristic 2
        h = n // 2 if p != 2 else 0
        self.neg = neg = list(by_log(exp[h:])).__getitem__

        # Zech's logarithms.  zech[d] for d = log b - log a, as a Python index
        # (negative d counts from the end), holds four regions of n entries
        # (the last one n-1): Z(d) for 0 <= d < n, where Z(h) = zero because
        # g^h = -1 (h = n/2 in odd characteristic, 0 in characteristic 2);
        # 0 for b = 0 (d = zero - log a), giving exp[log a] = a;
        # log b - zero for a = 0 (d = log b - zero), giving exp[log b] = b;
        # and Z(n + d) for -n < d < 0.  a = b = 0 gives d = 0 and
        # exp[zero + Z(0)] = 0.  g^Z(i) = 1 + g^i: adding 1 steps the lowest
        # digit, wrapping at p.
        cyc = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in powers]
        pad = [0] * n
        zech = cyc + pad + [i - zero for i in range(n)] + cyc[1:]
        self.add = add = lambda a, b: exp[log[a] + zech[log[b] - log[a]]]
        self.sub = lambda a, b: add(a, neg(b))

        def add_row(b: int):
            # b + a = exp[log b + Z(log a - log b)]: Z turned by log b, read
            # in element order, then gathered from exp shifted by log b
            if b == 0:
                # a list, not a range: the encoder indexes rows per symbol,
                # and a range indexes about half as fast
                return list(range(q))
            lb = log[b]
            rot = cyc[n - lb:] + cyc[: n - lb] + pad
            return itemgetter(*by_log(rot))(exp[lb:])

        self.add_row = add_row

    def _powers(self) -> list[int]:
        """g^0, ..., g^(q-2) for the first element g, in code order, of order q-1."""
        p, m, q, f = self.p, self.m, self.q, self.modulus
        n = q - 1
        factors = _prime_factors(n)
        # codes below p form the prime subfield, whose orders divide p - 1
        for g in range(p if m > 1 else 1, q):
            gd = _digits(g, p, m)
            if all(_ppowmod(gd, n // r, f, p) != [1] for r in factors):
                break
        else:
            raise AssertionError(f"GF({q}) has no element of order {n}")
        if p == 2:
            return self._powers_char2(g)
        # odd characteristic: step the coefficient list of g^i by one product
        out = [1]
        power = gd
        for _ in range(n - 1):
            out.append(_code(power, p))
            power = _pmulmod(gd, power, f, p)
        return out

    def _powers_char2(self, g: int) -> list[int]:
        """Powers of g as bit vectors, each the last one times g by a
        carry-less product: Horner over g's bits, high first, where times x
        is a shift and an XOR with the modulus when bit m is set."""
        q = self.q
        poly = sum(c << i for i, c in enumerate(self.modulus))
        low_bits = [b == "1" for b in bin(g)[3:]]  # below g's top bit
        out = []
        v = 1
        for _ in range(q - 1):
            out.append(v)
            w = v
            for bit in low_bits:
                w <<= 1
                if w & q:
                    w ^= poly
                if bit:
                    w ^= v
            v = w
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, m={self.m}, modulus={self.modulus_text()!r})"

    def modulus_text(self) -> str:
        return _poly_text(self.modulus)

    def validate_element(self, x: int) -> int:
        if not _is_int(x) or not 0 <= x < self.q:
            raise ParameterOutOfRangeError(
                f"element code {x!r} not in range(0, {self.q})"
            )
        return x

    def elements(self) -> range:
        """All q elements in ascending code order."""
        return range(self.q)

    # -- ring operations ------------------------------------------------
    # add(a, b), sub(a, b), neg(a) and mul(a, b) are bound in __init__;
    # add_row(b)[a] = a + b, likewise bound.

    def mul_row(self, a: int) -> tuple[int, ...]:
        """Row a of the multiplication table: mul_row(a)[b] = a * b."""
        return self._by_log(self._exp[self._log[a]:])

    def _mul_poly(self, a: int, b: int) -> int:
        """Reference product of codes a and b by polynomial multiplication."""
        p, m = self.p, self.m
        return _code(_pmulmod(_digits(a, p, m), _digits(b, p, m), self.modulus, p), p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of the zero element")
        return self._exp[-self._log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of the zero element")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    # -- field-theoretic maps --------------------------------------------

    def trace(self, x: int) -> int:
        """Trace to F_p; the result is a prime-subfield code in range(p)."""
        t = self._trace_t
        if t is None:
            t = self._build_trace_table()
        return t[x]

    def _build_trace_table(self) -> list[int]:
        # The trace is F_p-linear, so Tr(x) = sum of x's digits times the
        # traces of the basis elements x^i (codes p^i), each summed over the
        # Frobenius orbit y, y^p, ..., y^(p^(m-1)).
        p = self.p
        table = [0]
        for i in range(self.m):
            y = s = p**i
            for _ in range(self.m - 1):
                y = self.pow(y, p)
                s = self.add(s, y)
            if s >= p:
                raise AssertionError(f"trace of {p**i} landed outside the prime subfield")
            table = [(v + d * s) % p for d in range(p) for v in table]
        self._trace_t = table
        return table

    def quadratic_character(self, x: int) -> int:
        """eta(x) in {-1, 0, +1}; raises in characteristic 2."""
        if self.p == 2:
            raise CharacteristicTwoError(
                "quadratic character undefined in characteristic 2"
            )
        t = self._eta_t
        if t is None:
            # x = g^log(x) is a square exactly when log(x) is even
            t = [1 - ((e & 1) << 1) for e in self._log]
            t[0] = 0
            self._eta_t = t
        return t[x]


def min_weight_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible degree-m polynomial with smallest-coded coefficients."""
    for code in range(p**m):
        f = _digits(code, p, m) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {m} over F_{p}")


def build_field(p: int, m: int) -> FieldContext:
    """Construct GF(p^m) with the canonical modulus.

    Raises InvalidPrimeError for composite p, ParameterOutOfRangeError for
    m < 1, and SizeLimitError when p^m exceeds the field-size bound
    DEFAULT_MAX_Q.  The checks run in that order, except that p is held to
    the bound before the primality test, so a huge p is refused at once and
    never trial-divided; a huge m is refused before p^m is formed.
    Two calls with the same (p, m) give equal fields.
    """
    if not _is_int(p) or p < 2:
        raise InvalidPrimeError(f"p must be prime (got {p!r})")
    if p > DEFAULT_MAX_Q:
        raise SizeLimitError(
            f"characteristic p = {p} exceeds the configured field-size bound {DEFAULT_MAX_Q}",
            budget=DEFAULT_MAX_Q,
        )
    if not is_prime(p):
        raise InvalidPrimeError(f"p must be prime (got {p!r})")
    if not _is_int(m) or m < 1:
        raise ParameterOutOfRangeError(f"extension degree m = {m!r} must be >= 1")
    # p >= 2, so p^m > DEFAULT_MAX_Q once 2^m > DEFAULT_MAX_Q: p^m is formed
    # only for a small m
    if m > DEFAULT_MAX_Q.bit_length() or p**m > DEFAULT_MAX_Q:
        raise SizeLimitError(
            f"field size q = {p}^{m} exceeds the configured bound {DEFAULT_MAX_Q}",
            budget=DEFAULT_MAX_Q,
        )
    return FieldContext(p, m, min_weight_modulus(p, m))
