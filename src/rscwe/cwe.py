"""Complete weight enumerators: brute force, closed forms, serialization.

A complete weight enumerator is stored sparsely as a map from exponent
vectors to positive integer coefficients.  The exponent vector of a codeword
has length q and entry t at index i when the element coded i appears t times
in the codeword, so every vector sums to the code length n.  When n < 256
every entry fits in a byte, and the map is stored with bytes keys: they take
a fraction of a tuple's memory, cache their hash, and compare, sum and write
in C.  Otherwise the keys are tuples.  The public face is tuples either way:
CwePolynomial(q, n, terms) takes tuple keys, each checked by term_problem,
and .terms, sorted_terms and the cwe_equal mismatch give tuples back.  The
builders and deserialize hand over maps with the stored keys, checked by
length, sum and coefficient (_adopt), so no term skips validation.

Every enumerator here is built by one expansion, _expand, from translation
orbits (base, tops, coeff): adding g to the constant coefficient of a message
translates the composition of its word by g, so an orbit stands for the q
translates of base, each under every leading coefficient in tops with
multiplicity coeff; the extended code appends the leading coefficient, which
does not move with g.  The translates of base by one coset of its stabilizer
are one word, so _expand emits one translate per coset, at the coset's size,
and a closed form costs about what it outputs.  It holds a word as one int,
one lane per element code, and as codes add digit by digit in base p, each
translate is one shift-and-mask step from another (FieldContext.lane_steps)
rather than a gather of q entries.  closed_form picks a spec's builder and
bounds its output from the orbit family counts, before listing any.

The closed-form builders list the orbits of the published closed forms; the
two dimension-3 forms share one lister, _k3_orbits.  Four places deviate from
the printed displays because the printed version fails a mass, degree, or
binding check and the brute-force oracle confirms the correction; the module
errata lists them (ERRATA_LEDGER).  The oracle, cwe_bruteforce, takes its
orbits from the encoder alone, with no formula and no character sum, and a
test pins it to a literal per-codeword tally, so a fault in the shared
expansion cannot hide behind agreement between the two routes.

serialize and render_terms write the terms in one canonical order, by
exponent vector, without building an object per term.  deserialize reads a
document exactly as serialize writes it by splitting on its fixed separators
(_read_canonical), and any other document through json.loads.
"""

from __future__ import annotations

import json
import re
import struct
from collections import Counter
from collections.abc import Callable, ItemsView, Iterator, Mapping
from functools import partial
from math import gcd
from itertools import compress, product, repeat
from operator import eq, itemgetter, lt, not_
from types import MappingProxyType

from . import codes
from .codes import CodeSpec
from .errors import ParameterOutOfRangeError, ParseError, ShapeMismatchError
from .gf import FieldContext, build_field

ExponentVector = tuple[int, ...]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def term_problem(q: int, n: int, exps: ExponentVector, coeff) -> tuple[str, str] | None:
    """None when coeff * w^exps is a valid term of an enumerator in q
    variables of code length n; otherwise (field, message), where field names
    what is wrong: "e[j]" for exponent j, "e" for the vector, "c" for coeff.

    A valid term has a tuple of q integer exponents >= 0 that sum to n and a
    positive integer coefficient; bool is not an integer here.
    """
    if not isinstance(exps, tuple):
        return "e", f"exponent vector must be a tuple, got {type(exps).__name__}"
    # one C-level pass over the types (bool's type is not int); the loop
    # runs only to name a bad exponent, or to accept an int subclass
    if not {int}.issuperset(map(type, exps)):
        for j, t in enumerate(exps):
            if not _is_int(t):
                return f"e[{j}]", f"expected an integer exponent, got {t!r}"
    if len(exps) != q:
        return "e", f"exponent vector has length {len(exps)}, expected q={q}"
    if min(exps) < 0:
        return "e", "negative exponent"
    if sum(exps) != n:
        return "e", f"exponents sum to {sum(exps)}, expected code length {n}"
    if not _is_int(coeff) or coeff < 1:
        return "c", f"coefficient {coeff!r} must be a positive int"
    return None


_BYTES_BELOW = 256  # every exponent of a shorter code fits in a byte


def _packer(n: int) -> type:
    """The type of the stored exponent vectors of a map over code length n."""
    return bytes if n < _BYTES_BELOW else tuple


class _TupleKeys(Mapping):
    """Read-only view of a bytes-keyed term map, with tuple keys."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        self._terms = terms

    def __getitem__(self, exps):
        try:
            key = bytes(exps) if isinstance(exps, tuple) else None
        except (TypeError, ValueError):  # not a vector of byte-sized ints
            key = None
        coeff = self._terms.get(key)
        if coeff is None:
            raise KeyError(exps)
        return coeff

    def __iter__(self) -> Iterator[ExponentVector]:
        return map(tuple, self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self):
        return _TupleItems(self)

    def values(self):
        return self._terms.values()


class _TupleItems(ItemsView):
    """(tuple, coefficient) pairs, in one pass over the stored map."""

    __slots__ = ()

    def __iter__(self):
        terms = self._mapping._terms
        return zip(map(tuple, terms), terms.values())


class CwePolynomial:
    """Sparse homogeneous polynomial in the q variables w_0 .. w_{q-1}.

    The constructor takes a map with tuple keys, refuses any term that
    term_problem names, or a shape (q, n) that is not two integers, and
    stores a copy with bytes keys when n < 256 (tuple keys otherwise); the
    shape and the terms are then read-only.  .terms is a read-only view with
    tuple keys either way.
    """

    __slots__ = ("q", "n", "_terms")

    def __init__(self, q: int, n: int, terms: Mapping[ExponentVector, int] | None = None):
        if not (_is_int(q) and _is_int(n)) or q < 1 or n < 0:
            raise ParameterOutOfRangeError(f"bad CWE shape q={q!r}, n={n!r}")
        pack = _packer(n)
        stored = {}
        for exps, coeff in terms.items() if terms else ():
            problem = term_problem(q, n, exps, coeff)
            if problem:
                raise ParameterOutOfRangeError(problem[1])
            stored[pack(exps)] = coeff
        self._set(q, n, stored)

    def _set(self, q: int, n: int, terms: dict) -> None:
        # set once: the shape stays the one the terms were checked at
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def _adopt(cls, q: int, n: int, terms: dict) -> CwePolynomial:
        """The enumerator that owns terms, a map keyed as _packer(n) stores,
        or ParameterOutOfRangeError: bytes keys are checked by length and
        sum, as no entry can be negative or other than int, tuple keys by
        term_problem, and every coefficient must be an int >= 1."""
        if n >= _BYTES_BELOW:
            valid = not any(term_problem(q, n, e, c) for e, c in terms.items())
        else:
            keys, values = terms.keys(), terms.values()
            valid = (
                {bytes}.issuperset(map(type, keys))
                and {q}.issuperset(map(len, keys))
                and {n}.issuperset(map(sum, keys))
                and {int}.issuperset(map(type, values))
                and min(values, default=1) >= 1
            )
        if not valid:
            raise ParameterOutOfRangeError(f"a term is not valid for q={q}, n={n}")
        cwe = object.__new__(cls)
        cwe._set(q, n, terms)
        return cwe

    def __setattr__(self, name, value=None):
        raise AttributeError(f"CwePolynomial is read-only; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle go through the constructor
        return CwePolynomial, (self.q, self.n, dict(self.terms.items()))

    @property
    def terms(self) -> Mapping[ExponentVector, int]:
        """The term map, exponent vector (a tuple) -> coefficient, read-only;
        a view that converts the stored bytes keys when n < 256."""
        if self.n < _BYTES_BELOW:
            return _TupleKeys(self._terms)
        return MappingProxyType(self._terms)

    def mass(self) -> int:
        """Sum of all coefficients; equals q^k for a k-dimensional code."""
        return sum(self._terms.values())

    def _sorted_items(self) -> list[tuple[bytes | ExponentVector, int]]:
        """(stored vector, coefficient) pairs, ascending by vector: the
        canonical order.  Bytes of one length compare as the tuples of their
        entries do, but in C.  Terms that already ascend, as deserialize
        leaves them, are taken as they are after one pass of comparisons."""
        keys = list(self._terms)
        if all(map(lt, keys, keys[1:])):
            return list(self._terms.items())
        return sorted(self._terms.items(), key=itemgetter(0))

    def sorted_terms(self) -> list[tuple[ExponentVector, int]]:
        """(exponent vector, coefficient) pairs, ascending by vector: the
        canonical order, which serialize and render_terms write."""
        items = self._sorted_items()
        if self.n < _BYTES_BELOW:
            return [(tuple(e), c) for e, c in items]
        return items

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[ExponentVector]:
        return iter(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CwePolynomial):
            return NotImplemented
        return (self.q, self.n, self._terms) == (other.q, other.n, other._terms)

    __hash__ = None

    def __repr__(self):
        return f"CwePolynomial(q={self.q}, n={self.n}, {len(self._terms)} terms)"


def cwe_equal(
    a: CwePolynomial, b: CwePolynomial
) -> tuple[bool, tuple[ExponentVector, int, int] | None]:
    """Exact map equality; on mismatch also return the lexicographically
    smallest differing exponent vector with both coefficients (0 = absent)."""
    if (a.q, a.n) != (b.q, b.n):
        raise ShapeMismatchError(
            f"cannot compare shapes (q={a.q}, n={a.n}) and (q={b.q}, n={b.n})"
        )
    if a._terms == b._terms:
        return True, None
    for exps in sorted(a._terms.keys() | b._terms.keys()):
        ca = a._terms.get(exps, 0)
        cb = b._terms.get(exps, 0)
        if ca != cb:
            return False, (tuple(exps), ca, cb)
    raise AssertionError("maps differ but no differing term found")


def weight_distribution(cwe: CwePolynomial) -> list[int]:
    """A[i] = number of codewords of Hamming weight i, from the CWE."""
    dist = [0] * (cwe.n + 1)
    for exps, coeff in cwe._terms.items():
        dist[cwe.n - exps[0]] += coeff
    return dist


def cwe_bruteforce(spec: CodeSpec, *, budget: int | None = None) -> CwePolynomial:
    """Tally the composition vector of every codeword, by translates.

    Adding g to f_0 adds g to the value at every point, so the word of f + g
    has the composition of f's word translated by g.  Only the q^(k-1)
    messages with f_0 = 0 are encoded; each distinct composition is an orbit
    of the one expansion (_expand), which counts it under all q translates.
    The extension symbol f_{k-1} does not move and is the orbit's top, except
    for k = 1, where it is f_0 and moves with the word.  Every codeword is
    still counted once, and no character sum is used.  The budget counts all
    q^k codewords.
    """
    codes.check_budget(spec, budget)
    q = spec.ctx.q
    messages = ((0, *rest) for rest in product(range(q), repeat=spec.k - 1))
    words = map(codes._encoder(spec), messages)
    # a sorted word is a composition, and cheaper to make than its vector
    fixed_top = spec.extended and spec.k > 1
    if fixed_top:
        slices = Counter((w[-1], tuple(sorted(w[:-1]))) for w in words)
    else:
        # nothing is appended: the one top only counts the word once
        slices = Counter((0, tuple(sorted(w))) for w in words)
    pack = _packer(spec.length)
    orbits = []
    for (top, symbols), count in slices.items():
        exps = [0] * q
        for s in symbols:
            exps[s] += 1
        orbits.append((pack(exps), (top,), count))
    return _expand(spec.ctx, spec.n if fixed_top else spec.length, fixed_top, orbits)


# -- translation orbits -------------------------------------------------------


def _translator(ctx: FieldContext, g: int):
    """shift(e) is the tuple whose entry rho is e[rho - g].

    When e counts the symbols of a word, shift(e) counts those of the word
    plus g, so one gather through an add row replaces a loop over the word.
    """
    return itemgetter(*ctx.add_row(ctx.neg(g)))


def _stabilizer(ctx: FieldContext, base) -> tuple[list[int], list[int]]:
    """A basis over F_p of the translation stabilizer H = {h : shift_h(base)
    == base}, an additive subgroup, and the free digits: the codes whose
    digits are zero outside them are one element of each coset of H.

    Each level set L of base is a union of cosets of H, so |H| divides the
    p-part of the gcd of their sizes, and the search ends when the span
    found is that large.  h maps L onto itself, so h is in L - a0 for a0 in
    L; the smallest L gives the fewest candidates.  Codes add digit by digit
    in base p, and each basis element claims a pivot digit, zero in the
    earlier ones, so reps keeps one code of L per coset of the span: a
    candidate maps L into L exactly when it maps reps into L, checked with
    one gather too when base has other level sets.  The free digits are the
    ones no basis element claims.
    """
    p = ctx.p
    sizes = {v: base.count(v) for v in set(base)}
    bound, rest = 1, gcd(*sizes.values())
    while rest % p == 0:  # |H|, a power of p, divides every level set's size
        bound, rest = bound * p, rest // p
    if bound == 1:
        return [], list(range(ctx.m))
    value = min(sizes, key=sizes.__getitem__)
    reps = list(compress(range(ctx.q), map(eq, base, repeat(value))))
    inside = set(reps)
    ref = tuple(base) if len(sizes) > 2 else None
    basis, units = [], []
    i = 1
    while i < len(reps) and p ** len(basis) < bound:
        h = ctx.sub(reps[i], reps[0])
        i += 1
        # from Python 3.11 on, issuperset of an iterator stops at the first
        # miss, and it is faster than all(map(inside.__contains__, ...))
        # when every code is inside
        if not inside.issuperset(map(ctx.add, reps, repeat(h))) or (
            ref is not None and _translator(ctx, h)(base) != ref
        ):
            continue
        unit = 1  # p^pivot, the lowest nonzero digit of h
        while h // unit % p == 0:
            unit *= p
        basis.append(h)
        units.append(unit)
        reps, i = [t for t in reps if not t // unit % p], 1
    return basis, [j for j in range(ctx.m) if p**j not in units]


def _expand(ctx: FieldContext, n: int, extended: bool, orbits: list) -> CwePolynomial:
    """The enumerator over n points of a list of translation orbits.

    An orbit (base, tops, coeff) stands for the q words base + g, g in F_q,
    each under every leading coefficient t in tops with multiplicity coeff;
    base counts the symbols of a word over the n points (a list, a tuple,
    or bytes to hold many in little memory).  When extended, the word plus g
    gets one symbol t per top, added after translating; otherwise it counts
    coeff * |tops| times.  Orbits with the same base are merged, and each is
    emitted once per coset of its stabilizer (_stabilizer), at the coset's
    size.

    A vector is held as one int, entry rho in the lane of w bits at bit
    w*rho: w = 8 when every entry of the enumerator fits in a byte, and 16
    otherwise.  The translates of base by the codes whose digits are zero
    outside the free ones are walked digit by digit, each one shift-and-mask
    step (FieldContext.lane_steps) from another, and each is read out once,
    as the stored key (_packer): the lanes' bytes, or a tuple of 16-bit
    lanes.  An extended term adds 1 in the top's lane: to the int, read out
    per term, with byte lanes; to a list copy of the one tuple read out per
    translate otherwise, as reading 16-bit lanes costs about what the
    term's tuple does.
    """
    q, p = ctx.q, ctx.p
    merged: dict = {}
    for base, tops, coeff in orbits:
        key = base if isinstance(base, bytes) else tuple(base)
        merged.setdefault(key, []).append((tops, coeff))
    length = n + 1 if extended else n
    pack = _packer(length)
    if pack is bytes:
        w, to_lanes, from_lanes = 8, bytes, None
    else:
        # little-endian on every machine, as the ints are read and written
        layout = struct.Struct(f"<{q}H")

        def to_lanes(base):
            try:
                low = bytes(base)
            except ValueError:  # an entry past 255
                return layout.pack(*base)
            lanes = bytearray(2 * q)  # the high bytes are 0
            lanes[::2] = low
            return lanes

        w, from_lanes = 16, layout.unpack
    width = w // 8 * q  # bytes per vector
    steps = ctx.lane_steps(w)
    terms: dict = {}
    for base, families in merged.items():
        free = _stabilizer(ctx, base)[1]
        size = q // p ** len(free)
        words = [int.from_bytes(to_lanes(base), "little")]
        for low, high, up, down in map(steps.__getitem__, free):
            # word i + len(words) is word i translated by p^j, for p - 1 runs
            for i in range((p - 1) * len(words)):
                x = words[i]
                words.append(((x & low) << up) | ((x & high) >> down))
        vectors = map(int.to_bytes, words, repeat(width), repeat("little"))
        if from_lanes is not None:
            vectors = map(from_lanes, vectors)
        if not extended:
            weight = size * sum(coeff * len(tops) for tops, coeff in families)
            for key in vectors:
                terms[key] = terms.get(key, 0) + weight
            continue
        families = [(tops, coeff * size) for tops, coeff in families]
        if from_lanes is None:
            # a byte lane holds n + 1: add the top's lane, read the sum
            bumps = [(1 << 8 * t, coeff) for tops, coeff in families for t in tops]
            for x in words:
                for bump, coeff in bumps:
                    key = (x + bump).to_bytes(width, "little")
                    terms[key] = terms.get(key, 0) + coeff
            continue
        for word in vectors:
            bumped = list(word)
            for tops, coeff in families:
                for t in tops:
                    bumped[t] += 1
                    key = pack(bumped)
                    bumped[t] -= 1
                    terms[key] = terms.get(key, 0) + coeff
    return CwePolynomial._adopt(q, length, terms)


# -- closed forms -------------------------------------------------------------


def _constants(q: int, n: int) -> tuple[list[int], tuple[int], int]:
    """The orbit of the q constant messages of a closed form over n points:
    w_rho^n at coefficient 1, with leading coefficient 0 (ERRATA_LEDGER
    entries 1 and 4)."""
    base = [0] * q
    base[0] = n
    return base, (0,), 1


def _scalings(ctx: FieldContext, word: bytes) -> list[bytes]:
    """For g1 = 1 .. q-1, the word whose entry at rho is word[rho / g1]: one
    gather each, held as bytes (q - 1 words in q^2 bytes)."""
    return [bytes(itemgetter(*ctx.mul_row(ctx.inv(g1)))(word)) for g1 in range(1, ctx.q)]


def cwe_rs2(
    ctx: FieldContext, alpha: tuple[int, ...], extended: bool = False
) -> CwePolynomial:
    """Dimension-2 closed form, any evaluation set of n >= 2 distinct points.

    Constants contribute w_rho^n each; the message g1*x + g0 with g1 != 0
    contributes the product of w over the n distinct values g0 + g1*alpha_i,
    the translate by g0 of the indicator of g1*alpha.  The extended variant
    appends the leading coefficient, multiplying each term by w_0
    (constants) or w_{g1}.
    """
    spec = CodeSpec(ctx, 2, tuple(alpha), extended)
    q = ctx.q
    indicator = bytes(map(set(spec.alpha).__contains__, range(q)))
    bases = enumerate(_scalings(ctx, indicator), 1)
    orbits = [_constants(q, spec.n)] + [(base, (g1,), 1) for g1, base in bases]
    return _expand(ctx, spec.n, extended, orbits)


def _k3_orbits(ctx: FieldContext, dropped: int) -> list:
    """The orbits of the dimension-3 closed form on the full field (dropped =
    0) or on it minus one point beta (dropped = 1): a punctured word is the
    full-field word of its message minus the value at beta, as in
    counts.count_punctured."""
    q = ctx.q
    nonzero = range(1, q)
    # the all-ones word, missing the symbol 0 when punctured; on the full
    # field it is its own translate: (q - 1) * q in all
    line = [1 - dropped] + [1] * (q - 1)
    orbits = [_constants(q, q - dropped), (line, (0,), q - 1)]
    if ctx.p == 2:
        # punctured, with the orbit above, 2(q-1) times each translate when
        # plain; see ERRATA_LEDGER entry 3
        orbits.append((line, nonzero, 1))
        # for each g1, the kernel word: twice each g1*rho of trace 0, but 0
        # (trace 0 as well) once when punctured
        twice = bytes([2 - dropped] + [2 - 2 * ctx.trace(x) for x in nonzero])
        return orbits + [(base, nonzero, 1) for base in _scalings(ctx, twice)]
    # the profile translated by g1 has entry 1 + eps * eta(rho - g1)
    # (ERRATA_LEDGER entry 2); its entry at rho = g1 is 1, the count of the
    # point g1 itself
    eta = [ctx.quadratic_character(x) for x in range(q)]
    for eps in (1, -1):
        profile = [1 + eps * e for e in eta]
        signed = [g for g in nonzero if eta[g] == eps]
        if not dropped:
            # the q linear coefficients only move the vertex: q words alike
            orbits.append((profile, signed, q))
            continue
        # as the linear coefficient runs over F_q, the value at beta, less the
        # translate, takes each sigma profile[sigma] times
        for sigma, times in enumerate(profile):
            if times:
                word = profile.copy()
                word[sigma] -= 1
                orbits.append((word, signed, times))
    return orbits


def cwe_k3_fullfield(ctx: FieldContext, extended: bool = False) -> CwePolynomial:
    """Dimension-3 closed form on the full field (n = q), q >= 3."""
    q = ctx.q
    if q < 3:
        raise ParameterOutOfRangeError(f"q = {q} < 3 leaves no room for dimension 3")
    return _expand(ctx, q, extended, _k3_orbits(ctx, 0))


def cwe_k3_punctured(
    ctx: FieldContext, beta: int, extended: bool = False
) -> CwePolynomial:
    """Dimension-3 closed form on F_q minus one point (n = q-1), q >= 4.

    beta names the dropped point for documentation and validation.  Each
    word is the full-field word of its message minus the value at beta, and
    the values removed, over all messages, are the same whichever beta is
    dropped, so the enumerator does not depend on it (_k3_orbits).
    """
    q = ctx.q
    if q < 4:
        raise ParameterOutOfRangeError(f"q = {q} < 4 leaves no punctured room for dimension 3")
    ctx.validate_element(beta)
    return _expand(ctx, q - 1, extended, _k3_orbits(ctx, 1))


def closed_form(spec: CodeSpec) -> tuple[Callable[[], CwePolynomial], int]:
    """The closed form covering spec, as (build, bound): a call that builds
    it, and a bound on the terms it emits times their width max(q, code
    length), as each is a vector of q exponents.

    k=2 covers every evaluation set; k=3 covers the full field (n = q) and
    the field minus one point (n = q-1), as a spec's codes are distinct.
    Any other spec raises ParameterOutOfRangeError, after O(n) work, before
    anything is built.  The bound counts the orbit families: each emits once
    per coset of its words' stabilizer and, when extended, per top.  The
    stabilizers counted are F_q for the full-field line and rs2 on the full
    field, and q/2 for the characteristic-2 kernel words on the full field;
    1 bounds the others.  A term stands for a codeword or more, so the bound
    is at most q^k times the width.
    """
    ctx, ext = spec.ctx, spec.extended
    q = ctx.q
    width = max(q, spec.length)
    if spec.k == 2:
        # the constants, then each g1's word: q translates, or one on F_q
        emits = q + (q - 1) * (1 if spec.n == q else q)
        return partial(cwe_rs2, ctx, spec.alpha, ext), emits * width
    if spec.k != 3:
        raise ParameterOutOfRangeError(
            f"no closed form for dimension k={spec.k} (use the brute method)"
        )
    dropped = q - spec.n
    if dropped == 0:
        build = partial(cwe_k3_fullfield, ctx, ext)
    elif dropped == 1:
        # the one code of range(q) that alpha misses
        build = partial(cwe_k3_punctured, ctx, q * (q - 1) // 2 - sum(spec.alpha), ext)
    else:
        raise ParameterOutOfRangeError(
            "no closed form for k=3 over this evaluation set; it must be the "
            "full field or the field minus one point (use the brute method)"
        )
    line = q if dropped else 1
    if ctx.p == 2:
        # the line under every top; q - 1 kernel words, 2 cosets on F_q
        kernel = (q - 1) * (q if dropped else 2)
        emits = line * (q if ext else 1) + kernel * (q - 1 if ext else 1)
    else:
        # per sign, one profile, or (q + 1) / 2 with one value removed
        profiles = 2 * ((q + 1) // 2 if dropped else 1)
        emits = line + profiles * q * ((q - 1) // 2 if ext else 1)
    return build, (q + emits) * width


def refuse_output_over_budget(bound: int, budget: int | None) -> None:
    """Raise SizeLimitError when the output bound of a closed form, as
    closed_form gives it, exceeds budget (default codes.DEFAULT_ENUM_BUDGET)."""
    what = f"closed-form output of up to {bound} (terms x max(q, code length))"
    codes.refuse_over_budget(bound, budget, what)


def cwe_formula(spec: CodeSpec, *, budget: int | None = None) -> CwePolynomial:
    """The enumerator of spec by the closed form covering it; refused with
    SizeLimitError, before any orbit is listed, when the bound closed_form
    gives exceeds budget (default codes.DEFAULT_ENUM_BUDGET)."""
    build, bound = closed_form(spec)
    refuse_output_over_budget(bound, budget)
    return build()


# -- canonical JSON -----------------------------------------------------------


# translate tables: exponent t in 0..9 to the digit of t, every other byte to
# NUL, which is not a digit; and back, digit to exponent
_DIGITS = b"0123456789".ljust(256, b"\0")
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _items_json(values) -> bytes | bytearray:
    """The items of the JSON array list(values), as json.dumps writes them.

    values is a stored vector, bytes or a tuple.  Exponents 0..9 take one
    digit each, written by two C passes into a comma template; a vector with
    a larger one goes through the encoder.
    """
    try:
        digits = bytes(values).translate(_DIGITS)
    except ValueError:  # an exponent past 255
        digits = b""
    if digits.isdigit():
        text = bytearray(b",") * (2 * len(digits) - 1)
        text[::2] = digits
        return text
    return _encode(list(values))[1:-1].encode()


def _code_header(spec: CodeSpec, n: int) -> dict:
    """The code's parameters, with code length n, as serialize and the
    weights printer write them; the keys are in sorted order."""
    return {
        "alpha": spec.alpha,
        "extended": spec.extended,
        "k": spec.k,
        "m": spec.ctx.m,
        "n": n,
        "p": spec.ctx.p,
    }


# serialize writes the header's keys, then the terms between these
_TERMS_OPEN = ',"terms":[{"c":'
_NEXT_TERM = ']},{"c":'
_VECTOR_OPEN = ',"e":['
_TERMS_CLOSE = "]}]}"


def serialize(spec: CodeSpec, cwe: CwePolynomial) -> str:
    """Canonical JSON: the bytes json.dumps(sort_keys=True, separators=(",",
    ":")) writes for the code's parameters and the terms, as {"c", "e"}
    objects ascending by exponent vector (the order of sorted_terms)."""
    if cwe.q != spec.ctx.q or cwe.n != spec.length:
        raise ShapeMismatchError(
            f"CWE shape (q={cwe.q}, n={cwe.n}) does not match the code "
            f"(q={spec.ctx.q}, length={spec.length})"
        )
    # "terms" sorts after every header key
    head = _encode(_code_header(spec, cwe.n))
    body = b",".join([
        b'{"c":%d,"e":[%b]}' % (c, _items_json(e))
        for e, c in cwe._sorted_items()
    ])
    return f'{head[:-1]},"terms":[{body.decode()}]}}'


def _expect_int(value, path: str) -> int:
    if not _is_int(value):
        raise ParseError(f"expected an integer, got {value!r}", path)
    return value


def _read_header(doc) -> tuple[CodeSpec, int]:
    """The code a parsed document names and its n, after checking every key
    but the terms, which must only be present."""
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object", "$")
    for key in ("p", "m", "k", "n", "extended", "alpha", "terms"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}", "$")
    p = _expect_int(doc["p"], "$.p")
    m = _expect_int(doc["m"], "$.m")
    k = _expect_int(doc["k"], "$.k")
    n = _expect_int(doc["n"], "$.n")
    extended = doc["extended"]
    if not isinstance(extended, bool):
        raise ParseError(f"expected a boolean, got {extended!r}", "$.extended")
    if not isinstance(doc["alpha"], list):
        raise ParseError("expected a list of element codes", "$.alpha")
    alpha = tuple(
        _expect_int(x, f"$.alpha[{i}]") for i, x in enumerate(doc["alpha"])
    )
    try:
        spec = CodeSpec(build_field(p, m), k, alpha, extended)
    except Exception as exc:
        raise ParseError(f"invalid code parameters: {exc}", "$") from exc
    if n != spec.length:
        raise ParseError(
            f"n = {n} but alpha and extended give length {spec.length}", "$.n"
        )
    return spec, n


# an exponent vector and a coefficient as json.dumps writes them
_VECTOR = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")
_COEFF = re.compile(r"[1-9][0-9]*")


def _digit_vectors(texts: list[str], q: int) -> list[bytes] | None:
    """The vectors written as texts, each 2q - 1 characters long, as bytes;
    None unless each is q exponents of one digit each, comma-separated."""
    if not texts:
        return []
    line = ",".join(texts)
    digits = line[::2].encode()  # other digits than 0-9 take several bytes
    if line[1::2] != "," * (len(line) // 2) or not digits.isdigit():
        return None
    raw = digits.translate(_FROM_DIGITS)
    return [raw[i:i + q] for i in range(0, len(raw), q)]


def _number_vector(text: str, pack: type):
    """The vector written as text, packed; None unless it is canonical."""
    if not _VECTOR.fullmatch(text):
        return None
    try:
        return pack(map(int, text.split(",")))
    except ValueError:  # an exponent past 255, or past the digit limit
        return None


def _read_canonical(text: str) -> tuple[CodeSpec, CwePolynomial] | None:
    """What deserialize returns for text when text is a valid enumerator
    exactly as serialize writes it; None for any other text.

    The header goes through json and must be written back unchanged; the
    terms are split on their separators.  The vectors of one-digit
    exponents are every second character of one line, translated to bytes
    in a C pass; any other must match the canonical number syntax.  Keys
    that strictly ascend prove the canonical order and that none repeats.
    """
    head_end = text.find(_TERMS_OPEN)
    if head_end < 0 or not text.endswith(_TERMS_CLOSE):
        return None
    head = text[:head_end]
    try:
        spec, n = _read_header(json.loads(head + ',"terms":[]}'))
    except (ValueError, RecursionError, ParseError):
        return None
    if _encode(_code_header(spec, n))[:-1] != head:
        return None
    q, pack = spec.ctx.q, _packer(n)
    body = text[head_end + len(_TERMS_OPEN):-len(_TERMS_CLOSE)]
    # coefficient, vector, coefficient, ...: the body is exactly the terms
    # when joining them back gives it
    pieces = body.replace(_VECTOR_OPEN, _NEXT_TERM).split(_NEXT_TERM)
    coeffs, vectors = pieces[::2], pieces[1::2]
    if _NEXT_TERM.join(map(_VECTOR_OPEN.join, zip(coeffs, vectors))) != body:
        return None
    if not all(map(_COEFF.fullmatch, coeffs)):
        return None
    short = list(map((2 * q - 1).__eq__, map(len, vectors)))
    digit_keys = _digit_vectors(list(compress(vectors, short)), q)
    if digit_keys is None:
        return None
    other_keys = [_number_vector(t, pack) for t in compress(vectors, map(not_, short))]
    # each key from its list, in the order of the vectors
    sources = (iter(other_keys), iter(map(pack, digit_keys)))
    keys = list(map(next, map(sources.__getitem__, short)))
    if None in other_keys or not all(map(lt, keys, keys[1:])):
        return None
    try:
        cwe = CwePolynomial._adopt(q, n, dict(zip(keys, map(int, coeffs))))
    except (ValueError, ParameterOutOfRangeError):  # a coefficient past the digit limit, a bad term
        return None
    return spec, cwe


def _read_json(text: str) -> tuple[CodeSpec, CwePolynomial]:
    """deserialize through json.loads: any document that holds the data of
    a valid enumerator, whatever its whitespace, key order or term order;
    ParseError names the JSON path of the first problem of any other."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, deep nesting
        raise ParseError(f"not valid JSON: {exc}", "$") from exc
    spec, n = _read_header(doc)
    if not isinstance(doc["terms"], list):
        raise ParseError("expected a list of terms", "$.terms")
    q, pack = spec.ctx.q, _packer(n)
    terms = {}
    for i, item in enumerate(doc["terms"]):
        if not isinstance(item, dict) or set(item) != {"e", "c"}:
            raise ParseError('expected an object with keys "e" and "c"', f"$.terms[{i}]")
        if not isinstance(item["e"], list):
            raise ParseError("expected a list of exponents", f"$.terms[{i}].e")
        exps, coeff = tuple(item["e"]), item["c"]
        problem = term_problem(q, n, exps, coeff)
        if problem:
            raise ParseError(problem[1], f"$.terms[{i}].{problem[0]}")
        key = pack(exps)
        if key in terms:
            raise ParseError("duplicate exponent vector", f"$.terms[{i}].e")
        terms[key] = coeff
    return spec, CwePolynomial._adopt(q, n, terms)


def deserialize(text: str) -> tuple[CodeSpec, CwePolynomial]:
    """Parse canonical JSON back into (CodeSpec, CwePolynomial).

    A document exactly as serialize writes it is read by splitting on its
    fixed separators (_read_canonical).  Any other goes through json.loads
    (_read_json), which accepts the same data with other whitespace, key
    order or term order, and raises ParseError, with the JSON path of the
    first problem, on anything else.
    """
    done = _read_canonical(text) if isinstance(text, str) else None
    return _read_json(text) if done is None else done


class _Powers(dict):
    """t -> the factor strings w[i]^t for i < width, made on first lookup."""

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, t: int) -> list[str]:
        row = self[t] = [f"w[{i}]^{t}" for i in range(self.width)]
        return row


def render_terms(cwe: CwePolynomial) -> list[str]:
    """Text form, one monomial per line: `c * w[i]^t ...`, sorted like JSON."""
    q = cwe.q
    powers = _Powers(q)
    positions = range(q)
    lines = []
    for exps, coeff in cwe._sorted_items():
        rows = map(powers.__getitem__, compress(exps, exps))
        factors = " ".join(map(list.__getitem__, rows, compress(positions, exps)))
        lines.append(f"{coeff} * {factors}")
    return lines
