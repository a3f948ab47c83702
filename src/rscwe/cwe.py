"""Complete weight enumerators: brute force, closed forms, serialization.

A complete weight enumerator is stored sparsely as a map from exponent
vectors to positive integer coefficients.  The exponent vector of a codeword
has length q and entry t at index i when the element coded i appears t times
in the codeword, so every vector sums to the code length n.  Every map is
stored with bytes keys, one big-endian lane per entry (_layout): one byte
wide when n < 256, and two bytes otherwise, up to n = 65,535.  Bytes keys
take a fraction of a tuple's memory, cache their hash, are not tracked by
the cyclic garbage collector, and compare as the tuples of their entries do,
in C.  The public face is tuples: CwePolynomial(q, n, terms) takes tuple
keys, each checked by term_problem, and .terms, sorted_terms and the
cwe_equal mismatch give tuples back.  The builders, deserialize, copy and
pickle hand over maps with the stored keys, checked by length, lane sum and
coefficient (_adopt), so no term skips validation.

Every enumerator here is built by one expansion, _expand, from translation
orbits (base, tops, coeff): adding g to the constant coefficient of a message
translates the composition of its word by g, so an orbit stands for the q
translates of base, each under every leading coefficient in tops with
multiplicity coeff; the extended code appends the leading coefficient, which
does not move with g.  The translates of base by one coset of its stabilizer
are one word, so _expand emits each distinct translate once, at the
stabilizer's size, and a closed form costs about what it outputs.  It holds
a word as one int, the int of its stored key, and as codes add digit by
digit in base p, each translate is one shift-and-mask step from another
(_lane_steps).  The walk over the digits skips a digit whose step leads back
to a word it already has (_translates), so it finds the stabilizer as it
goes.  closed_form picks a spec's builder and bounds its output from the
orbit family counts, before listing any.

The closed-form builders list the orbits of the published closed forms; the
two dimension-3 forms share one lister, _k3_orbits.  Four places deviate from
the printed displays because the printed version fails a mass, degree, or
binding check and the brute-force oracle confirms the correction; the module
errata lists them (ERRATA_LEDGER).  The oracle, cwe_bruteforce, takes its
orbits from the encoder alone, with no formula and no character sum: it
encodes the zero message and one message with f_0 = 0 of each class of q - 1
scalings, and each class reaches the expansion as its q - 1 scaled
compositions.  Its budget still counts all q^k codewords.  A test pins it to
a literal per-codeword tally, so a fault in the shared expansion cannot hide
behind agreement between the two routes.

serialize and render_terms write the terms in one canonical order, by
exponent vector, a chunk at a time (_chunks) by C passes over its lanes.
deserialize reads a document exactly as serialize writes it by splitting on
its fixed separators, and accepts what it read when serialize writes it back
byte for byte (_read_canonical); any other document goes through json.loads.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from collections.abc import Callable, ItemsView, Iterator, Mapping
from functools import cache, partial
from itertools import compress, cycle, product, repeat
from operator import itemgetter
from zlib import adler32

from . import codes
from .codes import CodeSpec
from .errors import ParameterOutOfRangeError, ParseError, RscweError, ShapeMismatchError
from .gf import FieldContext, _is_int, build_field

ExponentVector = tuple[int, ...]


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


def _layout(q: int, n: int) -> struct.Struct:
    """The stored form of the exponent vectors over code length n: q
    big-endian lanes, one byte wide when n < 256 and two bytes otherwise.
    Keys of one length then compare as the tuples of their entries do.
    Raises ParameterOutOfRangeError when n is past what a lane holds."""
    if n >= 1 << 16:
        raise ParameterOutOfRangeError(f"code length n = {n} is past 65535, the most a lane holds")
    return struct.Struct(f">{q}{'B' if n < 256 else 'H'}")


class _TupleKeys(Mapping):
    """Read-only view of a stored term map, with tuple keys."""

    __slots__ = ("_terms", "_layout")

    def __init__(self, terms: dict, layout: struct.Struct):
        self._terms = terms
        self._layout = layout

    def __getitem__(self, exps):
        try:
            key = self._layout.pack(*exps) if isinstance(exps, tuple) else None
        except struct.error:  # not q lane-sized ints
            key = None
        coeff = self._terms.get(key)
        if coeff is None:
            raise KeyError(exps)
        return coeff

    def __iter__(self) -> Iterator[ExponentVector]:
        return map(self._layout.unpack, self._terms)

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
        view = self._mapping
        return zip(map(view._layout.unpack, view._terms), view._terms.values())


class CwePolynomial:
    """Sparse homogeneous polynomial in the q variables w_0 .. w_{q-1}.

    The constructor takes a map with tuple keys, refuses any term that
    term_problem names, or a shape (q, n) that is not two integers with
    q >= 1 and 0 <= n < 2^16, and stores a copy keyed by the bytes of each
    vector's big-endian lanes (_layout); the shape and the terms are then
    read-only.  .terms is a read-only view with tuple keys.
    """

    __slots__ = ("q", "n", "_terms")

    def __init__(self, q: int, n: int, terms: Mapping[ExponentVector, int] | None = None):
        if not (_is_int(q) and _is_int(n)) or q < 1 or n < 0:
            raise ParameterOutOfRangeError(f"bad CWE shape q={q!r}, n={n!r}")
        pack = _layout(q, n).pack
        stored = {}
        for exps, coeff in terms.items() if terms else ():
            problem = term_problem(q, n, exps, coeff)
            if problem:
                raise ParameterOutOfRangeError(problem[1])
            stored[pack(*exps)] = coeff
        self._set(q, n, stored)

    def _set(self, q: int, n: int, terms: dict) -> None:
        # set once: the shape stays the one the terms were checked at
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def _adopt(cls, q: int, n: int, terms: dict) -> CwePolynomial:
        """The enumerator that owns terms, a map keyed as _layout(q, n)
        stores, or ParameterOutOfRangeError: every key must be bytes of the
        layout's size whose lanes sum to n, as no lane can be negative or
        other than int, and every coefficient an int >= 1.

        One-byte lanes (n < 256) are summed in C by adler32, whose low half
        is 1 + (byte sum mod 65521): a key sums to n exactly when that half
        is n + 1, as long as its byte sum stays below 65521.  That holds for
        q <= 256, since 256 bytes sum to at most 65,280, and past q = 256 for
        a key with at least q - 255 zero bytes, which every valid key has,
        as at most n <= 255 of its lanes are nonzero; such keys sum to at
        most 255 * 255.  Two-byte keys are unpacked to sum their lanes."""
        layout = _layout(q, n)
        keys, values = terms.keys(), terms.values()
        valid = (
            {bytes}.issuperset(map(type, keys))
            and {layout.size}.issuperset(map(len, keys))
            and (
                {n}.issuperset(map(sum, map(layout.unpack, keys)))
                if layout.size > q
                else {n + 1}.issuperset(map((0xFFFF).__and__, map(adler32, keys)))
                and (q <= 256 or min(map(bytes.count, keys, repeat(0)), default=q) >= q - 255)
            )
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

    def __reduce__(self):  # copy and pickle re-admit the stored map
        return CwePolynomial._adopt, (self.q, self.n, dict(self._terms))

    @property
    def terms(self) -> Mapping[ExponentVector, int]:
        """The term map, exponent vector (a tuple) -> coefficient, read-only;
        a view that unpacks the stored keys."""
        return _TupleKeys(self._terms, _layout(self.q, self.n))

    def mass(self) -> int:
        """Sum of all coefficients; equals q^k for a k-dimensional code."""
        return sum(self._terms.values())

    def _canonical(self) -> tuple[list[bytes], list[int]]:
        """The stored keys in the canonical order, and their coefficients:
        the keys sorted, as stored keys of one length compare as the tuples
        of their entries do, but in C, whatever order they were stored in."""
        keys = sorted(self._terms)
        return keys, list(map(self._terms.__getitem__, keys))

    def sorted_terms(self) -> list[tuple[ExponentVector, int]]:
        """(exponent vector, coefficient) pairs, ascending by vector: the
        canonical order, which serialize and render_terms write."""
        keys, coeffs = self._canonical()
        return list(zip(map(_layout(self.q, self.n).unpack, keys), coeffs))

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
    ta, tb = a._terms, b._terms
    if ta == tb:
        return True, None
    # the (key, coefficient) pairs in one map only are the differing keys
    exps = min(ta.items() ^ tb.items())[0]
    return False, (_layout(a.q, a.n).unpack(exps), ta.get(exps, 0), tb.get(exps, 0))


def weight_distribution(cwe: CwePolynomial) -> list[int]:
    """A[i] = number of codewords of Hamming weight i, from the CWE."""
    dist = [0] * (cwe.n + 1)
    lane = _layout(cwe.q, cwe.n).size // cwe.q  # the bytes of w_0's exponent
    for exps, coeff in cwe._terms.items():
        dist[cwe.n - int.from_bytes(exps[:lane], "big")] += coeff
    return dist


def cwe_bruteforce(spec: CodeSpec, *, budget: int | None = None) -> CwePolynomial:
    """Tally the composition vector of every codeword, by translates and
    scalings.

    Adding g to f_0 adds g to the value at every point, so the word of f + g
    has the composition of f's word translated by g, and each composition
    of a message with f_0 = 0 is an orbit of the one expansion (_expand),
    which counts it under all q translates.  The extension symbol f_{k-1}
    does not move and is the orbit's top, except for k = 1, where it is f_0
    and moves with the word.  Scaling f by c != 0 moves each value v to c*v,
    so entry rho of the scaled word's composition is entry rho / c of f's
    (_scalers), and the top becomes c*t.  So only the zero message and the
    messages with f_0 = 0 whose first nonzero coefficient is 1 are encoded,
    (q^(k-1) - 1) / (q - 1) + 1 in all; each but the zero message stands for
    its q - 1 scalings, and equal scaled orbits are added together before
    the expansion.  Every codeword is still counted once, and no character
    sum is used.  The budget counts all q^k codewords.
    """
    codes.check_budget(spec, budget)
    ctx, k = spec.ctx, spec.k
    q = ctx.q
    encode = codes._encoder(spec)
    fixed_top = spec.extended and k > 1
    # without a fixed top nothing is appended: the one top 0 counts the word once
    body = slice(-1 if fixed_top else None)
    # the zero message is its own class, under top 0
    zero = encode((0,) * k)[body]
    orbits = [(list(map(zero.count, range(q))), (0,), 1)]
    # f_0 = 0 and f_j = 1, the first nonzero coefficient: one message per class
    leads = (
        (0,) * j + (1, *rest) for j in range(1, k) for rest in product(range(q), repeat=k - 1 - j)
    )
    # a sorted word is a composition, and cheaper to make than its vector
    classes = Counter(
        (w[-1] if fixed_top else 0, tuple(sorted(w[body]))) for w in map(encode, leads)
    )
    scalers = _scalers(ctx)
    scaled = Counter()
    for (top, symbols), count in classes.items():
        # f is not constant, so it takes each value at most k - 1 times: a
        # byte holds each entry
        exps = bytearray(q)
        for s in symbols:
            exps[s] += 1
        # keyed by (top, composition): two pairs of an extended code can sum
        # to one exponent vector
        for t, scale in zip(ctx.mul_row(top)[1:], scalers):
            scaled[t, bytes(scale(exps))] += count
    orbits += [(base, (t,), count) for (t, base), count in scaled.items()]
    return _expand(ctx, spec.n if fixed_top else spec.length, fixed_top, orbits)


# -- translation orbits -------------------------------------------------------


def _expand(ctx: FieldContext, n: int, extended: bool, orbits: list) -> CwePolynomial:
    """The enumerator over n points of a list of translation orbits.

    An orbit (base, tops, coeff) stands for the q words base + g, g in F_q,
    each under every leading coefficient t in tops with multiplicity coeff;
    base counts the symbols of a word over the n points (a list, a tuple,
    or bytes to hold many in little memory).  When extended, the word plus g
    gets one symbol t per top, added after translating; otherwise it counts
    coeff * |tops| times.  Orbits with the same base are merged, and each
    distinct translate of a base is emitted once (_translates), at the size
    q / (number of distinct translates) of the base's translation stabilizer.

    A vector is held as one int, its stored key (_layout) read big-endian:
    entry rho in the lane of w bits at bit w*(q-1-rho), w = 8 when every
    entry of the enumerator fits in a byte, and 16 otherwise, and each key
    is the int's bytes.  An extended term adds 1 in the top's lane to the
    int before it is read out.
    """
    q, p = ctx.q, ctx.p
    length = n + 1 if extended else n
    layout = _layout(q, length)
    merged: dict = {}
    for base, tops, coeff in orbits:
        merged.setdefault(layout.pack(*base), []).append((tops, coeff))
    width = layout.size  # bytes per vector
    w = 8 * width // q
    steps = _lane_steps(p, ctx.m, w)
    terms: dict = {}
    for base, families in merged.items():
        words = _translates(int.from_bytes(base, "big"), steps, p)
        size = q // len(words)
        if not extended:
            weight = size * sum(coeff * len(tops) for tops, coeff in families)
            for key in map(int.to_bytes, words, repeat(width), repeat("big")):
                terms[key] = terms.get(key, 0) + weight
            continue
        # a lane holds the code length, n + 1: add 1 in the top's lane
        bumps = [
            (1 << w * (q - 1 - t), coeff * size) for tops, coeff in families for t in tops
        ]
        for x in words:
            for bump, coeff in bumps:
                key = (x + bump).to_bytes(width, "big")
                terms[key] = terms.get(key, 0) + coeff
    return CwePolynomial._adopt(q, length, terms)


def _translates(x: int, steps: list, p: int) -> list[int]:
    """Each distinct translate of the vector x, packed as _expand holds it,
    once: x first, then a walk over the digits j, one shift-and-mask step
    per translate by p^j (steps, from _lane_steps).

    The words walked before digit j are the orbit O of x under the digits
    below j.  O + p^j is an orbit too, so it is O when x + p^j is in O, and
    the digit adds nothing; otherwise O + t*p^j, t in Z_p, are p disjoint
    orbits, as p is prime, and the walk appends the p - 1 new ones.
    """
    words = [x]
    for low, high, up, down in steps:
        if ((x & low) << up) | ((x & high) >> down) in words:
            continue
        # word i + len(words) is word i translated by p^j, for p - 1 runs
        for i in range((p - 1) * len(words)):
            y = words[i]
            words.append(((y & low) << up) | ((y & high) >> down))
    return words


@cache
def _lane_steps(p: int, m: int, w: int) -> list[tuple[int, int, int, int]]:
    """For each digit j of GF(p^m), (low, high, up, down) that translate a
    vector packed in big-endian lanes of w bits, entry rho at bit
    w*(q-1-rho), by p^j: entry rho of ((x & low) << up) | ((x & high) >>
    down) is entry rho - p^j of x.

    Codes add digit by digit, so adding p^j wraps the lanes whose digit j is
    p - 1 back to digit 0, up the int (low, up = w * (p-1) * p^j), and moves
    the others down it by p^j lanes (high, down = w * p^j).  w is a
    multiple of 8.
    """
    q = p**m
    lane, empty = b"\xff" * (w // 8), bytes(w // 8)
    full = (1 << w * q) - 1
    steps = []
    for unit in (p**j for j in range(m)):
        wraps = (r // unit % p == p - 1 for r in range(q))
        low = int.from_bytes(b"".join(lane if x else empty for x in wraps), "big")
        steps.append((low, full ^ low, w * (p - 1) * unit, w * unit))
    return steps


# -- closed forms -------------------------------------------------------------


def _constants(q: int, n: int) -> tuple[list[int], tuple[int], int]:
    """The orbit of the q constant messages of a closed form over n points:
    w_rho^n at coefficient 1, with leading coefficient 0 (ERRATA_LEDGER
    entries 1 and 4)."""
    base = [0] * q
    base[0] = n
    return base, (0,), 1


def _scalers(ctx: FieldContext) -> list[itemgetter]:
    """For g1 = 1 .. q-1, the gather that scales a word by g1: entry rho of
    what it returns is entry rho / g1 of its argument (q - 1 rows of q)."""
    return [itemgetter(*ctx.mul_row(ctx.inv(g1))) for g1 in range(1, ctx.q)]


def _scalings(ctx: FieldContext, word: bytes) -> list[bytes]:
    """For g1 = 1 .. q-1, the word whose entry at rho is word[rho / g1]: one
    gather each, held as bytes (q - 1 words in q^2 bytes)."""
    return [bytes(scale(word)) for scale in _scalers(ctx)]


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
    anything is built.  The bound counts the orbit families: each emits one
    term per distinct translate of its word and, when extended, per top.
    Words fixed by a subgroup of translates are counted at their q / |H|
    translates: 1 for the full-field line and rs2 on the full field, whose
    H is F_q, and 2 for the characteristic-2 kernel words on the full field;
    q bounds the others.  A term stands for a codeword or more, so the bound
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

# entries per pass of the writers: few calls per term, small copies per pass
_CHUNK = 1 << 14


def _chunks(
    cwe: CwePolynomial, end: bytes = b"", wide_row: bytes = b""
) -> Iterator[tuple[list, list, bytes, list]]:
    """The canonical terms, _CHUNK entries at a time, as (coefficients, keys,
    lanes, wide).  wide indexes the vectors with an entry past 255, which
    the writers unpack with the layout; lanes holds the entries of every
    other vector as bytes (the low byte of a two-byte lane), and wide_row,
    if given, for each of those, each vector followed by end."""
    keys, coeffs = cwe._canonical()
    q, zeros = cwe.q, bytes(cwe.q)
    size = max(1, _CHUNK // q)
    for start in range(0, len(keys), size):
        chunk, rows, wide = keys[start:start + size], [], []
        if len(chunk[0]) == q:
            rows = chunk
        else:  # two-byte lanes: a vector whose high bytes are 0 is its low bytes
            for i, key in enumerate(chunk):
                if key[::2] == zeros:
                    rows.append(key[1::2])
                else:
                    wide.append(i)
                    if wide_row:
                        rows.append(wide_row)
        yield coeffs[start:start + size], chunk, end.join([*rows, b""]), wide


def _items_json(values) -> bytes:
    """The items of the JSON array list(values), as json.dumps writes them,
    through the encoder: the path of a vector with an exponent past 9."""
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
    objects ascending by exponent vector (the order of sorted_terms).

    Per chunk (_chunks), one translate makes the digits and one slice
    assignment puts them in a comma template, each vector led by a space.
    A vector the digits cannot write (an exponent past 9, or an entry past
    255) becomes %s, and its items come from the encoder.  Each space
    becomes the separator of a term, with %d for its coefficient, and one
    bytes % fills the chunk.  The chunks make one bytes object, decoded
    once."""
    if cwe.q != spec.ctx.q or cwe.n != spec.length:
        raise ShapeMismatchError(
            f"CWE shape (q={cwe.q}, n={cwe.n}) does not match the code "
            f"(q={spec.ctx.q}, length={spec.length})"
        )
    # "terms" sorts after every header key
    head = _encode(_code_header(spec, cwe.n))[:-1]
    q, unpack = cwe.q, _layout(cwe.q, cwe.n).unpack
    size = 2 * q  # bytes per vector in the template
    row = b" " + b"," * (size - 1)
    term = (_NEXT_TERM + "%d" + _VECTOR_OPEN).encode()
    pieces = []
    # a vector with an entry past 255 gets a row led by 255, which no digit writes
    for coeffs, keys, lanes, _ in _chunks(cwe, wide_row=b"\xff" + bytes(q - 1)):
        digits = lanes.translate(_DIGITS)
        text = bytearray(row) * len(coeffs)
        text[1::2] = digits
        view, parts, args, start = memoryview(text), [], [], 0
        nul = digits.find(0)
        while nul >= 0:
            i = nul // q
            parts.append(view[start * size:i * size])
            args += coeffs[start:i + 1]
            args.append(_items_json(unpack(keys[i])))
            start = i + 1
            nul = digits.find(0, start * q)
        parts.append(view[start * size:])
        args += coeffs[start:]
        pieces.append(b" %s".join(parts).replace(b" ", term) % tuple(args))
    if not pieces:
        return head + ',"terms":[]}'
    # each chunk opens with a term separator; the first term opens the list
    pieces[0] = (head + _TERMS_OPEN).encode() + pieces[0][len(_NEXT_TERM):]
    pieces.append(_TERMS_CLOSE.encode())
    text = b"".join(pieces)
    del pieces
    return text.decode()


def _expect_int(value, path: str) -> int:
    if not _is_int(value):
        raise ParseError(f"expected an integer, got {value!r}", path)
    return value


def _read_header(doc) -> tuple[CodeSpec, int]:
    """The code a parsed document names and its n.  It must hold the seven
    keys serialize writes and no other; the terms are not read here."""
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object", "$")
    wrong = sorted(doc.keys() ^ {"alpha", "extended", "k", "m", "n", "p", "terms"})
    if wrong:  # the first key, in sorted order, that is missing or not one of the seven
        raise ParseError(f"{'unexpected' if wrong[0] in doc else 'missing'} key {wrong[0]!r}", "$")
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
    except RscweError as exc:
        raise ParseError(f"invalid code parameters: {exc}", "$") from exc
    if n != spec.length:
        raise ParseError(
            f"n = {n} but alpha and extended give length {spec.length}", "$.n"
        )
    return spec, n


def _digit_vectors(texts: list[str], q: int, lane: int) -> list[bytes]:
    """The vectors written as texts, each 2q - 1 characters long, as keys
    of q lanes of lane bytes, read as q exponents of one digit each,
    comma-separated: every second character, translated in one C pass.
    Text of any other form gives keys that serialize does not write back."""
    raw = ",".join(texts)[::2].encode().translate(_FROM_DIGITS)
    if lane > 1:  # each digit is the low byte of its lane
        wide = bytearray(lane * len(raw))
        wide[lane - 1::lane] = raw
        raw = bytes(wide)
    size = lane * q
    return [raw[i:i + size] for i in range(0, len(raw), size)]


def _read_canonical(text: str) -> tuple[CodeSpec, CwePolynomial] | None:
    """What deserialize returns for text when text is a valid enumerator
    exactly as serialize writes it; None for any other text.

    The header goes through json, and the terms are split on their
    separators: the vectors of 2q - 1 characters through _digit_vectors,
    any other by int.  _adopt admits the map, and serialize must write the
    result back as text, byte for byte; that one comparison proves the
    syntax, the canonical order and that no vector repeats.
    """
    head_end = text.find(_TERMS_OPEN)
    if head_end < 0:
        return None
    try:
        spec, n = _read_header(json.loads(text[:head_end] + ',"terms":[]}'))
    except (ValueError, RecursionError, ParseError):
        return None
    q, layout = spec.ctx.q, _layout(spec.ctx.q, n)
    # coefficient, vector, coefficient, ...; the body is not kept beside them
    pieces = text[head_end + len(_TERMS_OPEN):-len(_TERMS_CLOSE)]
    pieces = pieces.replace(_VECTOR_OPEN, _NEXT_TERM).split(_NEXT_TERM)
    coeffs, vectors = pieces[::2], pieces[1::2]
    short = 2 * q - 1
    try:
        digits = iter(_digit_vectors([t for t in vectors if len(t) == short], q, layout.size // q))
        keys = [
            next(digits) if len(t) == short else layout.pack(*map(int, t.split(",")))
            for t in vectors
        ]
        cwe = CwePolynomial._adopt(q, n, dict(zip(keys, map(int, coeffs))))
    except (ValueError, struct.error, ParameterOutOfRangeError):
        # not an int, past the digit limit or a lane, not q entries, a bad term
        return None
    # the split text goes before the document is written back
    del pieces, coeffs, vectors, digits, keys
    return (spec, cwe) if serialize(spec, cwe) == text else None


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
    q, pack = spec.ctx.q, _layout(spec.ctx.q, n).pack
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
        key = pack(*exps)
        if key in terms:
            raise ParseError("duplicate exponent vector", f"$.terms[{i}].e")
        terms[key] = coeff
    return spec, CwePolynomial._adopt(q, n, terms)


def deserialize(text: str) -> tuple[CodeSpec, CwePolynomial]:
    """Parse canonical JSON back into (CodeSpec, CwePolynomial).

    A document exactly as serialize writes it is read by splitting on its
    fixed separators, and accepted when serialize writes the result back
    byte for byte (_read_canonical).  Any other goes through json.loads
    (_read_json), which accepts the same data with other whitespace, key
    order or term order, and raises ParseError, with the JSON path of the
    first problem, on anything else.
    """
    done = _read_canonical(text) if isinstance(text, str) else None
    return _read_json(text) if done is None else done


def render_terms(cwe: CwePolynomial) -> list[str]:
    """Text form, one monomial per line: `c * w[i]^t ...`, sorted like JSON.

    A chunk (_chunks, each vector ended by a byte read as a line break) is
    one join of factors " w[i]^t" from per-lane tables, built once for t up
    to min(n, 255), split into lines.  A vector with an entry past 255 is
    unpacked by the layout and written from its nonzero entries.  With n = 0
    the one line is `c * `."""
    if not cwe.n:
        return [f"{c} * " for c in cwe._terms.values()]
    unpack = _layout(cwe.q, cwe.n).unpack
    names = [f" w[{i}]^" for i in range(cwe.q)]
    # lane i: t -> " w[i]^t", for t up to n and to 255, the most a lane byte holds
    powers = list(map(str, range(1, min(cwe.n, 255) + 1)))
    rows = [["", *map(name.__add__, powers)] for name in names]
    rows.append(["", "\n"])  # and the end byte, 1
    lines = []
    for coeffs, keys, lanes, wide in _chunks(cwe, b"\1"):
        parts = "".join(map(list.__getitem__, cycle(rows), lanes)).split("\n")
        for i in wide:
            e = unpack(keys[i])
            parts.insert(i, "".join(map(str.__add__, compress(names, e), map(str, compress(e, e)))))
        lines += map(" *".join, zip(map(str, coeffs), parts))
    return lines
