"""Complete weight enumerators: brute force, closed forms, serialization.

A complete weight enumerator is stored sparsely as a map from exponent
vectors to positive integer coefficients.  The exponent vector of a codeword
has length q and entry t at index i when the element coded i appears t times
in the codeword, so every vector sums to the code length.

One function, term_problem, validates a term: add_term, which checks every
enumerator built here, and deserialize, once per term, both call it.

Every enumerator here is built by one expansion, _expand, from translation
orbits (base, tops, coeff): adding g to the constant coefficient of a message
translates the composition of its word by g, so an orbit stands for the q
translates of base, each under every leading coefficient in tops with
multiplicity coeff.  The extended code appends the leading coefficient, which
does not move with g; _expand adds it after translating, so one expansion
serves both codes.

The closed-form builders list the orbits of the published closed forms: the
constant block (_constants), then the words built from the index sets of the
formulas (gamma's and the sign epsilon).  The two dimension-3 forms share one
lister, _k3_orbits: a punctured word is a full-field word with one value
removed.  Four places deviate from the printed displays because the printed
version fails a mass, degree, or binding check and the brute-force oracle
confirms the correction; see ERRATA_LEDGER at the bottom of this module.

The brute-force oracle, cwe_bruteforce, counts every codeword but encodes
only the q^(k-1) messages with f_0 = 0; each composition it tallies is an
orbit, which _expand counts under all q translates.  It shares the expansion
(and its gather, _translator) with the closed forms, but no formula and no
character sum: it takes its orbits from the encoder alone.  A test pins it to
a literal per-codeword tally, so a fault in the shared expansion cannot hide
behind agreement between the two routes.

serialize and render_terms write the terms in one canonical order, ascending
by exponent vector (CwePolynomial.sorted_terms, which sorts by bytes(e) when
n < 256).  serialize writes the bytes json.dumps(sort_keys=True) gives for the
document without building it: a vector of exact ints 0..9 becomes digits by
bytes.translate and one slice assignment into a comma template, and only other
vectors and coefficients go through the json encoder.  render_terms takes
each factor string w[i]^t from a table made once per call and exponent value.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import partial
from itertools import compress, product
from operator import itemgetter
from typing import Callable, Iterator, Mapping

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

    A valid term has q integer exponents >= 0 that sum to n and a positive
    integer coefficient; bool is not an integer here.
    """
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


def _vector_bytes(term: tuple[ExponentVector, int]) -> bytes:
    return bytes(term[0])


class CwePolynomial:
    """Sparse homogeneous polynomial in the q variables w_0 .. w_{q-1}."""

    __slots__ = ("q", "n", "terms")

    def __init__(self, q: int, n: int, terms: Mapping[ExponentVector, int] | None = None):
        if q < 1 or n < 0:
            raise ParameterOutOfRangeError(f"bad CWE shape q={q}, n={n}")
        self.q = q
        self.n = n
        self.terms: dict[ExponentVector, int] = {}
        if terms:
            for exps, coeff in terms.items():
                self.add_term(exps, coeff)

    def add_term(self, exps: ExponentVector, coeff: int = 1) -> None:
        """Merge coeff * w^exps into the map; validates the monomial."""
        exps = tuple(exps)
        problem = term_problem(self.q, self.n, exps, coeff)
        if problem:
            raise ParameterOutOfRangeError(problem[1])
        self.terms[exps] = self.terms.get(exps, 0) + coeff

    def mass(self) -> int:
        """Sum of all coefficients; equals q^k for a k-dimensional code."""
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[ExponentVector, int]]:
        """(exponent vector, coefficient) pairs, ascending by vector: the
        canonical order, which serialize and render_terms write.

        A valid term's exponents are at most n, so when n < 256 every vector
        is also a byte string, and byte strings compare as the tuples do but
        in C; a vector written into terms directly with an entry outside
        0..255 raises there.  Otherwise the tuples are compared.
        """
        if self.n < 256:
            return sorted(self.terms.items(), key=_vector_bytes)
        return sorted(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[ExponentVector]:
        return iter(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CwePolynomial):
            return NotImplemented
        return (self.q, self.n, self.terms) == (other.q, other.n, other.terms)

    __hash__ = None

    def __repr__(self):
        return f"CwePolynomial(q={self.q}, n={self.n}, {len(self.terms)} terms)"


def cwe_equal(
    a: CwePolynomial, b: CwePolynomial
) -> tuple[bool, tuple[ExponentVector, int, int] | None]:
    """Exact map equality; on mismatch also return the lexicographically
    smallest differing exponent vector with both coefficients (0 = absent)."""
    if (a.q, a.n) != (b.q, b.n):
        raise ShapeMismatchError(
            f"cannot compare shapes (q={a.q}, n={a.n}) and (q={b.q}, n={b.n})"
        )
    if a.terms == b.terms:
        return True, None
    for exps in sorted(set(a.terms) | set(b.terms)):
        ca = a.terms.get(exps, 0)
        cb = b.terms.get(exps, 0)
        if ca != cb:
            return False, (exps, ca, cb)
    raise AssertionError("maps differ but no differing term found")


def weight_distribution(cwe: CwePolynomial) -> list[int]:
    """A[i] = number of codewords of Hamming weight i, from the CWE."""
    dist = [0] * (cwe.n + 1)
    for exps, coeff in cwe.terms.items():
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
    orbits = []
    for (top, symbols), count in slices.items():
        exps = [0] * q
        for s in symbols:
            exps[s] += 1
        orbits.append((exps, (top,), count))
    return _expand(spec.ctx, spec.n if fixed_top else spec.length, fixed_top, orbits)


# -- translation orbits -------------------------------------------------------


def _translator(ctx: FieldContext, g: int):
    """shift(e) is the tuple whose entry rho is e[rho - g].

    When e counts the symbols of a word, shift(e) counts those of the word
    plus g, so one gather through an add row replaces a loop over the word.
    """
    return itemgetter(*ctx.add_row(ctx.neg(g)))


def _expand(ctx: FieldContext, n: int, extended: bool, orbits: list) -> CwePolynomial:
    """The enumerator over n points of a list of translation orbits.

    An orbit (base, tops, coeff) stands for the q words base + g, g in F_q,
    each under every leading coefficient t in tops with multiplicity coeff;
    base counts the symbols of a word over the n points (a list or, to hold
    many in little memory, bytes).  When extended, the word plus g gets one
    symbol t per top, added after translating, since t does not move with g;
    otherwise it counts coeff * |tops| times.  One translator is built at a
    time: all q at once take q^2 memory.
    """
    q = ctx.q
    terms: dict[ExponentVector, int] = {}
    for g in range(q):
        shift = _translator(ctx, g)
        for base, tops, coeff in orbits:
            word = shift(base)
            if extended:
                for t in tops:
                    bumped = list(word)
                    bumped[t] += 1
                    key = tuple(bumped)
                    terms[key] = terms.get(key, 0) + coeff
            else:
                terms[word] = terms.get(word, 0) + coeff * len(tops)
    return CwePolynomial(q, n + 1 if extended else n, terms)


# -- closed forms -------------------------------------------------------------


def _constants(q: int, n: int) -> tuple[list[int], tuple[int], int]:
    """The orbit of the q constant messages of a closed form over n points:
    w_rho^n at coefficient 1, with leading coefficient 0 (ERRATA_LEDGER
    entries 1 and 4)."""
    base = [0] * q
    base[0] = n
    return base, (0,), 1


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
    # rho is in g1*alpha exactly when rho / g1 is in alpha; bytes hold the
    # q - 1 bases in q^2 bytes
    indicator = bytes(map(set(spec.alpha).__contains__, range(q)))
    orbits = [_constants(q, spec.n)]
    for g1 in range(1, q):
        base = itemgetter(*ctx.mul_row(ctx.inv(g1)))(indicator)
        orbits.append((bytes(base), (g1,), 1))
    return _expand(ctx, spec.n, extended, orbits)


def _kernel_orbits(ctx: FieldContext, at_zero: int) -> list:
    """Characteristic 2: for each g1 != 0, the orbit of the word that counts
    g1*rho twice for each nonzero rho of trace 0, and 0 at_zero times, under
    every nonzero leading coefficient."""
    q = ctx.q
    nonzero = range(1, q)
    kernel = [rho for rho in nonzero if ctx.trace(rho) == 0]
    orbits = []
    for g1 in nonzero:
        row = ctx.mul_row(g1)
        base = [0] * q
        for x in kernel:
            base[row[x]] += 2
        base[0] = at_zero
        orbits.append((base, nonzero, 1))
    return orbits


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
        # rho = 0 has trace 0 as well: 0 counts twice, or once when punctured
        return orbits + _kernel_orbits(ctx, 2 - dropped)
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


def closed_form(spec: CodeSpec) -> Callable[[], CwePolynomial]:
    """The closed form covering spec, as a call that builds it.

    k=2 covers every evaluation set; k=3 covers sets equal to the full field
    or to the field minus one point (their order never matters, since the
    enumerator only sees compositions).  Any other spec raises
    ParameterOutOfRangeError here, after O(n) work, before anything is built.
    """
    ctx = spec.ctx
    if spec.k == 2:
        return partial(cwe_rs2, ctx, spec.alpha, spec.extended)
    if spec.k == 3:
        points = set(spec.alpha)
        if len(points) == ctx.q:
            return partial(cwe_k3_fullfield, ctx, spec.extended)
        if len(points) == ctx.q - 1:
            beta = next(x for x in range(ctx.q) if x not in points)
            return partial(cwe_k3_punctured, ctx, beta, spec.extended)
        raise ParameterOutOfRangeError(
            "no closed form for k=3 over this evaluation set; it must be the "
            "full field or the field minus one point (use the brute method)"
        )
    raise ParameterOutOfRangeError(
        f"no closed form for dimension k={spec.k} (use the brute method)"
    )


def cwe_formula(spec: CodeSpec) -> CwePolynomial:
    """The enumerator of spec by the closed form covering it (closed_form)."""
    return closed_form(spec)()


# -- canonical JSON -----------------------------------------------------------


# translate table: exponent t in 0..9 to the digit of t; every other byte to
# NUL, which is not a digit
_DIGITS = b"0123456789".ljust(256, b"\0")
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _items_json(values) -> bytes | bytearray:
    """The items of the JSON array list(values), as json.dumps writes them.

    Exact ints 0..9 (bool is not one) take one digit each, written by two C
    passes into a comma template; anything else goes through the encoder.
    """
    if {int}.issuperset(map(type, values)):
        try:
            digits = bytes(values).translate(_DIGITS)
        except ValueError:  # a value outside 0..255
            digits = b""
        if digits.isdigit():
            text = bytearray(b",") * (2 * len(digits) - 1)
            text[::2] = digits
            return text
    return _encode(list(values))[1:-1].encode()


def _coeff_json(coeff) -> bytes:
    return b"%d" % coeff if type(coeff) is int else _encode(coeff).encode()


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


def serialize(spec: CodeSpec, cwe: CwePolynomial) -> str:
    """Canonical JSON: the bytes json.dumps(sort_keys=True, separators=(",",
    ":")) writes for the code's parameters and the terms, as {"c", "e"}
    objects in the order of sorted_terms."""
    if cwe.q != spec.ctx.q or cwe.n != spec.length:
        raise ShapeMismatchError(
            f"CWE shape (q={cwe.q}, n={cwe.n}) does not match the code "
            f"(q={spec.ctx.q}, length={spec.length})"
        )
    # "terms" sorts after every header key
    head = _encode(_code_header(spec, cwe.n))
    body = b",".join([
        b'{"c":%b,"e":[%b]}' % (_coeff_json(c), _items_json(e))
        for e, c in cwe.sorted_terms()
    ])
    return f'{head[:-1]},"terms":[{body.decode()}]}}'


def _expect_int(value, path: str) -> int:
    if not _is_int(value):
        raise ParseError(f"expected an integer, got {value!r}", path)
    return value


def deserialize(text: str) -> tuple[CodeSpec, CwePolynomial]:
    """Parse canonical JSON back into (CodeSpec, CwePolynomial)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}", "$") from exc
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
        ctx = build_field(p, m)
        spec = CodeSpec(ctx, k, alpha, extended)
    except Exception as exc:
        raise ParseError(f"invalid code parameters: {exc}", "$") from exc
    if n != spec.length:
        raise ParseError(
            f"n = {n} but alpha and extended give length {spec.length}", "$.n"
        )
    if not isinstance(doc["terms"], list):
        raise ParseError("expected a list of terms", "$.terms")
    cwe = CwePolynomial(ctx.q, n)
    for i, item in enumerate(doc["terms"]):
        if not isinstance(item, dict) or set(item) != {"e", "c"}:
            raise ParseError('expected an object with keys "e" and "c"', f"$.terms[{i}]")
        if not isinstance(item["e"], list):
            raise ParseError("expected a list of exponents", f"$.terms[{i}].e")
        exps, coeff = tuple(item["e"]), item["c"]
        problem = term_problem(ctx.q, n, exps, coeff)
        if problem:
            raise ParseError(problem[1], f"$.terms[{i}].{problem[0]}")
        if exps in cwe.terms:
            raise ParseError("duplicate exponent vector", f"$.terms[{i}].e")
        cwe.terms[exps] = coeff
    return spec, cwe


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
    for exps, coeff in cwe.sorted_terms():
        # powers is keyed by value, and True and 1.0 equal 1: only vectors of
        # q exact ints are looked up in it
        if len(exps) == q and {int}.issuperset(map(type, exps)):
            rows = map(powers.__getitem__, compress(exps, exps))
            factors = " ".join(map(list.__getitem__, rows, compress(positions, exps)))
        else:
            factors = " ".join(f"w[{i}]^{t}" for i, t in enumerate(exps) if t)
        lines.append(f"{coeff} * {factors}")
    return lines


# -- errata ledger -------------------------------------------------------------

ERRATA_LEDGER = [
    {
        "id": 1,
        "builder": "cwe_k3_fullfield(ctx, extended=True), odd characteristic",
        "printed": "the published display's first term is q * sum_rho w_0 * w_rho^q",
        "implemented": "coefficient 1 on each constant term: sum_rho w_0 * w_rho^q",
        "why": (
            "a dimension-3 code has exactly q constant codewords, so the "
            "constant block must carry total mass q, not q^2; with the printed "
            "factor the coefficient mass is q^3 + q^2 - q instead of q^3.  The "
            "even-characteristic sibling formula carries no such factor.  "
            "Brute-force enumeration over every tested field confirms "
            "coefficient 1."
        ),
    },
    {
        "id": 2,
        "builder": "cwe_k3_fullfield(ctx, extended=False), odd characteristic",
        "printed": (
            "one exponent in the published derivation reads 1 + eta(rho - gamma) "
            "where the surrounding display sums over gamma_1"
        ),
        "implemented": "exponent 1 + eps * eta(rho - gamma_1) throughout",
        "why": (
            "gamma is not bound by any surrounding sum at that point; the "
            "stated final formula and the oracle both require gamma_1."
        ),
    },
    {
        "id": 3,
        "builder": "cwe_k3_punctured(ctx, beta, extended=False), characteristic 2",
        "printed": (
            "the published display's first two terms are sum_rho w_rho^q and "
            "2(q-1) * prod over all rho of w_rho"
        ),
        "implemented": (
            "sum_rho w_rho^(q-1) and 2(q-1) * sum_gamma prod over rho != gamma "
            "of w_rho"
        ),
        "why": (
            "the code length is q-1, so degree-q monomials cannot appear; the "
            "penultimate step of the same derivation already has the corrected "
            "form, whose mass is q + 2(q-1)q + (q-1)^2 q = q^3.  Brute-force "
            "enumeration confirms it."
        ),
    },
    {
        "id": 4,
        "builder": "cwe_rs2(ctx, alpha, extended=True)",
        "printed": "the published display's constant block is sum_rho w_rho^n",
        "implemented": "sum_rho w_0 * w_rho^n",
        "why": (
            "an extended codeword has length n+1 and a constant message has "
            "zero leading coefficient, so each constant term carries the "
            "extension coordinate w_0; without it the monomials are not "
            "homogeneous of the code length.  Brute-force enumeration "
            "confirms the w_0 factor."
        ),
    },
]


def errata_text() -> str:
    """The deviations from the published closed forms, as plain text."""
    blocks = []
    for entry in ERRATA_LEDGER:
        blocks.append(
            f"erratum {entry['id']}: {entry['builder']}\n"
            f"  printed:     {entry['printed']}\n"
            f"  implemented: {entry['implemented']}\n"
            f"  why:         {entry['why']}"
        )
    return "\n\n".join(blocks)
