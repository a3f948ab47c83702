"""Complete weight enumerators: brute force, closed forms, serialization.

A complete weight enumerator is stored sparsely as a map from exponent
vectors to positive integer coefficients.  The exponent vector of a codeword
has length q and entry t at index i when the element coded i appears t times
in the codeword, so every vector sums to the code length.

The closed-form builders construct monomials directly from the index sets of
the published closed forms (gamma's and the sign epsilon).  Four places
deviate from the printed displays because the printed version fails a mass,
degree, or binding check and the brute-force oracle confirms the correction;
see ERRATA_LEDGER at the bottom of this module.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Iterator, Mapping

from .codes import CodeSpec, enumerate_codewords
from .errors import ParameterOutOfRangeError, ParseError, ShapeMismatchError
from .gf import FieldContext, build_field

ExponentVector = tuple[int, ...]


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
        if len(exps) != self.q:
            raise ParameterOutOfRangeError(
                f"exponent vector has length {len(exps)}, expected q={self.q}"
            )
        total = 0
        for t in exps:
            if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                raise ParameterOutOfRangeError(f"bad exponent {t!r}")
            total += t
        if total != self.n:
            raise ParameterOutOfRangeError(
                f"exponents sum to {total}, expected code length {self.n}"
            )
        if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
            raise ParameterOutOfRangeError(f"coefficient {coeff!r} must be a positive int")
        self.terms[exps] = self.terms.get(exps, 0) + coeff

    def mass(self) -> int:
        """Sum of all coefficients; equals q^k for a k-dimensional code."""
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[ExponentVector, int]]:
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
    """Tally the composition vector of every codeword."""
    q = spec.ctx.q
    terms: dict[ExponentVector, int] = {}
    for word in enumerate_codewords(spec, budget=budget):
        exps = [0] * q
        for s in word:
            exps[s] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    return CwePolynomial(q, spec.length, terms)


# -- closed forms -------------------------------------------------------------


def cwe_rs2(
    ctx: FieldContext, alpha: tuple[int, ...], extended: bool = False
) -> CwePolynomial:
    """Dimension-2 closed form, any evaluation set of n >= 2 distinct points.

    Constants contribute w_rho^n each; the message g1*x + g0 with g1 != 0
    contributes the product of w over the n distinct values g0 + g1*alpha_i.
    The extended variant appends the leading coefficient, multiplying each
    term by w_0 (constants) or w_{g1}.
    """
    spec = CodeSpec(ctx, 2, tuple(alpha), extended)
    q = ctx.q
    add = ctx.add
    at_alpha = itemgetter(*spec.alpha)
    terms: dict[ExponentVector, int] = {}

    for rho in range(q):
        exps = [0] * q
        exps[rho] = spec.n
        if extended:
            exps[0] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1

    # The g0 loop adds scalars: an add row per (g1, g0) would cost q where
    # the loop needs n, and all q rows at once take q^2 memory.
    for g1 in range(1, q):
        rows = at_alpha(ctx.mul_row(g1))
        for g0 in range(q):
            exps = [0] * q
            for v in rows:
                exps[add(v, g0)] += 1
            if extended:
                exps[g1] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + 1

    return CwePolynomial(q, spec.length, terms)


def _merge(
    terms: dict[ExponentVector, int], exps: list[int] | ExponentVector, coeff: int
) -> None:
    key = tuple(exps)
    terms[key] = terms.get(key, 0) + coeff


def _merge_plus(
    terms: dict[ExponentVector, int], exps: ExponentVector, index: int, coeff: int
) -> None:
    """Merge exps with one more occurrence of the symbol at index."""
    bumped = list(exps)
    bumped[index] += 1
    _merge(terms, bumped, coeff)


def _translators(ctx: FieldContext) -> list:
    """shift[g](e) is the tuple whose entry rho is e[rho - g].

    When e counts the symbols of a word, shift[g](e) counts those of the word
    plus g, so one gather through an add row replaces a loop over the word.
    The q gathers take q^2 memory, which the dimension-3 outputs exceed.
    """
    neg, add_row = ctx.neg, ctx.add_row
    return [itemgetter(*add_row(neg(g))) for g in range(ctx.q)]


def _kernel_counts(ctx: FieldContext, g1: int, points: list[int], weight: int) -> list[int]:
    """weight times the composition of g1 * points, as an exponent vector."""
    row = ctx.mul_row(g1)
    exps = [0] * ctx.q
    for x in points:
        exps[row[x]] += weight
    return exps


def _eta_profile(eta: list[int], eps: int) -> list[int]:
    """1 + eps * eta(sigma) for every sigma; 1 at sigma = 0."""
    return [1 + eps * e for e in eta]


def cwe_k3_fullfield(ctx: FieldContext, extended: bool = False) -> CwePolynomial:
    """Dimension-3 closed form on the full field (n = q), q >= 3."""
    q, p = ctx.q, ctx.p
    if q < 3:
        raise ParameterOutOfRangeError(f"q = {q} < 3 leaves no room for dimension 3")
    length = q + 1 if extended else q
    terms: dict[ExponentVector, int] = {}

    # constant polynomials, coefficient 1 each (see ERRATA_LEDGER entry 1 for
    # the extended odd-characteristic case)
    for rho in range(q):
        exps = [0] * q
        exps[rho] = q
        if extended:
            exps[0] += 1
        _merge(terms, exps, 1)

    shift = _translators(ctx)
    if p == 2:
        kernel = [rho for rho in range(q) if ctx.trace(rho) == 0]
        if extended:
            # (q-1) q w_0 prod w_rho  +  q sum_{g2 != 0} w_{g2} prod w_rho
            exps = [1] * q
            exps[0] += 1
            _merge(terms, exps, (q - 1) * q)
            for g2 in range(1, q):
                exps = [1] * q
                exps[g2] += 1
                _merge(terms, exps, q)
            for g1 in range(1, q):
                base = _kernel_counts(ctx, g1, kernel, 2)
                for g0 in range(q):
                    word = shift[g0](base)
                    for g2 in range(1, q):
                        _merge_plus(terms, word, g2, 1)
        else:
            _merge(terms, [1] * q, (q - 1) * 2 * q)
            for g1 in range(1, q):
                base = _kernel_counts(ctx, g1, kernel, 2)
                for g0 in range(q):
                    _merge(terms, shift[g0](base), q - 1)
        return CwePolynomial(q, length, terms)

    # exps[rho] = 1 + eps * eta(rho - g1) is the profile translated by g1;
    # its entry at rho = g1 is 1, the count of the point g1 itself
    eta = [ctx.quadratic_character(x) for x in range(q)]
    if extended:
        exps = [1] * q
        exps[0] += 1
        _merge(terms, exps, (q - 1) * q)
        for sign in (1, -1):
            profile = _eta_profile(eta, sign)
            signed = [g2 for g2 in range(1, q) if eta[g2] == sign]
            for g1 in range(q):
                word = shift[g1](profile)
                for g2 in signed:
                    _merge_plus(terms, word, g2, q)
    else:
        _merge(terms, [1] * q, (q - 1) * q)
        half, rem = divmod((q - 1) * q, 2)
        assert rem == 0, "epsilon-sum halving must stay integral"
        for eps in (1, -1):
            profile = _eta_profile(eta, eps)
            for g1 in range(q):
                _merge(terms, shift[g1](profile), half)
    return CwePolynomial(q, length, terms)


def cwe_k3_punctured(
    ctx: FieldContext, beta: int, extended: bool = False
) -> CwePolynomial:
    """Dimension-3 closed form on F_q minus one point (n = q-1), q >= 4.

    beta names the dropped point for documentation and validation; the
    resulting enumerator provably does not depend on it, and the formulas
    below never mention it.
    """
    q, p = ctx.q, ctx.p
    if q < 4:
        raise ParameterOutOfRangeError(f"q = {q} < 4 leaves no punctured room for dimension 3")
    ctx.validate_element(beta)
    length = q if extended else q - 1
    terms: dict[ExponentVector, int] = {}

    # constant polynomials
    for rho in range(q):
        exps = [0] * q
        exps[rho] = q - 1
        if extended:
            exps[0] += 1
        _merge(terms, exps, 1)

    shift = _translators(ctx)
    if p == 2:
        kernel_nz = [rho for rho in range(1, q) if ctx.trace(rho) == 0]
        if extended:
            for g1 in range(q):
                exps = [1] * q
                exps[g1] = 0
                exps[0] += 1
                _merge(terms, exps, q - 1)
            for g2 in range(1, q):
                for g1 in range(q):
                    exps = [1] * q
                    exps[g1] = 0
                    exps[g2] += 1
                    _merge(terms, exps, 1)
        else:
            # first two terms corrected; see ERRATA_LEDGER entry 3
            for g in range(q):
                exps = [1] * q
                exps[g] = 0
                _merge(terms, exps, 2 * (q - 1))
        for g1 in range(1, q):
            # the words g1*rho + g0 over rho in the kernel, and g0 once more
            base = _kernel_counts(ctx, g1, kernel_nz, 2)
            base[0] += 1
            for g0 in range(q):
                word = shift[g0](base)
                if extended:
                    for g2 in range(1, q):
                        _merge_plus(terms, word, g2, 1)
                else:
                    _merge(terms, word, q - 1)
        return CwePolynomial(q, length, terms)

    # profiles as in cwe_k3_fullfield; where rho = g1 is not an evaluation
    # point the entry at sigma = 0 is 0, and a second point other = g0 + g1
    # with eta(g0) = eps moves its entry at sigma = g0 from 2 to 1
    eta = [ctx.quadratic_character(x) for x in range(q)]

    def punctured_profile(eps: int) -> list[int]:
        profile = _eta_profile(eta, eps)
        profile[0] = 0
        return profile

    def pair_profile(eps: int, g0: int) -> list[int]:
        profile = _eta_profile(eta, eps)
        profile[g0] = 1
        return profile

    if extended:
        for g0 in range(q):
            exps = [1] * q
            exps[g0] = 0
            exps[0] += 1
            _merge(terms, exps, q - 1)
        for sign in (1, -1):
            profile = punctured_profile(sign)
            signed = [g2 for g2 in range(1, q) if eta[g2] == sign]
            for g1 in range(q):
                word = shift[g1](profile)
                for g2 in signed:
                    _merge_plus(terms, word, g2, 1)
        for eps in (1, -1):
            signed = [g for g in range(1, q) if eta[g] == eps]
            for g0 in signed:
                profile = pair_profile(eps, g0)
                for g1 in range(q):
                    word = shift[g1](profile)
                    for g2 in signed:
                        _merge_plus(terms, word, g2, 2)
    else:
        for g in range(q):
            exps = [1] * q
            exps[g] = 0
            _merge(terms, exps, q - 1)
        half, rem = divmod(q - 1, 2)
        assert rem == 0, "epsilon-sum halving must stay integral"
        for eps in (1, -1):
            profile = punctured_profile(eps)
            for g1 in range(q):
                _merge(terms, shift[g1](profile), half)
        for eps in (1, -1):
            for g0 in range(1, q):
                if eta[g0] == eps:
                    profile = pair_profile(eps, g0)
                    for g1 in range(q):
                        _merge(terms, shift[g1](profile), q - 1)
    return CwePolynomial(q, length, terms)


def cwe_formula(spec: CodeSpec) -> CwePolynomial:
    """Dispatch to the closed form covering spec, if one exists.

    k=2 covers every evaluation set; k=3 covers sets equal to the full field
    or to the field minus one point (their order never matters, since the
    enumerator only sees compositions).
    """
    ctx = spec.ctx
    if spec.k == 2:
        return cwe_rs2(ctx, spec.alpha, spec.extended)
    if spec.k == 3:
        points = set(spec.alpha)
        if len(points) == ctx.q:
            return cwe_k3_fullfield(ctx, spec.extended)
        if len(points) == ctx.q - 1:
            beta = next(x for x in range(ctx.q) if x not in points)
            return cwe_k3_punctured(ctx, beta, spec.extended)
        raise ParameterOutOfRangeError(
            "no closed form for k=3 over this evaluation set; it must be the "
            "full field or the field minus one point (use the brute method)"
        )
    raise ParameterOutOfRangeError(
        f"no closed form for dimension k={spec.k} (use the brute method)"
    )


# -- canonical JSON -----------------------------------------------------------


def serialize(spec: CodeSpec, cwe: CwePolynomial) -> str:
    """Byte-deterministic JSON: sorted keys, terms sorted by exponent vector."""
    if cwe.q != spec.ctx.q or cwe.n != spec.length:
        raise ShapeMismatchError(
            f"CWE shape (q={cwe.q}, n={cwe.n}) does not match the code "
            f"(q={spec.ctx.q}, length={spec.length})"
        )
    doc = {
        "p": spec.ctx.p,
        "m": spec.ctx.m,
        "k": spec.k,
        "n": cwe.n,
        "extended": spec.extended,
        "alpha": list(spec.alpha),
        "terms": [{"e": list(e), "c": c} for e, c in cwe.sorted_terms()],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
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
    terms: dict[ExponentVector, int] = {}
    for i, item in enumerate(doc["terms"]):
        path = f"$.terms[{i}]"
        if not isinstance(item, dict) or set(item) != {"e", "c"}:
            raise ParseError('expected an object with keys "e" and "c"', path)
        if not isinstance(item["e"], list):
            raise ParseError("expected a list of exponents", path + ".e")
        exps = tuple(
            _expect_int(x, f"{path}.e[{j}]") for j, x in enumerate(item["e"])
        )
        if len(exps) != ctx.q:
            raise ParseError(
                f"exponent vector has length {len(exps)}, expected q={ctx.q}",
                path + ".e",
            )
        if any(t < 0 for t in exps):
            raise ParseError("negative exponent", path + ".e")
        if sum(exps) != n:
            raise ParseError(f"exponents sum to {sum(exps)}, expected {n}", path + ".e")
        coeff = _expect_int(item["c"], path + ".c")
        if coeff < 1:
            raise ParseError(f"coefficient {coeff} must be positive", path + ".c")
        if exps in terms:
            raise ParseError("duplicate exponent vector", path + ".e")
        terms[exps] = coeff
    return spec, CwePolynomial(ctx.q, n, terms)


def render_terms(cwe: CwePolynomial) -> list[str]:
    """Text form, one monomial per line: `c * w[i]^t ...`, sorted like JSON."""
    lines = []
    for exps, coeff in cwe.sorted_terms():
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
