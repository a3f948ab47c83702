"""The places where the implemented closed forms deviate from the printed ones.

Each entry names the builder in rscwe.cwe, the printed display, what is
implemented instead, and why: the printed version fails a mass, degree, or
binding check, and the brute-force oracle confirms the correction.  `rscwe
explain` prints them.
"""

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
