"""Complete weight enumerators of short Reed-Solomon codes over GF(p^m).

The package computes the complete weight enumerator of RS_k(alpha) and its
extended variant twice: literally, by enumerating codewords, and through
closed-form character-sum expressions for k = 2 and k = 3, then proves the
two agree as exact term maps.

Every name in __all__ is importable from the package, but its submodule is
loaded only when the name is first used: `rscwe.build_field` loads gf and
errors alone, and the command line never loads counts or cyclo.
"""

import sys

# Each public name and the submodule it lives in; the keys are __all__.
# __getattr__ (PEP 562) imports the submodule on the name's first use.
_HOMES = {
    **dict.fromkeys(
        ("DEFAULT_ENUM_BUDGET", "CodeSpec", "encode", "enumerate_codewords", "make_eval_set"),
        "codes",
    ),
    **dict.fromkeys(
        ("CountQuery", "count_full_field", "count_oracle", "count_punctured",
         "m_cardinality", "m_oracle"),
        "counts",
    ),
    **dict.fromkeys(
        ("CwePolynomial", "cwe_bruteforce", "cwe_equal", "cwe_formula", "cwe_k3_fullfield",
         "cwe_k3_punctured", "cwe_rs2", "deserialize", "render_terms", "serialize",
         "weight_distribution"),
        "cwe",
    ),
    **dict.fromkeys(
        ("CyclotomicInt", "additive_char_sum", "complex_embedding", "gauss_sum",
         "quadratic_sum", "root_power"),
        "cyclo",
    ),
    "errata_text": "errata",
    **dict.fromkeys(
        ("CharacteristicTwoError", "DegenerateQuadraticError", "DimensionMismatchError",
         "DuplicateEvaluationPointError", "InvalidPrimeError", "MixedCyclotomicOrderError",
         "ParameterOutOfRangeError", "ParseError", "RscweError", "ShapeMismatchError",
         "SizeLimitError"),
        "errors",
    ),
    **dict.fromkeys(("DEFAULT_MAX_Q", "FieldContext", "build_field"), "gf"),
}

__version__ = "0.1.0"

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{home}"
    __import__(module)
    value = getattr(sys.modules[module], name)
    # cached, so the next lookup is a plain module attribute
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
