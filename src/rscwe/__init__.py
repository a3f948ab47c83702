"""Complete weight enumerators of short Reed-Solomon codes over GF(p^m).

The package computes the complete weight enumerator of RS_k(alpha) and its
extended variant twice: literally, by enumerating codewords, and through
closed-form character-sum expressions for k = 2 and k = 3, then proves the
two agree as exact term maps.
"""

from .codes import (
    DEFAULT_ENUM_BUDGET,
    CodeSpec,
    encode,
    enumerate_codewords,
    make_eval_set,
)
from .counts import (
    CountQuery,
    count_full_field,
    count_oracle,
    count_punctured,
    m_cardinality,
    m_oracle,
)
from .cwe import (
    CwePolynomial,
    cwe_bruteforce,
    cwe_equal,
    cwe_formula,
    cwe_k3_fullfield,
    cwe_k3_punctured,
    cwe_rs2,
    deserialize,
    render_terms,
    serialize,
    weight_distribution,
)
from .cyclo import (
    CyclotomicInt,
    additive_char_sum,
    complex_embedding,
    gauss_sum,
    quadratic_sum,
    root_power,
)
from .errata import errata_text
from .errors import (
    CharacteristicTwoError,
    DegenerateQuadraticError,
    DimensionMismatchError,
    DuplicateEvaluationPointError,
    InvalidPrimeError,
    MixedCyclotomicOrderError,
    ParameterOutOfRangeError,
    ParseError,
    RscweError,
    ShapeMismatchError,
    SizeLimitError,
)
from .gf import DEFAULT_MAX_Q, FieldContext, build_field

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "DEFAULT_MAX_Q",
    "CharacteristicTwoError",
    "CodeSpec",
    "CountQuery",
    "CwePolynomial",
    "CyclotomicInt",
    "DegenerateQuadraticError",
    "DimensionMismatchError",
    "DuplicateEvaluationPointError",
    "FieldContext",
    "InvalidPrimeError",
    "MixedCyclotomicOrderError",
    "ParameterOutOfRangeError",
    "ParseError",
    "RscweError",
    "ShapeMismatchError",
    "SizeLimitError",
    "additive_char_sum",
    "build_field",
    "complex_embedding",
    "count_full_field",
    "count_oracle",
    "count_punctured",
    "cwe_bruteforce",
    "cwe_equal",
    "cwe_formula",
    "cwe_k3_fullfield",
    "cwe_k3_punctured",
    "cwe_rs2",
    "deserialize",
    "encode",
    "enumerate_codewords",
    "errata_text",
    "gauss_sum",
    "m_cardinality",
    "m_oracle",
    "make_eval_set",
    "quadratic_sum",
    "render_terms",
    "root_power",
    "serialize",
    "weight_distribution",
]
