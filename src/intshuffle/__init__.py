"""Exact computations in the integral shuffle algebra.

The package provides exact Laurent-polynomial arithmetic (`poly`), the
shuffle product with its symmetrization (`shuffle`), generator words with
constructive module-generation certificates (`generators`), wheel and
ideal-membership conditions with verifiable certificates (`conditions`),
and an expression language plus CLI (`expr`, `cli`).
"""

from .conditions import (
    IdealCertificate,
    IdealGenerators,
    corollary_check,
    ideal_certificate,
    ideal_generators,
    ideal_wheel_check,
    omega_decomposition,
    verify_ideal_certificate,
    wheel_check,
)
from .errors import (
    ArityMismatch,
    ArityTooSmall,
    ExprSyntaxError,
    IdentityViolated,
    NonInvertibleImage,
    NotDivisible,
    NotSymmetric,
)
from .expr import as_element, eval_text, parse, parse_poly
from .generators import (
    BASIS2,
    BASIS3,
    GeneratorWord,
    ModuleCertificate,
    act_power_sum,
    act_product_power,
    range4,
    reduce2,
    reduce3,
    residue_class,
    verify_certificate,
    verify_lemma,
)
from .poly import (
    Q1,
    Q2,
    LaurentPoly,
    exact_div,
    is_symmetric,
    permute_z,
    render,
    substitute,
    z,
)
from .shuffle import (
    ShuffleElement,
    omega_numerator,
    one_variable,
    scalar,
    shuffle,
    shuffle_full_sym,
    shuffle_word,
    sym,
)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "ArityTooSmall",
    "BASIS2",
    "BASIS3",
    "ExprSyntaxError",
    "GeneratorWord",
    "IdealCertificate",
    "IdealGenerators",
    "IdentityViolated",
    "LaurentPoly",
    "ModuleCertificate",
    "NonInvertibleImage",
    "NotDivisible",
    "NotSymmetric",
    "Q1",
    "Q2",
    "ShuffleElement",
    "act_power_sum",
    "act_product_power",
    "as_element",
    "corollary_check",
    "eval_text",
    "exact_div",
    "ideal_certificate",
    "ideal_generators",
    "ideal_wheel_check",
    "is_symmetric",
    "omega_decomposition",
    "omega_numerator",
    "one_variable",
    "parse",
    "parse_poly",
    "permute_z",
    "range4",
    "reduce2",
    "reduce3",
    "render",
    "residue_class",
    "scalar",
    "shuffle",
    "shuffle_full_sym",
    "shuffle_word",
    "substitute",
    "sym",
    "verify_certificate",
    "verify_ideal_certificate",
    "verify_lemma",
    "wheel_check",
    "z",
]
