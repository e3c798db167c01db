"""Cost-weighted adversary bounds for small Boolean functions."""

from .boolfn import (
    BooleanFunction,
    CompositionSpec,
    FormulaError,
    compose_functions,
    formula_to_function,
    iterate_function,
    make_family,
    parse_formula,
    split_input,
)
from .specmat import SpectralResult, SymMatrix, principal_eigenvector, spectral_norm
from .adversary import (
    AdversaryMatrix,
    CostVector,
    EigvecParts,
    MinimaxWitness,
    adv_value,
    compose_eigenvector,
    compose_gamma,
    compose_minimax,
    masked_compose_check,
    mm_value,
    validate,
)
from .solver import (
    BoundCertificate,
    SolverOptions,
    certify,
    gadget_cost_adv,
    readonce_bound,
    verify_composition,
    verify_iteration,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryMatrix",
    "BooleanFunction",
    "BoundCertificate",
    "CompositionSpec",
    "CostVector",
    "EigvecParts",
    "FormulaError",
    "MinimaxWitness",
    "SolverOptions",
    "SpectralResult",
    "SymMatrix",
    "adv_value",
    "certify",
    "compose_eigenvector",
    "compose_functions",
    "compose_gamma",
    "compose_minimax",
    "formula_to_function",
    "gadget_cost_adv",
    "iterate_function",
    "make_family",
    "masked_compose_check",
    "mm_value",
    "parse_formula",
    "principal_eigenvector",
    "readonce_bound",
    "spectral_norm",
    "split_input",
    "validate",
    "verify_composition",
    "verify_iteration",
    "__version__",
]
