"""Exact computer algebra for weighted isobaric polynomials.

The package computes, over exact rationals throughout:

* the weighted family and its Fibonacci/Lucas specializations, from both the
  closed partition sum and the k-term recursion (``polynomials``);
* lower Hessenberg matrices whose determinant or permanent reproduce each
  family member (``hessenberg``);
* rational convolution powers, through closed coefficients, three matrix
  routes, and a weighted generalization (``roots``);
* companion matrix row orbits, window blocks as matrix powers, hook Schur
  entries, and the different matrix (``companion``);
* Dirichlet roots of multiplicative arithmetic functions at prime powers
  (``multiplicative``);
* a command line tool ``iso`` surfacing all of the above (``cli``).
"""

from .companion import (
    CompanionWindow,
    CorePolynomial,
    DifferentWindow,
    SingularCoreError,
    companion_matrix,
    companion_window,
    dense_det,
    different_matrix,
    different_window,
    glp_from_gfp,
    schur_hook,
)
from .hessenberg import (
    Cell,
    HessenbergMatrix,
    build_minus,
    build_plus,
    hessenberg_value,
    rep_check,
)
from .multiplicative import (
    KNOWN_FUNCTIONS,
    LocalMF,
    dirichlet_convolve_local,
    dirichlet_fold,
    known_function,
    local_power,
    recover_core,
    root_verify,
)
from .partitions import ExponentVector, exponent_vectors, multinomial, vector_count, weight_dot
from .polynomials import (
    IsobaricPoly,
    PolySequence,
    WeightVector,
    convolve,
    convolve_sequences,
    gfp,
    gfp_sequence,
    glp,
    glp_sequence,
    wip_closed,
    wip_recursive,
    wip_sequence,
)
from .roots import (
    DegenerateQError,
    gfp_root_closed,
    gfp_root_matrix,
    gfp_root_sequence,
    gfp_root_stirling_matrix,
    stirling1_expand,
    stirling_B,
    wip_root,
    wip_root_coeff,
)

__version__ = "0.1.0"

__all__ = [
    "ExponentVector",
    "exponent_vectors",
    "vector_count",
    "multinomial",
    "weight_dot",
    "IsobaricPoly",
    "PolySequence",
    "WeightVector",
    "convolve",
    "convolve_sequences",
    "gfp",
    "gfp_sequence",
    "glp",
    "glp_sequence",
    "wip_closed",
    "wip_recursive",
    "wip_sequence",
    "Cell",
    "HessenbergMatrix",
    "build_minus",
    "build_plus",
    "hessenberg_value",
    "rep_check",
    "DegenerateQError",
    "gfp_root_closed",
    "gfp_root_matrix",
    "gfp_root_sequence",
    "gfp_root_stirling_matrix",
    "stirling1_expand",
    "stirling_B",
    "wip_root",
    "wip_root_coeff",
    "CompanionWindow",
    "CorePolynomial",
    "DifferentWindow",
    "SingularCoreError",
    "companion_matrix",
    "companion_window",
    "dense_det",
    "different_matrix",
    "different_window",
    "glp_from_gfp",
    "schur_hook",
    "KNOWN_FUNCTIONS",
    "LocalMF",
    "dirichlet_convolve_local",
    "dirichlet_fold",
    "known_function",
    "local_power",
    "recover_core",
    "root_verify",
    "__version__",
]
