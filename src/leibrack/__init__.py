"""Exact computational algebra for finite-dimensional Leibniz algebras.

Structure constants over the rationals drive everything: identity
verification, derivations, left-center extensions and their cocycles, the
exponential (rack) integrations, truncated BCH products, and the
quantization-side checks on the dual space.
"""

__version__ = "0.1.0"

from .algebra import (
    DerivationSummary,
    Element,
    Endomorphism,
    LeibnizAlgebra,
    Subspace,
    derivation_algebra,
    hemi_semi_direct,
    left_center,
)
from .bch import conj_star, verify_conj_identity
from .cocycle import SERIES_SIGN, rack_cocycle_exact, rack_cocycle_series
from .corpus import CORPUS_NAMES, load_corpus
from .extension import (
    ExtensionData,
    build_extension,
    cocycle_identity_violations,
    reconstruction_violations,
)
from .io import InterchangeError, algebra_from_dict, algebra_to_dict, load_algebra, save_algebra
from .observables import Covector, PolyObservable
from .quantize import (
    HessianReport,
    generating_function,
    generating_gradients,
    hessian_check,
    poisson_bracket,
    quantum_rack_action,
    semiclassical_leading_terms,
)
from .racks import (
    PairElement,
    bass_product,
    check_rack_axioms,
    coadjoint,
    exp_endo,
    hs_rack_product,
    rh_embed,
)
from .tangent import max_table_error, tangent_recover
