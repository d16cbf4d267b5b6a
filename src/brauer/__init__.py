"""Exact arithmetic for Brauer's centralizer algebra B(n, N), its irreducible
representations in Young's orthogonal form, the central generating series,
and the affine Brauer algebra A(n, N) with its regular-monomial normal form.
"""

from .coeffs import NPoly, Rational, SurdSum, USeries, sqrt_of_rational
from .diagrams import (
    AlgebraElement,
    BrauerDiagram,
    KERNEL_BACKEND,
    bar_transposition,
    compose,
    from_permutation,
    jucys_murphy,
    multiply,
    partial_closure,
    transposition,
    verify_presentation,
    z_element,
)
from .shapes import branch, b_list, contents, enumerate_O, enumerate_paths, in_O
from .repform import (
    PathBasis,
    RepMatrix,
    Representation,
    build_representation,
    build_s_matrix,
    build_sbar_matrix,
    central_series,
    jm_eigenvalue,
    q_k_series,
    q_series,
    q_series_alt,
    z_series,
)
from .tensor import TensorOperator, TensorVector, act_bar, act_diagram, act_transposition
from .affine import (
    AffineElement,
    HeckeElement,
    RegularMonomial,
    from_word,
    hecke_quotient,
    is_zero_via_faithfulness,
    pi_m,
    w_series,
)

__version__ = "0.1.0"
