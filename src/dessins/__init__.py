"""Exact enumeration of directed ribbon graphs / dessins d'enfants.

Four independent routes to the same weighted counts: exponentiating the
cut-and-join operator on the Fock space, one exact layer at a time, the
Tutte recursion on boundary perimeters, the matrix coefficients of the
gluing kernels from graph enumeration with lattice-point counts, and direct
brute force over permutation triples.  On top of the counts: Virasoro constraints, the loop
equation, the Eynard-Orantin topological recursion on x = z + 1/z, and the
lattice-count substitution identity for Norbury polynomials.
"""

from .series import MARKER_NEG, Monomial, Poly
from .operators import (
    DiffOp,
    DiffTerm,
    apply,
    commutator_check,
    conjugate_shift,
    constraint_c,
    p_minus,
    p_plus,
    virasoro_l,
    w0,
    w0_reduced,
    w1,
    w1_reduced,
)
from .partition import (
    CountKey,
    QSeries,
    connected,
    count,
    integral_points_series,
    partition_function,
    partition_function_bivalent,
    virasoro_residuals,
)
from .tutte import r_tilde, r_tilde_nc
from .maps import (
    DirectedMap,
    EnumSpec,
    count_dessins,
    directed_maps,
    norbury_N,
)
from .opmatrix import KernelBlock, adjoint_check, cutjoin_matrix_check, kernel_block
from .spectral import (
    CorrelatorSeries,
    OmegaDifferential,
    bergman_check,
    laplace_W,
    loop_check,
    norbury_substitution_check,
    solve_disc,
    tr_agreement_check,
    tr_omega,
)

__version__ = "0.1.0"
