"""Topological obstructions for almost commuting structured matrices.

Bott and Pfaffian-Bott indices, soft sphere/torus relation residuals,
structured canonical forms with constructive witnesses, Wannier-spread
localization diagnostics, and generators for the standard examples.
"""

from .canonical import (
    ExtractionResult,
    WitnessReport,
    commuting_pair_from_sphere,
    diag_anti_selfdual,
    k2_quaternion_witness,
    k2_real_witness,
    k2_twisted_witness,
    polar_product_check,
    real_skew_canonical,
    skew_representative,
)
from .errors import (
    AcbottError,
    GapTooSmall,
    NontrivialClass,
    ObstructionError,
    ValidationError,
)
from .invariants import (
    IndexReport,
    bott_index,
    bott_index_unitaries,
    bott_matrix,
    compressed_index,
    pf_bott_index,
    pf_bott_unitaries,
    torus_to_sphere,
)
from .matkernel import (
    EigDecomposition,
    herm_eig,
    operator_norm,
    pfaffian_combinatorial,
    pfaffian_real_skew,
    polar,
    signature,
)
from .models import (
    LatticeSpec,
    harper_hamiltonian,
    harper_isometry,
    harper_projection,
    selfdual_double,
    torus_positions,
    voiculescu,
)
from .relations import (
    RelationReport,
    disk_residual,
    sphere_residual,
    torus2_residual,
    torus4_residual,
)
from .symmetry import (
    SymmetryClass,
    chi_embed,
    dual,
    phi_conjugate,
    phi_inverse,
    sharp_sharp,
    symmetrize,
    symplectic_form,
    tau_residual,
    time_reversal,
)
from .wannier import (
    CompressionReport,
    SpreadReport,
    compress_positions,
    eigenbasis_commuting,
    projection_isometry,
    spread,
    spread_continuity_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
