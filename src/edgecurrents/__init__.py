"""Boundary spectra and regularized edge currents of a 2+1d free fermion on the half plane."""

from .currents import (BulkClosedForm, CurrentDecomposition, PartialFractionData, SingularPart,
                       bulk_integrand_j2, closed_form_bulk_j2, closed_form_edge_j2,
                       edge_integrand_j2, heaviside, j1_identically_zero_check, k_of_v,
                       partial_fractions, singular_part, total_decomposition, v_of_k)
from .errors import (BoostUndefined, CptInvariantBoundary, DegeneratePair, EdgeCurrentsError,
                     GridTooSmall, InvalidDeficiency, InvalidMomentum, NoEdgeState,
                     NonConvergent, OutOfDomain)
from .fd import apply_dirac_fd, eigen_residual, richardson_residual, sample_on_grid
from .multifermion import (BoostScanEntry, FermionSystem, ResidualReport, boost_invariance_scan,
                           conjugate_pair, make_system, rapidity_equivalence_check, residuals,
                           solve_system)
from .oracle import (BranchCutResult, P3P4Report, delta_prime_sector_null,
                     oracle_branch_cut_integral, oracle_bulk_current, oracle_edge_current,
                     oracle_p3_p4_cancellations)
from .params import (GAMMA_INFINITY, BoundaryCharacter, ModelParams, ProjectiveReal, as_gamma,
                     boost, boundary_character, cpt_dual, edge_velocity, halfplane_dual,
                     reflection_dual)
from .spectrum import (BulkMode, DefectMode, EdgeMode, SpinorValue, bulk_mode, defect_mode,
                       edge_conductivity, edge_mode_at_k, eval_bulk, eval_bulk_grid,
                       eval_defect, eval_defect_grid, eval_edge, eval_edge_grid, gap_crossing)

__version__ = "0.1.0"
