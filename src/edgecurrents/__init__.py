"""Boundary spectra and regularized edge currents of a 2+1d free fermion on the half plane."""

from importlib import import_module

# Submodule -> its exported names, loaded on first use (PEP 562) so that `import edgecurrents`
# imports no numpy; uncached, so a name rebound in its submodule is what the package returns.
_EXPORTS = {
    "currents": "CurrentDecomposition SingularPart singular_part total_decomposition",
    "errors": "BoostUndefined CptInvariantBoundary EdgeCurrentsError NonConvergent OutOfDomain",
    "fd": "apply_dirac_fd eigen_residual richardson_residual sample_on_grid",
    "multifermion": """BoostScanEntry FermionSystem ResidualReport boost_invariance_scan
        conjugate_pair make_system residuals solve_system""",
    "oracle": "BranchCutResult oracle_branch_cut_integral oracle_bulk_current oracle_edge_current",
    "params": """GAMMA_INFINITY BoundaryCharacter ModelParams ProjectiveReal as_gamma boost
        boundary_character cpt_dual edge_velocity halfplane_dual reflection_dual""",
    "spectrum": """BulkMode DefectMode EdgeMode bulk_mode defect_mode edge_conductivity
        edge_dispersion edge_mode_at_k eval_bulk eval_defect eval_edge gap_crossing""",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if (mod := _MODULE_OF.get(name)) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a loaded submodule is bound in this namespace; import_module costs ~1.5 us more
    return getattr(globals().get(mod) or import_module(f".{mod}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
