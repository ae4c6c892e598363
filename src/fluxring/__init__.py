"""Analytic machinery of a dark-state atom in light-induced gauge potentials.

A three-level atom dressed by two beams with opposite phase windings
carries an effective flux tube whose strength is set by the mean spin of
its dark state.  This package provides the exact ring and harmonic-trap
spectra in that gauge potential, the coherent-state superpositions that
thread two opposite flux tubes at once, and an independent numerical
oracle (finite differences, LAPACK eigensolvers, Gauss-Legendre
quadrature) that cross-checks every closed form.

`import fluxring` loads no submodule, numpy or scipy.  Each exported
name resolves on access through the module `__getattr__` (PEP 562),
which imports only the submodule that defines it.  Nothing is cached
here, so a name rebound on its submodule is what the package returns.
"""

import importlib
import sys

__version__ = "0.1.0"

# submodule -> the names it exports through the package, in __all__ order
_EXPORTS = {
    "errors": (
        "FluxRingError", "UsageError", "ValidationError", "ConfigError", "DomainError",
        "DegenerateFieldError", "CaseError", "DegeneracyError", "SingularOverlapError",
        "DomainSizeError", "WindowError", "ConvergenceError", "VerificationError",
        "ExpansionWarning"),
    # request parameters
    "params": ("FieldConfig", "GeometryKind", "as_geometry_kind"),
    # dark-state observables
    "darkstate": (
        "FluxCase", "CaseClassification", "SpinPair", "case_of", "mean_spin",
        "classify_flux_case", "epsilon_param"),
    # ring spectrum
    "ring": (
        "ring_energy", "ground_m", "ring_gap", "ring_spectrum_sweep", "RingSweepRow"),
    # harmonic spectrum
    "harmonic": (
        "mu", "harmonic_energy", "ground_quantum_numbers", "harmonic_gap",
        "harmonic_spectrum_sweep", "HarmonicSweepRow", "laguerre_gen", "log_gamma",
        "RadialFunction", "radial_wavefunction"),
    # superpositions
    "superposition": (
        "SuperpositionResult", "superpose_ring", "superpose_harmonic", "small_eps_delta_e",
        "FeasibilityPoint", "feasibility_sweep", "feasibility_boundary"),
    # numerical oracle, the explicit 2x2 pencil included
    "oracle": (
        "GenEig2", "gen_eig_2x2", "build_block", "OracleReport", "hermitian_eigs",
        "ring_fd_spectrum", "radial_fd_spectrum", "superposition_block_scan",
        "quadrature_norm", "quadrature_overlap", "run_verification"),
}

# exported name -> full name of its submodule
_SOURCE = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
           for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    source = _SOURCE.get(name)
    if source is not None:
        # sys.modules first: import_module costs ~3 us even when loaded
        return getattr(sys.modules.get(source) or importlib.import_module(source), name)
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
