"""Analytic machinery of a dark-state atom in light-induced gauge potentials.

A three-level atom dressed by two beams with opposite phase windings
carries an effective flux tube whose strength is set by the mean spin of
its dark state.  This package provides the exact ring and harmonic-trap
spectra in that gauge potential, the coherent-state superpositions that
thread two opposite flux tubes at once, and an independent numerical
oracle (finite differences, a hand-rolled eigensolver, quadrature) that
cross-checks every closed form.
"""

from .errors import (CaseError, ConfigError, ConvergenceError, DegenerateFieldError,
                     DegeneracyError, DomainError, DomainSizeError, ExpansionWarning,
                     FluxRingError, SingularOverlapError, UsageError, ValidationError,
                     VerificationError, WindowError)
from .params import (HBAR, EnergyUnit, FieldConfig, GeometryKind, GeometrySpec,
                     as_geometry_kind, energy_unit, oscillator_length)
from .darkstate import (CaseClassification, DarkOverlaps, FluxCase, SpinPair,
                        bright_excited_eigenvalues, case_of, classify_flux_case,
                        dark_overlaps, decoherence_factor, effective_flux,
                        epsilon_param, gauge_potential_phi, mean_spin,
                        scalar_potential, superposition_norm)
from .ring import (RingSweepRow, ground_m, ring_energy, ring_gap,
                   ring_spectrum_sweep, ring_wavefunction)
from .harmonic import (HarmonicSweepRow, RadialFunction, ground_quantum_numbers,
                       harmonic_energy, harmonic_gap, harmonic_spectrum_sweep,
                       laguerre_gen, log_gamma, mu, radial_profile, radial_wavefunction)
from .superposition import (FeasibilityPoint, GenEig2, SuperpositionResult,
                            build_block, feasibility_boundary, feasibility_sweep,
                            gen_eig_2x2, small_eps_delta_e, superpose_harmonic,
                            superpose_ring)
from .oracle import (OracleReport, hermitian_eigs, quadrature_norm,
                     quadrature_overlap, radial_fd_spectrum, ring_fd_spectrum,
                     run_verification, superposition_block_scan)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FluxRingError", "UsageError", "ValidationError", "ConfigError", "DomainError",
    "DegenerateFieldError", "CaseError", "DegeneracyError", "SingularOverlapError",
    "DomainSizeError", "WindowError", "ConvergenceError", "VerificationError",
    "ExpansionWarning",
    # parameters and units
    "HBAR", "FieldConfig", "GeometryKind", "GeometrySpec", "EnergyUnit",
    "energy_unit", "oscillator_length", "as_geometry_kind",
    # dark-state observables
    "FluxCase", "CaseClassification", "SpinPair", "DarkOverlaps", "case_of",
    "mean_spin", "classify_flux_case", "gauge_potential_phi", "effective_flux",
    "scalar_potential", "bright_excited_eigenvalues", "dark_overlaps",
    "epsilon_param", "decoherence_factor", "superposition_norm",
    # ring spectrum
    "ring_energy", "ground_m", "ring_gap", "ring_spectrum_sweep", "RingSweepRow",
    "ring_wavefunction",
    # harmonic spectrum
    "mu", "harmonic_energy", "ground_quantum_numbers", "harmonic_gap",
    "harmonic_spectrum_sweep", "HarmonicSweepRow", "laguerre_gen", "log_gamma",
    "RadialFunction", "radial_wavefunction", "radial_profile",
    # superpositions
    "GenEig2", "gen_eig_2x2", "SuperpositionResult", "build_block",
    "superpose_ring", "superpose_harmonic", "small_eps_delta_e",
    "FeasibilityPoint", "feasibility_sweep", "feasibility_boundary",
    # numerical oracle
    "OracleReport", "hermitian_eigs", "ring_fd_spectrum", "radial_fd_spectrum",
    "superposition_block_scan", "quadrature_norm", "quadrature_overlap",
    "run_verification",
]
