"""Kerr-cat qubit simulation toolkit.

Schrodinger-cat qubits stabilized by a squeezing drive in a Kerr-nonlinear
oscillator: Hilbert-space utilities, the two-photon-driven Kerr Hamiltonian
and its cat-aligned qubit frame, open-system time evolution with engineered
and parasitic baths, gate and readout simulation, process tomography, and
microwave stub-filter design. The ``kerrcat`` console script exposes the
named experiments.

Every evolution is an exponential. Under a constant Hamiltonian a ket is
propagated exactly from one eigendecomposition of H; under a time-dependent
schedule it is integrated by a fourth-order commutator-free exponential
scheme (CF4) on the envelope grid. A density matrix takes the same CF4
scheme under any Hamiltonian, in real arithmetic in a Hermitian basis where
the sparse Liouvillian L is real; without envelopes each interval is one
exponential exp(L dt). Every exponential beyond the eigendecomposition is a
Chebyshev series.
"""

__version__ = "0.1.0"

from .errors import (ConfigInvalid, DegenerateCat, DegenerateModes,
                     DimMismatch, ExperimentFailed, FitDiverged, KerrcatError,
                     NonFiniteState, NonPositiveTemperature, NotHermitian,
                     OutOfWindow, ResonantDriveSingularity, SingularDesign,
                     TruncationTooSmall, ZeroDrive, ZeroG3)
from .fock import (DensityMatrix, Ket, Operator, Truncation, annihilation,
                   cat_state, coherent_state, creation, default_truncation,
                   displacement, expectation, fock_state, number_operator,
                   parity_operator, state_fidelity, wigner, wigner_grid,
                   wigner_normalization)
from .kernels import backend, warmup
from .catframe import CatFrame, bloch_vector, build_cat_frame, manifold_population
from .model import (KerrCatParams, SnailParams, Spectrum, cqr_coupling,
                    dressed_mode_params, effective_kerr_params,
                    effective_squeezing_amplitude, egap_estimate,
                    kerr_cat_hamiltonian, spectrum, squeezing_for_cat_size,
                    well_excitations)
from .dynamics import (BathSpec, DetuningNoise, DetuningSweepResult,
                       EvolutionResult, ExpFit, JumpTerm, Schedule,
                       bose_einstein, build_dephasing, build_full_dissipators,
                       build_nrwa_dissipators, build_rwa_dissipators,
                       default_snail, detuning_lifetime_sweep, evolve,
                       evolve_ket, fit_exponential, lifetime_T_C,
                       lifetime_T_alpha, liouvillian_matrix, nbar_time_avg,
                       standard_bath, tc_tradeoff)
from .control import (XGateSpec, cat_size_from_rabi, chevron_map,
                      count_transfer_lobes, effective_detuning,
                      phase_modulation_pulse, rabi_frequency, simulate_x_gate,
                      simulate_z_rotation, x_gate_schedule, x_gate_transfer)
from .measurement import (CANONICAL_PREPS, PTM, DiscriminationLine, IQShot,
                          ReadoutParams, SpamModel, apply_ptm,
                          cqr_steady_amplitude, default_line, default_readout,
                          discriminate, gate_fidelity,
                          misassignment_probability, ptm_estimate,
                          ptm_identity, ptm_rotation, qndness,
                          simulate_readout, tomography_pipeline)
from .microwave import (NetworkElement, TwoPortABCD, abcd_of, cascade,
                        design_notch_filter, s11, s21, stopband_width, sweep,
                        to_db)
from .experiments import REGISTRY, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
