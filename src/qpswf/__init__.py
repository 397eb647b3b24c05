"""Quaternionic prolate spheroidal wave functions and friends.

Numerical toolbox for the two-sided quaternion Fourier transform, the
sinc-kernel concentration eigenproblem and its tensor-product quaternion
eigenbasis, time/band energy-concentration extremals, and bandlimited
extrapolation of quaternion-valued signals.
"""

import os as _os


def _setup_threads():
    cap = _os.environ.get("QPSWF_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(var, cap)


_setup_threads()  # must run before numpy is first imported

from .concentration import (ComboSignal, EnergyReport, band_limit,
                            boundary_eta, build_boundary_signal,
                            build_eta_one_signal, build_zero_xi_signal,
                            energy_ratios, energy_ratios_band,
                            least_angle_check, sweep_admissible_region,
                            time_limit)
from .extrapolate import (ExtrapolationProblem, ExtrapolationTrace,
                          closed_form_iterate, error_energy,
                          make_synthetic_problem, pg_run, pg_step,
                          pointwise_bound)
from .grid import (GridAxis, QSignal, Region, angle, energy, inner_product,
                   scalar_inner_product)
from .prolate import (BasisSet2D, ProlateBasis1D, Qpswf2D,
                      build_qpswf_basis, build_basis, build_sinc_operator,
                      eig_prolate_1d, extend_eigenfunction, gram_matrix,
                      verify_allpass, verify_finite_qft, verify_lowpass)
from .qft import (SpectrumQ, dual_frequency_axes, forward_qft, inverse_qft,
                  modulate, parseval_check, q_modulus_field,
                  sinc_bandlimit_kernel)
from .quaternion import Quaternion, q_conj, q_modulus, q_mul

__all__ = [
    "BasisSet2D", "ComboSignal", "EnergyReport", "ExtrapolationProblem",
    "ExtrapolationTrace", "GridAxis", "ProlateBasis1D", "QSignal", "Qpswf2D",
    "Quaternion", "Region", "SpectrumQ", "angle",
    "band_limit", "boundary_eta", "build_basis", "build_boundary_signal",
    "build_eta_one_signal", "build_qpswf_basis", "build_sinc_operator",
    "build_zero_xi_signal", "closed_form_iterate", "dual_frequency_axes",
    "eig_prolate_1d", "energy", "energy_ratios", "energy_ratios_band",
    "error_energy", "extend_eigenfunction", "forward_qft", "gram_matrix",
    "inner_product", "inverse_qft", "least_angle_check",
    "make_synthetic_problem", "modulate", "parseval_check", "pg_run",
    "pg_step", "pointwise_bound", "q_conj", "q_modulus", "q_mul",
    "q_modulus_field", "scalar_inner_product", "sinc_bandlimit_kernel",
    "sweep_admissible_region", "time_limit", "verify_allpass",
    "verify_finite_qft", "verify_lowpass",
]

__version__ = "0.1.0"
