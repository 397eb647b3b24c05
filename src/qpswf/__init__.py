"""Quaternionic prolate spheroidal wave functions and friends.

Numerical toolbox for the two-sided quaternion Fourier transform, the
sinc-kernel concentration eigenproblem and its tensor-product quaternion
eigenbasis, time/band energy-concentration extremals, and bandlimited
extrapolation of quaternion-valued signals.
"""

import importlib as _importlib
import os as _os


def _setup_threads():
    cap = _os.environ.get("QPSWF_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(var, cap)


_setup_threads()  # must run before numpy is first imported

# the exported names by module; each module is imported when one of its names is first read
_EXPORTS = {
    "concentration": ("ComboSignal", "EnergyReport", "band_limit", "boundary_eta",
                      "build_boundary_signal", "build_eta_one_signal", "build_zero_xi_signal",
                      "energy_ratios", "energy_ratios_band", "least_angle_check",
                      "sweep_admissible_region", "time_limit"),
    "extrapolate": ("ExtrapolationProblem", "ExtrapolationTrace", "closed_form_iterate",
                    "error_energy", "make_synthetic_problem", "pg_run", "pg_step",
                    "pointwise_bound"),
    "grid": ("GridAxis", "QSignal", "Region", "angle", "energy", "inner_product",
             "scalar_inner_product"),
    "prolate": ("BasisSet2D", "ProlateBasis1D", "Qpswf2D", "build_qpswf_basis", "build_basis",
                "eig_prolate_1d", "extend_eigenfunction", "gram_matrix", "verify_allpass",
                "verify_finite_qft", "verify_lowpass"),
    "qft": ("SpectrumQ", "dual_frequency_axes", "forward_qft", "inverse_qft", "modulate",
            "parseval_check", "q_modulus_field"),
    "quaternion": ("Quaternion", "q_conj", "q_modulus", "q_mul"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
