"""Sinc-kernel concentration eigenproblem and the quaternion 2D basis.

The 1D eigenfunctions on [-T, T] with band half-width W are prolate
spheroidal functions of bandwidth c = T W, summed at Gauss-Legendre nodes
from their Legendre series: the eigenvectors of one tridiagonal matrix per
parity, solved in double and refined once in 80-bit extended precision.
Their finite-Fourier multipliers and eigenvalues follow from the same
series in closed form, so the solve forms no kernel.  Every kernel sum
against phi_k, the Nystrom extension (extend_ld) and the checks' images
(_node_images, _window_images), is one _kernel_sums: its kernel is formed
in row blocks bounded by the table the sum reads.
The Gauss nodes are exactly antisymmetric, so phi_k has exact parity
(-1)^k at them, and so have its extension and its finite-Fourier image:
those are summed at the distinct values of |x| only (_by_parity).

2D eigenfunctions are tensor products phi_m(x) phi_n(y) times a fixed unit
quaternion amplitude, with eigenvalue lambda_m * lambda_n.  Global (whole-
plane) inner products of basis elements are sums on the band Gauss rule,
exact for band-limited functions: at desk-scale windows the spatial tails
of the eigenfunctions still carry O(1/X) energy, so literal window
quadrature cannot certify whole-plane identities.

A 2D basis keeps 1D factor tables (ModeTables) over the modes its elements
use, and those tables are the whole basis: an element grid is formed from two
grid-table rows only when Qpswf2D.values is read, and the command line stores
the grid table alone.  Every kernel is built in blocks of rows (_row_blocks),
so memory is linear in N; each entry keeps its own reduction, so the blocks
change no bit.  The eigen-form checks are composed from 1D mode
vectors as well: each 2D residual is split into a few separable terms
a(x) b(y) whose weighted norm is a sum of products of 1D Grams, so no check
forms a 2D grid.
"""

from __future__ import annotations

import collections
import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadIndex, BadParameters, ConvergenceFailure,
                     EigenvalueTooSmall, NonUnitCoefficient, RegionOutOfGrid)
from .grid import GridAxis, QSignal, Region, _row_blocks
from .quaternion import Quaternion, q_mul

_LD = np.longdouble
_PI = 4 * np.arctan(_LD(1))  # pi in long double; _LD(np.pi) is the double pi

# public floor: operations that divide by an eigenvalue reject smaller ones
EIG_FLOOR = 1e-12

# extended-precision evaluation floor: below this the nodal data carries no
# usable information even in 80-bit arithmetic
_EVAL_FLOOR = 1e-15

# Newton steps a Gauss rule may take: from Tricomi's nodes 256 and 2048 nodes take 3
_NEWTON_STEPS = 10


# ---------------------------------------------------------------------------
# quadrature and kernel in extended precision


def _kernel_sums(kernel, x, s, wf) -> np.ndarray:
    """sum_j kernel(x_i, s_j) wf[..., j], shape wf.shape[:-1] + (len(x),).  The kernel is
    formed as kernel(x[rows, None], s), one block of rows with no more entries than wf at a
    time; every entry keeps its own reduction, so the blocks change no bit."""
    return np.concatenate([wf @ kernel(x[rows, None], s).T
                           for rows in _row_blocks(len(x), len(s) * wf.itemsize, wf.nbytes)],
                          axis=-1)


def _by_parity(k, x, at_abs) -> np.ndarray:
    """Rows k of a table of parity (-1)^k at the points x: at_abs(a), its rows at the
    distinct values a of |x| in ascending order, times sign(x)^k.  phi_k, K phi_k and
    I_k on exactly antisymmetric nodes are such tables, so this is exact for them."""
    a, at = np.unique(np.abs(x), return_inverse=True)
    return at_abs(a)[..., at] * np.where(np.asarray(k)[..., None] % 2, np.sign(x), 1)


def _legendre_ld(n: int, x):
    """P_0..P_n at the points x by the three-term recurrence, one row at a time."""
    x = np.asarray(x, dtype=_LD)
    prev, p = np.ones_like(x), x
    yield prev
    yield p
    for k in range(2, n + 1):
        prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
        yield p


@functools.lru_cache(maxsize=32)
def _gauss_unit_ld(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1] in long double.

    Newton's method on P_n, evaluated by the recurrence in long double, runs
    on the nonpositive half from Tricomi's asymptotic nodes
    -(1 - (n - 1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2)), k = 1..ceil(n/2),
    until a step moves no node by more than sqrt(eps)/n: Newton's error
    constant |x|/(1 - x^2) is below n^2/5 at every node, so the node after
    that step is within the rounding.  A rule that has not converged after
    _NEWTON_STEPS steps raises ConvergenceFailure.  The half is then
    mirrored, so the nodes are exactly antisymmetric (node 0 is exact for odd
    n) and the weights exactly symmetric.
    """
    def newton(x):  # P_n(x) and P_n'(x), keeping only P_{n-1} and P_n
        q, p = collections.deque(_legendre_ld(n, x), maxlen=2)
        return p, n * (x * p - q) / (x * x - 1)

    k = np.arange(1, (n + 1) // 2 + 1, dtype=_LD)
    x = -(1 - _LD(n - 1) / (8 * _LD(n) ** 3)) * np.cos(_PI * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0  # P_n(0) = 0 exactly for odd n, so Newton keeps it
    tol = np.sqrt(np.finfo(_LD).eps) / n
    for _ in range(_NEWTON_STEPS):
        p, dp = newton(x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= tol:
            break
    else:
        raise ConvergenceFailure(f"Newton's method for the {n}-node Gauss rule did not "
                                 f"converge in {_NEWTON_STEPS} steps")
    dp = newton(x)[1]
    w = 2 / ((1 - x * x) * dp * dp)
    x, w = np.concatenate([x, -x[:n // 2][::-1]]), np.concatenate([w, w[:n // 2][::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def sinc_kernel_ld(d, w_half) -> np.ndarray:
    """sin(W d)/(pi d) in long double; where |W d| < 1e-8 its series (W/pi)(1 - (W d)^2/6),
    whose next term is below the long-double eps there."""
    d = np.asarray(d, dtype=_LD)
    wd = _LD(w_half) * d
    out = np.empty_like(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.sin(wd), _PI * d, out=out)
    small = np.abs(wd) < _LD(1e-8)
    out[small] = _LD(w_half) / _PI * (1 - wd[small] ** 2 / 6)
    return out


# ---------------------------------------------------------------------------
# Legendre series of the prolate functions


def _parity_eigvecs(c, parity: int, size: int, keep: int) -> np.ndarray:
    """Leading keep eigenvectors of one parity's tridiagonal, refined in long double.

    The commuting operator -(1 - t^2) d^2/dt^2 + 2t d/dt + c^2 t^2 acts on
    normalized Legendre coefficients of degrees k = parity, parity + 2, ...
    as a symmetric tridiagonal matrix; ascending eigenvalues give the modes
    of that parity in order.  The double eigenvectors get one Ogita-Aishima
    step (2018): with R = I - V^T V_k, S = V^T A V_k and Rayleigh quotients
    l_i, V_k += V E where E_ij = (S_ij + l_j R_ij) / (l_j - l_i), E_jj = R_jj / 2.
    """
    k = np.arange(parity, parity + 2 * size, 2).astype(_LD)
    c2 = _LD(c) ** 2
    diag = k * (k + 1) + c2 * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    k = k[:-1]
    off = c2 * (k + 2) * (k + 1) / ((2 * k + 3) * np.sqrt((2 * k + 1) * (2 * k + 5)))
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        v = np.linalg.eigh(a.astype(np.float64))[1].astype(_LD)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    av = a @ v
    ritz = (v * av).sum(axis=0) / (v * v).sum(axis=0)
    r = np.eye(size, keep, dtype=_LD) - v.T @ v[:, :keep]
    gap = ritz[None, :keep] - ritz[:, None]
    np.fill_diagonal(gap, 1)
    e = (v.T @ av[:, :keep] + ritz[None, :keep] * r) / gap
    np.fill_diagonal(e, np.diag(r) / 2)
    vk = v[:, :keep] + v @ e
    return vk / np.sqrt((vk * vk).sum(axis=0))


def _prolate_series(c, count: int) -> np.ndarray:
    """Normalized Legendre coefficients of psi_0..psi_{count-1} on [-1, 1].

    Returns beta of shape (degrees, count) with psi_n(t) = sum_k beta[k, n]
    sqrt(k + 1/2) P_k(t); each column has unit norm and the other parity's
    entries are zero.  The series has ceil(count / 2 + c) + 16 terms per
    parity, fixed once: the coefficients of psi_n fall faster than
    geometrically once the degree passes both n and c (Xiao, Rokhlin &
    Yarvin 2001).  A kept mode whose trailing coefficients are not below the
    double eps raises ConvergenceFailure.
    """
    size = int(np.ceil(count / 2 + c)) + 16
    beta = np.zeros((2 * size, count), dtype=_LD)
    for parity in (0, 1):
        beta[parity::2, parity::2] = _parity_eigvecs(c, parity, size, (count + 1 - parity) // 2)
    if not np.abs(beta[-6:]).max() < np.finfo(np.float64).eps:
        raise ConvergenceFailure(f"Legendre series of c = {c:.6g} did not converge "
                                 f"within {size} terms per parity")
    return beta


# ---------------------------------------------------------------------------
# 1D basis


@dataclass(frozen=True)
class ProlateBasis1D:
    """Leading eigenpairs of the 1D concentration operator on [-T, T].

    eigvecs[k] holds phi_k at the Gauss nodes, normalized to unit norm on
    the whole line; equivalently the weighted norm on [-T, T] is
    sqrt(eigvals[k]).  mu[k] is the finite-Fourier multiplier of phi_k and
    eigvals[k] = (W / T) |mu[k]|^2 / 2 pi, both from the Legendre series.
    """

    t_half: float
    w_half: float
    c: float                    # concentration scale T*W
    nodes: np.ndarray           # (N,) float64 view
    weights: np.ndarray         # (N,) float64 view
    eigvals: np.ndarray         # (count,) float64, >= 0, non-increasing
    eigvecs: np.ndarray         # (count, N) float64, phi_k at the nodes
    mu: np.ndarray              # (count,) complex128
    _x_ld: np.ndarray = field(repr=False, default=None)
    _w_ld: np.ndarray = field(repr=False, default=None)
    _phi_ld: np.ndarray = field(repr=False, default=None)   # (count, N)
    _lam_ld: np.ndarray = field(repr=False, default=None)   # (count,)
    _mu_ld: np.ndarray = field(repr=False, default=None)    # (count,) clongdouble

    @property
    def count(self) -> int:
        return len(self.eigvals)

    def extend_ld(self, k, x) -> np.ndarray:
        """phi_k at arbitrary points via the quadrature extension formula.

        k is one mode index, giving shape (len(x),), or an index array,
        giving one row per mode; every mode shares one sinc kernel, taken at
        the distinct values of |x| in blocks no larger than the nodal table
        the sum reads (_kernel_sums), and the signs follow the parity
        (_by_parity).  A mode with lambda_k at or below _EVAL_FLOOR raises
        EigenvalueTooSmall.
        """
        for j in np.atleast_1d(k):
            if not self._lam_ld[j] > _EVAL_FLOOR:
                raise EigenvalueTooSmall(f"lambda_{j} = {float(self._lam_ld[j]):.3e} "
                                         f"is below the evaluation floor {_EVAL_FLOOR:.0e}")
        lam, wphi = np.asarray(self._lam_ld[k])[..., None], self._w_ld * self._phi_ld[k]
        return _by_parity(k, np.atleast_1d(np.asarray(x, dtype=_LD)), lambda a: _kernel_sums(
            lambda p, q: sinc_kernel_ld(p - q, self.w_half), a, self._x_ld, wphi) / lam)


def check_phase(n: int, phase, what: str) -> None:
    """BadParameters unless the n-node Gauss rule integrates e^{i phase t} over [-1, 1] to
    1e-13: band-side sums at |x| of a function on [-T, T] reach phase (|x| + T) W."""
    t, w = _gauss_unit_ld(n)
    miss = abs((w * np.cos(phase * t)).sum() - 2 * np.sin(phase) / phase)
    if not miss <= 1e-13:
        raise BadParameters(f"quad_n = {n} is too small for {what}: the rule misses the integral "
                            f"of exp(i {float(phase):.6g} t) over [-1, 1] by {float(miss):.1e}")


def eig_prolate_1d(t_half: float, w_half: float, n: int, count: int) -> ProlateBasis1D:
    """The top-count eigenpairs of the concentration operator at the n Gauss nodes.

    phi_k is summed from the Legendre series of the prolate function psi_k of
    bandwidth c = T W at t = x / T.  Integrating psi_k and i c t psi_k over
    [-1, 1] gives mu psi_k(0) = sqrt(2) beta_0k and mu psi_k'(0) = i c
    sqrt(2/3) beta_1k, so mu_k = T mu and lambda_k = (c / 2 pi) |mu|^2 hold to
    relative precision however small (Xiao, Rokhlin & Yarvin 2001).  An n too
    small for c (the rule misses the integral of e^{2ict}) is rejected; signs
    follow phi_k(0) > 0 for even k and phi_k'(0) > 0 for odd k.
    """
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (n, count)) \
            or not 1 <= count <= n or n < 16:
        raise BadParameters(f"need integers n >= 16 and 1 <= count <= n, got {n!r} and {count!r}")
    if not (0 < t_half < np.inf and 0 < w_half < np.inf):
        raise BadParameters("T and W must be positive and finite")
    t, w = _gauss_unit_ld(n)
    c = _LD(t_half) * _LD(w_half)
    # 2c is the largest phase the kernel and the band-side step integrate
    check_phase(n, 2 * c, f"c = T W = {float(c):.6g}")

    beta = _prolate_series(c, count)
    deg = np.arange(len(beta), dtype=_LD)
    scale = np.sqrt(deg + _LD(0.5))
    p0 = np.stack(list(_legendre_ld(len(beta), np.zeros(1))))[:, 0]
    # psi_n(0) + psi_n'(0) with P_k'(0) = k P_{k-1}(0): by parity one term is zero
    at0 = (scale * p0[:-1]) @ beta + (scale[1:] * deg[1:] * p0[:-2]) @ beta[1:]
    mu1 = np.where(np.arange(count) % 2, 1j * c * np.sqrt(_LD(2) / 3) * beta[1],
                   np.sqrt(_LD(2)) * beta[0]) / at0
    lam = c / (2 * _PI) * (mu1 * mu1.conj()).real
    mu = _LD(t_half) * mu1
    beta = beta * np.where(at0 < 0, -1, 1)
    phi = sum(b[:, None] * p for b, p in zip(scale[:, None] * beta, _legendre_ld(len(beta) - 1, t)))

    x, w = _LD(t_half) * t, _LD(t_half) * w
    # scaled so the [-T, T] energy equals lambda (unit whole-line norm)
    phi = phi / np.sqrt((w * phi * phi).sum(axis=1))[:, None] * np.sqrt(lam)[:, None]
    return ProlateBasis1D(
        t_half=float(t_half), w_half=float(w_half), c=float(t_half * w_half),
        nodes=x.astype(np.float64), weights=w.astype(np.float64),
        eigvals=lam.astype(np.float64), eigvecs=phi.astype(np.float64),
        mu=mu.astype(complex), _x_ld=x, _w_ld=w, _phi_ld=phi, _lam_ld=lam, _mu_ld=mu)


def extend_eigenfunction(basis: ProlateBasis1D, k: int, x_outside):
    """Evaluate phi_k anywhere on the line by the quadrature extension; k is an int."""
    if not (isinstance(k, numbers.Integral) and not isinstance(k, bool)
            and 0 <= k < basis.count):
        raise BadIndex(f"mode {k!r} not in basis of {basis.count}")
    if basis.eigvals[k] < EIG_FLOOR:
        raise EigenvalueTooSmall(
            f"lambda_{k} = {basis.eigvals[k]:.3e} below the floor {EIG_FLOOR:.0e}")
    vals = basis.extend_ld(k, x_outside).astype(np.float64)
    return float(vals[0]) if np.isscalar(x_outside) else vals


# ---------------------------------------------------------------------------
# 2D tensor basis


DEFAULT_COEFF = Quaternion(0.5, 0.5, 0.5, 0.5)


def band_rule(basis1d: ProlateBasis1D):
    """Gauss rule on [-W, W] mapped from the time-side nodes (u = (W/T) s)."""
    cr = basis1d.w_half / basis1d.t_half
    return cr * basis1d.nodes, cr * basis1d.weights


def band_kernel(x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp(i x u) sqrt(w / 2 pi): values at the points x of band coefficients
    a = sqrt(w_u w_v) F / 2 pi on the rule (u, w), by E_x a E_y^T (see signals)."""
    return np.exp(1j * np.outer(x, u)) * np.sqrt(w / (2 * np.pi))


@dataclass(frozen=True)
class ModeTables:
    """1D factor tables of the modes 0..M-1 that a 2D basis uses; row k is mode k.

    Every 2D quantity of a basis element or combination is a product of
    two rows (signals.ModalField does the contractions).  The top products
    always use a prefix of the modes, all above the evaluation floor.
    _memo is the one per-basis memo (see memo), keyed per purpose: ("ext",
    ax), the grid table of every mode on the axis ax (ext_x, ext_y); "nodes",
    the kernel and finite-Fourier images of every mode at the nodes
    (_node_images); ("window", h), the all-pass window images of every mode
    for window half-width h (_window_images); "band_frame", extrapolate's
    band-rule eigenframe with the mode tables and the probe kernels folded
    into it; ("final", ax_x, ax_y), its final-grid kernels on those axes.
    """

    basis1d: ProlateBasis1D
    ax_x: GridAxis
    ax_y: GridAxis
    band: np.ndarray            # (M, N) complex, sqrt(w_u / 2 pi) F(phi_k)(u) on the band rule
    cut: np.ndarray             # (M, N) complex, the same for phi_k restricted to [-T, T]
    gram_t: np.ndarray          # (M, M) long double, <phi_a, phi_b> on [-T, T]
    gram_r: np.ndarray          # (M, M) float64, <phi_a, phi_b> on the line: Re band band^H
    lambda2d: np.ndarray        # (M, M) float64, lambda_a lambda_b rounded once from long double
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def memo(self, key, build):
        """build() on the first call with key; every later call returns that same result."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _ext(self, ax: GridAxis) -> np.ndarray:
        """phi_k of every mode at the samples of ax, by extend_ld on the first read."""
        return self.memo(("ext", ax), lambda: self.basis1d.extend_ld(np.arange(len(self.band)),
                                                                     ax.samples()))

    @property
    def ext_x(self) -> np.ndarray:
        """(M, Nx) long double, phi_k on the x grid."""
        return self._ext(self.ax_x)

    @property
    def ext_y(self) -> np.ndarray:
        """(M, Ny) long double, phi_k on the y grid."""
        return self._ext(self.ax_y)


def _mode_tables(b: ProlateBasis1D, m: int, ax_x: GridAxis, ax_y: GridAxis) -> ModeTables:
    # per-axis factor of the band coefficients a = sqrt(w_u w_v) F / 2 pi
    sw = np.sqrt(band_rule(b)[1] / (2 * np.pi))
    # F(phi_k)(u) = (mu_k / lambda_k) phi_k(-u / c): reversed nodes are -s
    band = (b.mu[:m] / b.eigvals[:m])[:, None] * b.eigvecs[:m, ::-1] * sw
    # the cut's transform at u = (W/T) x is the conjugate of I_k(x) = mu_k phi_k(x)
    cut = (np.conj(b._mu_ld[:m, None]) * b._phi_ld[:m] * sw).astype(complex)
    gram_t = (b._phi_ld[:m] * b._w_ld[None, :]) @ b._phi_ld[:m].T
    lam = b._lam_ld[:m]
    # the band rule is exact for band-limited functions, so it gives the whole-line
    # Gram; its imaginary part is rounding
    return ModeTables(basis1d=b, ax_x=ax_x, ax_y=ax_y, band=band, cut=cut, gram_t=gram_t,
                      gram_r=(band @ band.conj().T).real,
                      lambda2d=(lam[:, None] * lam[None, :]).astype(np.float64))


@dataclass(frozen=True)
class Qpswf2D:
    """Tensor-product quaternion eigenfunction coeff * phi_m(x) phi_n(y), held as two table rows."""

    m: int
    n: int
    lambda2d: float
    coeff: Quaternion
    mu_x: complex
    mu_y: complex
    basis1d: ProlateBasis1D = field(repr=False)
    tables: ModeTables = field(repr=False)

    @property
    def above_floor(self) -> bool:
        return self.lambda2d >= EIG_FLOOR

    @property
    def values(self) -> QSignal:
        """The element on the basis grid: the outer product of its two long-double mode
        rows, rounded once to double, times coeff."""
        t = self.tables
        grid = (t.ext_x[self.m][:, None] * t.ext_y[self.n][None, :]).astype(np.float64)
        return QSignal(t.ax_x, t.ax_y, grid[..., None] * self.coeff.as_array())


@dataclass(frozen=True)
class BasisSet2D:
    """2D eigenfunctions sorted by descending eigenvalue, ties by (m, n)."""

    items: tuple
    basis1d: ProlateBasis1D
    t_half: float
    w_half: float
    ax_x: GridAxis
    ax_y: GridAxis
    tables: ModeTables
    coeff: Quaternion
    modes: np.ndarray           # (K, 2) 1D modes (m, n) of every element

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, q: int) -> Qpswf2D:
        return self.items[q]

    @property
    def lambda0(self) -> float:
        return self.items[0].lambda2d

    def eigenvalues(self) -> np.ndarray:
        return np.array([it.lambda2d for it in self.items])

    def by_modes(self, m: int, n: int) -> Qpswf2D:
        for it in self.items:
            if it.m == m and it.n == n:
                return it
        raise BadIndex(f"element ({m}, {n}) not in basis")


def build_basis(t_half: float, w_half: float, n_quad: int, count: int,
                coeff: Quaternion = None,
                grid: tuple[GridAxis, GridAxis] = None) -> BasisSet2D:
    """Solve the 1D problem and assemble the 2D basis in one call.

    The 1D solve holds max(8, ceil(sqrt(count)) + 2) modes, two past the
    square corner of the selection, capped at n_quad.  Where build_qpswf_basis
    cannot prove the top-count selection complete from them, the solve is
    repeated with 4 more modes: at c = 7 the top 169 = 13^2 products take 15,
    then 19 modes.  A selection that needs a mode below the evaluation floor
    raises at once, since more modes cannot help it.
    """
    if count < 1:
        raise BadParameters(f"basis count must be >= 1, got {count}")
    coeff = DEFAULT_COEFF if coeff is None else coeff
    n1 = max(8, int(np.ceil(np.sqrt(count))) + 2)
    while True:
        basis1d = eig_prolate_1d(t_half, w_half, n_quad, min(n1, n_quad))
        try:
            return build_qpswf_basis(basis1d, count, coeff, grid)
        except BadParameters:
            if n1 >= n_quad:
                raise
            n1 = min(n1 + 4, n_quad)


def build_qpswf_basis(basis1d: ProlateBasis1D, count: int,
                      coeff: Quaternion = DEFAULT_COEFF,
                      grid: tuple[GridAxis, GridAxis] = None) -> BasisSet2D:
    """Select the top-count tensor-product elements and tabulate their modes.

    The 1D basis must contain enough modes that the selection is provably
    complete: the smallest selected product must dominate lambda_0 times
    the last available 1D eigenvalue.
    """
    if count < 1:
        raise BadParameters(f"basis count must be >= 1, got {count}")
    if abs(coeff.modulus() - 1.0) > 1e-12:
        raise NonUnitCoefficient(f"|coeff| = {coeff.modulus():.6f} != 1")
    if grid is None:
        half = 4.0 * basis1d.t_half
        grid = (GridAxis.symmetric(half, 257), GridAxis.symmetric(half, 257))
    ax_x, ax_y = grid

    lam = basis1d._lam_ld
    n1 = basis1d.count
    pairs = [(m, n) for m in range(n1) for n in range(n1)]
    pairs.sort(key=lambda mn: (-float(lam[mn[0]] * lam[mn[1]]), mn[0], mn[1]))
    if len(pairs) < count:
        raise BadParameters("1D basis too small for the requested 2D count")
    selected = pairs[:count]
    # the floor first: a selection from more modes needs a below-floor mode too,
    # so build_basis would grow the 1D basis in vain
    n_modes = 1 + max(max(mn) for mn in selected)
    for k in range(n_modes):
        if not lam[k] > _EVAL_FLOOR:
            raise EigenvalueTooSmall(
                f"1D mode {k} (lambda = {float(lam[k]):.3e}) cannot be evaluated "
                "in extended precision; reduce the basis count")
    smallest = float(lam[selected[-1][0]] * lam[selected[-1][1]])
    boundary = float(max(lam[0], 0) * max(lam[n1 - 1], 0))
    if boundary > smallest:
        raise BadParameters(
            "1D basis too short to order the requested 2D selection; "
            f"need lambda_0*lambda_last <= {smallest:.3e}, got {boundary:.3e}")

    tables = _mode_tables(basis1d, n_modes, ax_x, ax_y)
    items = tuple(Qpswf2D(m=m, n=n, lambda2d=float(tables.lambda2d[m, n]), coeff=coeff,
                          mu_x=complex(basis1d.mu[m]), mu_y=complex(basis1d.mu[n]),
                          basis1d=basis1d, tables=tables)
                  for (m, n) in selected)
    return BasisSet2D(items=items, basis1d=basis1d, t_half=basis1d.t_half,
                      w_half=basis1d.w_half, ax_x=ax_x, ax_y=ax_y, tables=tables,
                      coeff=coeff, modes=np.array(selected))


# ---------------------------------------------------------------------------
# eigen-form verification


def _separable_norm(c, a, b, w) -> np.longdouble:
    """Weighted norm of sum_i c_i a_i(x) b_i(y) under the product rule w (x) w.

    c_i are scalars or quaternion 4-vectors and a_i, b_i real 1D vectors:
    the squared norm is sum_ij <c_i, c_j> (A W A^T)_ij (B W B^T)_ij.
    """
    c = np.asarray(c, dtype=_LD).reshape(len(a), -1)
    a, b = np.stack(a), np.stack(b)
    return np.sqrt(((c @ c.T) * ((a * w) @ a.T) * ((b * w) @ b.T)).sum())


def _require_above_floor(psi: Qpswf2D) -> None:
    if not psi.above_floor:
        raise EigenvalueTooSmall(
            f"lambda = {psi.lambda2d:.3e} below the floor {EIG_FLOOR:.0e}")


def _node_images(tables: ModeTables):
    """K phi_k and the finite-Fourier images I_k at the Gauss nodes, every mode, as
    long-double Nystrom sums (_kernel_sums); the solve forms neither.
    I_k has the parity of phi_k, so its sums run at the nonnegative nodes
    (_by_parity).  K phi_k is summed at every node: near the evaluation floor
    its residual K phi_k - lambda_k phi_k is summation noise, which a mirrored
    half would change (by 1e-3 of the residual for lambda_5 at c = 1).
    Computed once per basis: each element's check takes its two rows."""
    def build():
        b, m = tables.basis1d, len(tables.band)
        x, wphi = b._x_ld, b._w_ld * b._phi_ld[:m]
        cr = _LD(b.w_half) / _LD(b.t_half)
        kphi = _kernel_sums(lambda p, q: sinc_kernel_ld(p - q, b.w_half), x, x, wphi)
        fphi = _by_parity(np.arange(m), x, lambda a: _kernel_sums(
            lambda p, q: np.exp(1j * (cr * p * q).astype(np.clongdouble)), a, x, wphi))
        return kphi, fphi
    return tables.memo("nodes", build)


def verify_lowpass(psi: Qpswf2D) -> float:
    """Relative residual of the low-pass eigen-identity for a basis element.

    Computes || L psi - K psi || / || L psi || with L = lambda_m lambda_n and
    the kernel integral over [-T, T]^2 evaluated by the basis quadrature.
    With r_k = K phi_k - lambda_k phi_k the difference splits into small
    separable terms,
        K phi_m (x) K phi_n - L phi_m (x) phi_n = r_m (x) K phi_n + lambda_m phi_m (x) r_n,
    so no two large norms cancel.
    """
    _require_above_floor(psi)
    b, m, n = psi.basis1d, psi.m, psi.n
    phi, kphi, lam = b._phi_ld, _node_images(psi.tables)[0], b._lam_ld
    r_m, r_n = kphi[[m, n]] - lam[[m, n], None] * phi[[m, n]]
    num = _separable_norm([1, lam[m]], [r_m, phi[m]], [kphi[n], r_n], b._w_ld)
    return float(num / _separable_norm([lam[m] * lam[n]], [phi[m]], [phi[n]], b._w_ld))


@dataclass(frozen=True)
class FiniteQftCheck:
    residual: float
    mu_x: complex
    mu_y: complex
    relation_residual: float


def verify_finite_qft(psi: Qpswf2D) -> FiniteQftCheck:
    """Check the finite-transform eigen-identity and the multiplier relation.

    The double integral of e^{i c s x} psi(s, t) e^{j c t y} over the time
    square factorizes into the per-axis finite-Fourier integrals I_k, complex
    in i on the left of coeff and in j on the right: the field is the
    bilinear sandwich S(I_m, I_n) with
        S(a, b) = Re a Re b q + Im a Re b iq + Re a Im b qj + Im a Im b iqj.
    With e_k = I_k - mu_k phi_k the residual splits without cancellation,
        S(I_m, I_n) - S(mu_m phi_m, mu_n phi_n) = S(e_m, I_n) + S(mu_m phi_m, e_n).
    mu_k = <I_k, phi_k> / <phi_k, phi_k> is fitted from the image, and the
    relation checked against the solver's eigenvalues is
    lambda_m lambda_n = (W/T)^2 |mu_x mu_y|^2 / (2 pi)^2.
    """
    _require_above_floor(psi)
    b, m, n = psi.basis1d, psi.m, psi.n
    wphi, fphi = b._w_ld * b._phi_ld, _node_images(psi.tables)[1]
    i_m, i_n = fphi[m], fphi[n]
    mu_x, mu_y = ((wphi[k] * fphi[k]).sum() / (wphi[k] * b._phi_ld[k]).sum() for k in (m, n))
    fit_m, fit_n = mu_x * b._phi_ld[m], mu_y * b._phi_ld[n]
    q, i, j = psi.coeff, Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)
    consts = [c.as_array() for c in (q, q_mul(i, q), q_mul(q, j), q_mul(i, q_mul(q, j)))]

    def terms(u, v):  # S(u, v) as (constants, x factors, y factors)
        return consts, [u.real, u.imag, u.real, u.imag], [v.real, v.real, v.imag, v.imag]

    e_terms, fit_terms = terms(i_m - fit_m, i_n), terms(fit_m, i_n - fit_n)
    num = _separable_norm(*(s + t for s, t in zip(e_terms, fit_terms)), b._w_ld)
    resid = float(num / _separable_norm(*terms(i_m, i_n), b._w_ld))

    lam_prod = b._lam_ld[m] * b._lam_ld[n]
    cr = _LD(b.w_half) / _LD(b.t_half)
    pred = (cr ** 2) * (abs(mu_x) ** 2) * (abs(mu_y) ** 2) / (2 * _PI) ** 2
    relation = float(abs(pred - lam_prod) / lam_prod)
    return FiniteQftCheck(residual=resid, mu_x=complex(mu_x), mu_y=complex(mu_y),
                          relation_residual=relation)


@dataclass(frozen=True)
class AllpassCheck:
    residual: float
    tail_bound: float
    window_halfwidth: float


def _window_images(tables: ModeTables, h: float):
    """Trapezoid weights, phi_k and k_k = K_win phi_k on the window [-H, H], every mode.

    The window takes the smallest odd sample count, and at least 257, whose
    step keeps W step <= 0.9 pi: the sampled kernel aliases once W step
    exceeds pi.  phi_k there is the grid table of that axis (ModeTables._ext).
    Computed once per basis and window half-width: each element's check
    takes its two rows.
    """
    def build():
        b = tables.basis1d
        count = max(257, 1 + 2 * int(np.ceil(h * b.w_half / (0.9 * np.pi))))
        ax = GridAxis.symmetric(h, count)
        wt = ax.trapezoid_weights().astype(_LD)
        phi = tables._ext(ax)
        # the uniform window's self-kernel is Toeplitz in the lag (p - q) * step:
        # its entries are looked up by sample index
        lags = sinc_kernel_ld(_LD(ax.step) * np.arange(1 - count, count), b.w_half)
        idx = np.arange(count)
        k = _kernel_sums(lambda p, q: lags[p - q + count - 1], idx, idx, wt * phi)
        return wt, phi, k
    return tables.memo(("window", h), build)


def verify_allpass(psi: Qpswf2D, window_halfwidth: float) -> AllpassCheck:
    """Residual of the whole-plane reproducing identity on the window [-H, H]^2, H >= 2T.

    The line integral is truncated to the window, so the residual carries the
    energy of the discarded tails; tail_bound certifies that contribution
    from the unit-norm promise (tail energy = 1 - window energy).  Residuals
    shrink monotonically as the window grows.  With k = K_win phi on the
    window, phi_m (x) phi_n - k_m (x) k_n = (phi_m - k_m) (x) phi_n
    + k_m (x) (phi_n - k_n).
    """
    _require_above_floor(psi)
    if window_halfwidth < 2.0 * psi.basis1d.t_half:
        raise BadParameters("window half-width must be at least 2T")
    wt, phi, k = _window_images(psi.tables, window_halfwidth)
    phi, k = phi[[psi.m, psi.n]], k[[psi.m, psi.n]]
    d = phi - k
    ex, ey = (wt * phi * phi).sum(axis=1)
    resid = float(_separable_norm([1, 1], [d[0], k[0]], [phi[1], d[1]], wt)
                  / np.sqrt(ex * ey))
    tail_energy = max(0.0, 1.0 - float(ex) * float(ey))
    return AllpassCheck(residual=resid, tail_bound=float(np.sqrt(tail_energy)),
                        window_halfwidth=window_halfwidth)


# ---------------------------------------------------------------------------
# Gram matrices


def gram_matrix(basis: BasisSet2D, region: Region) -> np.ndarray:
    """Pairwise quaternion inner products of the basis over a region.

    Returns shape (K, K, 4).  The time square uses the Gauss rule; the full
    plane is evaluated on the band side (component Parseval), since window
    quadrature at desk scales loses the O(1/X) eigenfunction tails.
    """
    if region.halfwidth is not None:
        if abs(region.halfwidth - basis.t_half) > 1e-9 * basis.t_half:
            raise RegionOutOfGrid("time-square Gram supports only the basis region T")
        ax_gram = basis.tables.gram_t
    else:
        ax_gram = basis.tables.gram_r
    m, n = basis.modes.T
    out = np.zeros((len(basis), len(basis), 4))
    # same unit amplitude throughout: coeff * conj(coeff) = 1, entries are real
    out[..., 0] = (ax_gram[np.ix_(m, m)] * ax_gram[np.ix_(n, n)]).astype(np.float64)
    return out
