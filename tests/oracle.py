"""Brute-force dense reference implementations for tiny grids.

Everything here is built from explicitly assembled matrices of the discrete
Fourier sums: analysis/synthesis matrices over the retained modes, diagonal
derivative symbols, and fine-grid evaluation for nonlinear terms.  The module
deliberately shares no transform or differentiation code with the production
path (numpy.fft never appears), so agreement between the two is a genuine
cross-check and corrupting either side makes the equivalence tests fail.

Resolutions are capped hard: the matrices are dense in n^dim.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from nemflow.energetics import EnergyBreakdown, ModelParams
from nemflow.fields import GridSpec, VectorField

_FINE_FACTOR = 4


def _check_resolution(grid: GridSpec, limit_2d: int, limit_3d: int) -> None:
    limit = limit_2d if grid.dim == 2 else limit_3d
    if grid.n > limit:
        raise ValueError(
            f"resolution too large for the dense oracle (n={grid.n}, dim={grid.dim})"
        )


def retained_modes(grid: GridSpec) -> np.ndarray:
    """Integer wavenumbers of the retained space, shape (M, dim).

    The band excludes Nyquist columns: |k_j| <= n/2 - 1 on every axis.
    """
    h = grid.n // 2
    axis = range(-(h - 1), h)
    return np.array(list(product(*([axis] * grid.dim))), dtype=np.int64)


def _points(n: int, dim: int) -> np.ndarray:
    axis = np.arange(n) / n
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)  # (n^dim, dim)


def _synthesis(modes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """S[p, m] = exp(2 pi i k_m . x_p)."""
    return np.exp(2.0j * np.pi * (points @ modes.T))


def _analysis(modes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """A[m, p] = exp(-2 pi i k_m . x_p) / N: the direct DFT sum."""
    return np.exp(-2.0j * np.pi * (modes @ points.T)) / points.shape[0]


def _operator_diag(modes: np.ndarray, kind: str, axis: int = 0) -> np.ndarray:
    if kind == "gradient":
        return 2.0j * np.pi * modes[:, axis]
    if kind == "laplacian":
        return -4.0 * np.pi**2 * np.sum(modes**2, axis=1)
    raise ValueError(f"unknown diagonal kind {kind!r}")


def dense_operator_matrix(grid: GridSpec, op_kind: str) -> np.ndarray:
    """Dense matrix of a spectral operator on flattened sample vectors.

    op_kind is one of "gradient_j" (j = 1..dim, scalar fields),
    "divergence" (dim-component fields, components flattened component-major),
    "laplacian" (scalar fields), "leray" (dim-component fields).
    """
    _check_resolution(grid, 8, 4)
    modes = retained_modes(grid)
    pts = _points(grid.n, grid.dim)
    syn = _synthesis(modes, pts)
    ana = _analysis(modes, pts)
    npts = pts.shape[0]
    if op_kind.startswith("gradient_"):
        axis = int(op_kind.split("_")[1]) - 1
        if not 0 <= axis < grid.dim:
            raise ValueError(f"gradient axis out of range in {op_kind!r}")
        return (syn * _operator_diag(modes, "gradient", axis)) @ ana
    if op_kind == "laplacian":
        return ((syn * _operator_diag(modes, "laplacian")) @ ana).real
    if op_kind == "divergence":
        blocks = [
            ((syn * _operator_diag(modes, "gradient", j)) @ ana).real
            for j in range(grid.dim)
        ]
        return np.hstack(blocks)
    if op_kind == "leray":
        k = modes.astype(np.float64)
        k2 = np.sum(k * k, axis=1)
        k2safe = np.where(k2 == 0.0, 1.0, k2)
        out = np.zeros((grid.dim * npts, grid.dim * npts))
        for i in range(grid.dim):
            for j in range(grid.dim):
                proj = (1.0 if i == j else 0.0) - k[:, i] * k[:, j] / k2safe
                proj = np.where(k2 == 0.0, 0.0, proj)
                out[i * npts:(i + 1) * npts, j * npts:(j + 1) * npts] = (
                    (syn * proj) @ ana
                ).real
        return out
    if op_kind.startswith("gradient"):
        raise ValueError("gradient needs an axis, e.g. 'gradient_1'")
    raise ValueError(f"unknown op_kind {op_kind!r}")


def _coefficients(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Retained-mode coefficients of sampled components, shape (c, M)."""
    modes = retained_modes(grid)
    ana = _analysis(modes, _points(grid.n, grid.dim))
    return values.reshape(values.shape[0], -1) @ ana.T


def _fine_values(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate coefficients on the fine quadrature grid, shape (c, Nf)."""
    modes = retained_modes(grid)
    syn = _synthesis(modes, _points(_FINE_FACTOR * grid.n, grid.dim))
    return (coeffs @ syn.T).real


def _fine_project(grid: GridSpec, values_fine: np.ndarray) -> np.ndarray:
    """Galerkin projection of fine-grid samples back onto retained modes."""
    modes = retained_modes(grid)
    ana = _analysis(modes, _points(_FINE_FACTOR * grid.n, grid.dim))
    return values_fine @ ana.T


def quadrature_energy(d: VectorField, u: VectorField, params: ModelParams) -> EnergyBreakdown:
    """Plain real-space energy quadrature against dense derivative matrices."""
    grid = d.grid
    _check_resolution(grid, 16, 8)
    dvals = d.values.reshape(d.components, -1)
    modes = retained_modes(grid)
    pts = _points(grid.n, grid.dim)
    syn = _synthesis(modes, pts)
    ana = _analysis(modes, pts)
    elastic = 0.0
    for j in range(grid.dim):
        dj = ((syn * _operator_diag(modes, "gradient", j)) @ ana).real
        for c in range(d.components):
            g = dj @ dvals[c]
            elastic += 0.5 * float(np.mean(g * g))
    coeffs = dvals @ ana.T
    dfine = (coeffs @ _synthesis(modes, _points(_FINE_FACTOR * grid.n, grid.dim)).T).real
    sq = np.sum(dfine * dfine, axis=0)
    well = float(np.mean((sq - 1.0) ** 2) / (4.0 * params.gamma))
    kinetic = 0.5 * params.rho * float(np.mean(np.sum(u.values * u.values, axis=0)))
    return EnergyBreakdown.of(elastic, well, kinetic)


def dense_scheme_residual(
    prev_d: VectorField,
    prev_u: VectorField,
    candidate: tuple[VectorField, VectorField, VectorField],
    params: ModelParams,
) -> tuple[float, float, float]:
    """Weak-form residuals of the time-discrete system against every retained
    basis mode, assembled with dense matrices and fine-grid products.

    Mirrors the production residual definitions (same normalisation) without
    sharing any code with them.
    """
    grid = prev_d.grid
    _check_resolution(grid, 8, 4)
    dim, tau, eps, alpha, gamma = grid.dim, params.tau, params.epsilon, params.alpha, params.gamma
    d, u, mu = candidate
    modes = retained_modes(grid)
    kf = modes.astype(np.float64)
    lap = 4.0 * np.pi**2 * np.sum(kf * kf, axis=1)

    cd = _coefficients(grid, d.values)
    cu = _coefficients(grid, u.values)
    cmu = _coefficients(grid, mu.values)
    cdp = _coefficients(grid, prev_d.values)
    cup = _coefficients(grid, prev_u.values)

    def deriv(coeffs, axis):
        return coeffs * (2.0j * np.pi * kf[:, axis])[None, :]

    def fine(coeffs):
        return _fine_values(grid, coeffs)

    def norm(coeffs):
        return float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))

    # chemical potential residual
    d_f = fine(cd)
    fp_f = np.sum(d_f * d_f, axis=0) * d_f / gamma
    mu_def = lap[None, :] * cd + _fine_project(grid, fp_f) - cdp / gamma
    r_mu = norm(cmu - mu_def) / (1.0 + norm(cmu))

    # extra velocity from the candidate's mu, Galerkin-projected
    mu_f = fine(cmu)
    gd_f = np.stack([fine(deriv(cd, j)) for j in range(dim)], axis=1)   # (c, j, Nf)
    gmu_f = np.stack([fine(deriv(cmu, j)) for j in range(dim)], axis=1)
    v_f = np.einsum("j...,ji...->i...", mu_f, gd_f)
    v_f += alpha * (np.einsum("j...,ij...->i...", d_f, gmu_f)
                    + mu_f * np.einsum("jj...->...", gd_f))
    v_f -= (1.0 - alpha) * (np.einsum("j...,ij...->i...", mu_f, gd_f)
                            + d_f * np.einsum("jj...->...", gmu_f))
    cv = _fine_project(grid, v_f)

    # director transport with w = u + v
    cw = cu + cv
    w_f = fine(cw)
    gw_f = np.stack([fine(deriv(cw, j)) for j in range(dim)], axis=1)
    t_f = np.einsum("j...,ij...->i...", w_f, gd_f)
    t_f -= alpha * np.einsum("ij...,j...->i...", gw_f, d_f)
    t_f += (1.0 - alpha) * np.einsum("ji...,j...->i...", gw_f, d_f)
    ct = _fine_project(grid, t_f)
    r_d_coeffs = cd - cdp + tau * ct + eps * tau * cmu
    r_d = norm(r_d_coeffs) / (1.0 + norm(cd))

    # momentum residual, Leray-projected mode by mode
    u_f = fine(cu)
    gu_f = np.stack([fine(deriv(cu, j)) for j in range(dim)], axis=1)
    conv_f = np.einsum("j...,ij...->i...", u_f, gu_f)
    cconv = _fine_project(grid, conv_f)
    raw = params.rho * (cu - cup) + tau * params.rho * cconv \
        + tau * params.eta * lap[None, :] * cu - tau * cv
    k2 = np.sum(kf * kf, axis=1)
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    kdot = np.sum(kf.T * raw, axis=0)
    proj = raw - kf.T * (kdot / k2safe)[None, :]
    proj[:, k2 == 0.0] = 0.0
    r_u = norm(proj) / (1.0 + norm(cu))
    return float(r_d), float(r_mu), float(r_u)
