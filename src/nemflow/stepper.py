"""One fully implicit time step of the coupled director/flow scheme.

The chemical potential feeds back into the transport velocity with a
fourth-order symbol in the wavenumber and into the momentum balance with a
third-order one; a scalar epsilon-Helmholtz solve (second-order symbol)
cannot damp either, so a plain lagged sweep diverges for any practical tau.
The solver therefore works on the exact nonlinear residual F of the scheme:

  * the elementary damped sweep is x -> x - theta * G^{-1} F(x), where G is
    the constant-coefficient linearisation of the stiff terms at the mean
    director of the previous level, assembled mode by mode as a small
    (2 dim)^2 block per wavenumber, so every solve stays Fourier-diagonal;
  * implicit_step drives F to tolerance by inexact Newton passes: a few
    matrix-free GMRES iterations (preconditioned by those same blocks, with
    hand-coded exact Jacobian actions) followed by residual-monotone
    backtracking.

Fixed points are solutions of the unmodified implicit system in either case;
the preconditioner never alters what is solved, only how fast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coupling import convective_hat, director_transport_hat, extra_velocity_hat
from .diagnostics import EnergyLedger, build_ledger
from .energetics import ModelParams, chemical_potential_hat
from .fields import (
    GridSpec,
    NonFiniteError,
    VectorField,
    laplace_symbol,
    parseval_sum,
    spectral_l2_norm,
    wavevectors,
)
from .operators import (
    band_limit_hat,
    from_padded,
    leray_hat,
    max_mode_divergence,
    padded_bundle,
    padded_size,
    project_real,
    to_padded,
)


class PicardDivergenceError(RuntimeError):
    """The Picard iteration failed to converge down to the smallest allowed tau."""


@dataclass(frozen=True)
class StepState:
    """One time level (d, u); u is solenoidal with zero mean.

    The stepper, the ledger and the runner's diagnostics read the fields'
    coefficients (d.coeffs, u.coeffs); a level the solver makes holds only
    those, and its samples are synthesised when snapshots or the length
    statistics read them.
    """

    d: VectorField
    u: VectorField
    time: float = 0.0

    def __post_init__(self):
        grid = self.d.grid
        if self.u.grid != grid:
            raise ValueError("d and u live on different grids")
        if self.d.components != grid.dim or self.u.components != grid.dim:
            raise ValueError("state fields need dim components")
        u_hat = self.u.coeffs
        unorm = spectral_l2_norm(u_hat)
        if max_mode_divergence(u_hat, grid) > 1e-12 * (1.0 + unorm):
            raise ValueError("u is not solenoidal to spectral tolerance")
        if np.max(np.abs(u_hat[(slice(None),) + (0,) * grid.dim])) > 1e-14 * (1.0 + unorm):
            raise ValueError("u does not have zero mean")

    @property
    def grid(self) -> GridSpec:
        return self.d.grid

    @staticmethod
    def from_coefficients(grid: GridSpec, d_hat: np.ndarray, u_hat: np.ndarray,
                          time: float) -> "StepState":
        """The level that holds these half-layout coefficients."""
        return StepState(VectorField.from_coefficients(grid, d_hat),
                         VectorField.from_coefficients(grid, u_hat), time)


@dataclass(frozen=True)
class PicardConfig:
    """Controls for the fixed-point solver.

    tau_min = None resolves to 1e-6 * tau at step time.  damping scales the
    update along the solved direction; within one pass the backtracking line
    search halves it until the residual decreases, and it resets for the next
    pass.  max_iter caps the Newton passes per tau attempt, not the residual
    evaluations: each pass's line search can spend up to 8 of them.
    """

    tol: float = 1e-10
    max_iter: int = 60
    damping: float = 1.0
    tau_shrink: float = 0.5
    tau_min: float | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("picard.tol > 0 required")
        if self.max_iter < 1:
            raise ValueError("picard.max_iter >= 1 required")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("picard.damping ∈ (0,1] violated")
        if not 0.0 < self.tau_shrink < 1.0:
            raise ValueError("picard.tau_shrink ∈ (0,1) violated")
        if self.tau_min is not None and not self.tau_min > 0:
            raise ValueError("picard.tau_min > 0 required")


@dataclass(frozen=True)
class StepResult:
    state: StepState
    mu: VectorField
    v_extra: VectorField
    ledger: EnergyLedger
    tau_used: float


class _NonFiniteIteration(Exception):
    pass


@dataclass
class _Terms:
    """Nonlinear terms at one iterate (coefficient space), with the padded
    bundles cached for exact Jacobian actions."""

    mu: np.ndarray
    v: np.ndarray
    transport: np.ndarray
    conv: np.ndarray
    d_b: tuple[np.ndarray, np.ndarray]
    mu_b: tuple[np.ndarray, np.ndarray]
    w_b: tuple[np.ndarray, np.ndarray]
    u_b: tuple[np.ndarray, np.ndarray]
    d3_p: np.ndarray      # samples of d on the cubic-degree padded grid


class _Workspace:
    """Per-step-attempt solver context.

    Freezes the mean director of the previous level as the background and
    assembles, mode by mode, the linearised symbol of the coupled (d, u)
    system there: the quartic transport feedback QM in the director block,
    the elastic-force block that injects director errors into the momentum
    balance, and the transport block coupling back.  One damped sweep is the
    preconditioned update x -> x - theta * G^{-1} F(x) with F the exact
    nonlinear residual, so converged iterates solve the unmodified scheme.
    The symbol at -k is the conjugate of that at k, so only the modes of
    the half layout get a block.
    """

    def __init__(self, grid: GridSpec, params: ModelParams, tau: float,
                 d_prev_hat: np.ndarray, u_prev_hat: np.ndarray,
                 guess: tuple[np.ndarray, np.ndarray] | None = None):
        self.grid = grid
        self.params = params
        self.tau = tau
        self.d_prev = d_prev_hat
        self.u_prev = u_prev_hat
        self.guess = guess
        self.lap = laplace_symbol(grid)
        # the cubic well term can reuse the quadratic bundles' samples of d
        self.cubic_on_bundle_grid = padded_size(grid, 3) == padded_size(grid, 2)

        dim = grid.dim
        eye = np.eye(dim)
        beta = self.lap.reshape(-1)
        b = d_prev_hat[(slice(None),) + (0,) * dim].real  # mean director
        q = 2.0 * np.pi * wavevectors(grid).reshape(dim, -1).T  # (modes, dim)
        a = params.alpha * (q @ b)
        c = 1.0 - params.alpha
        bq = b[None, :, None] * q[:, None, :]              # (b x q)_{ij} = b_i q_j
        qb = np.swapaxes(bq, 1, 2)                         # (q x b)_{ij} = q_i b_j
        qq = q[:, :, None] * q[:, None, :]
        bb = np.outer(b, b)
        bnorm2 = float(b @ b)

        # mu linearisation M, transport-in Q (so dT/dd = +QM), force-out C
        msym = beta[:, None, None] * eye + ((bnorm2 * eye + 2.0 * bb) / params.gamma)[None]
        quad = (a**2)[:, None, None] * eye - (a * c)[:, None, None] * (bq + qb) \
            + (c**2 * bnorm2) * qq
        cmat = a[:, None, None] * eye - c * bq
        q2 = np.sum(q * q, axis=1)
        q2safe = np.where(q2 == 0.0, 1.0, q2)
        proj = eye[None] - qq / q2safe[:, None, None]
        proj[q2 == 0.0] = eye

        cm = cmat @ msym
        g = np.zeros((q.shape[0], 2 * dim, 2 * dim), dtype=np.complex128)
        g[:, :dim, :dim] = (1.0 + params.epsilon * tau * beta)[:, None, None] * eye \
            + params.epsilon * tau * ((bnorm2 * eye + 2.0 * bb) / params.gamma)[None] \
            + tau * (quad @ msym)
        g[:, :dim, dim:] = 1j * tau * (-a[:, None, None] * eye + c * qb)
        g[:, dim:, :dim] = -1j * tau * (proj @ cm)
        g[:, dim:, dim:] = (params.rho + params.eta * tau * beta)[:, None, None] * eye
        self.block_inv = np.linalg.inv(g)

    def _finite(self, *arrays: np.ndarray) -> None:
        for a in arrays:
            if not np.all(np.isfinite(a)):
                raise _NonFiniteIteration

    def terms(self, d_hat: np.ndarray, u_hat: np.ndarray) -> _Terms:
        p, grid = self.params, self.grid
        d_b = padded_bundle(d_hat, grid)
        d3_p = d_b[0] if self.cubic_on_bundle_grid else to_padded(d_hat, grid, degree=3)
        fp = from_padded(np.sum(d3_p * d3_p, axis=0) * d3_p / p.gamma, grid)
        mu = band_limit_hat(self.lap * d_hat + fp - self.d_prev / p.gamma, grid)
        mu_b = padded_bundle(mu, grid)
        u_b = padded_bundle(u_hat, grid)
        v = extra_velocity_hat([(mu_b, d_b)], p.alpha, grid)
        v_b = padded_bundle(v, grid)
        w_b = (u_b[0] + v_b[0], u_b[1] + v_b[1])
        transport = director_transport_hat([(d_b, w_b)], p.alpha, grid)
        conv = convective_hat([u_b], grid)
        self._finite(mu, v, transport, conv)
        return _Terms(mu, v, transport, conv, d_b, mu_b, w_b, u_b, d3_p)

    def jacobian_action(
        self, t: _Terms, delta_d: np.ndarray, delta_u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact directional derivative of the residual map at the iterate
        underlying t.  All product operators are bilinear, so the derivative
        is a sum of the same operators with one argument replaced, and each
        such sum is truncated once."""
        p, grid, tau = self.params, self.grid, self.tau
        dd_b = padded_bundle(delta_d, grid)
        dd3_p = dd_b[0] if self.cubic_on_bundle_grid else to_padded(delta_d, grid, degree=3)
        d3_p = t.d3_p
        dfp = from_padded(
            (np.sum(d3_p * d3_p, axis=0) * dd3_p
             + 2.0 * np.sum(d3_p * dd3_p, axis=0) * d3_p) / p.gamma,
            grid,
        )
        dmu = band_limit_hat(self.lap * delta_d + dfp, grid)
        dmu_b = padded_bundle(dmu, grid)
        du_b = padded_bundle(delta_u, grid)
        dv = extra_velocity_hat([(dmu_b, t.d_b), (t.mu_b, dd_b)], p.alpha, grid)
        dv_b = padded_bundle(dv, grid)
        dw_b = (du_b[0] + dv_b[0], du_b[1] + dv_b[1])
        dtrans = director_transport_hat([(dd_b, t.w_b), (t.d_b, dw_b)], p.alpha, grid)
        dconv = convective_hat([(du_b[0], t.u_b[1]), (t.u_b[0], du_b[1])], grid)
        df_d = delta_d + tau * dtrans + p.epsilon * tau * dmu
        df_u = leray_hat(
            p.rho * delta_u + tau * p.rho * dconv
            + tau * p.eta * self.lap * delta_u - tau * dv,
            grid,
        )
        return df_d, df_u

    def residual_fields(self, d_hat, u_hat, t: _Terms) -> tuple[np.ndarray, np.ndarray]:
        p, tau = self.params, self.tau
        r_d = d_hat - self.d_prev + tau * t.transport + p.epsilon * tau * t.mu
        r_u = leray_hat(
            p.rho * (u_hat - self.u_prev) + tau * p.rho * t.conv
            + tau * p.eta * self.lap * u_hat - tau * t.v,
            self.grid,
        )
        return r_d, r_u

    def norms(self, d_hat, u_hat, r_d, r_u) -> tuple[float, float]:
        rd = spectral_l2_norm(r_d) / (1.0 + spectral_l2_norm(d_hat))
        ru = spectral_l2_norm(r_u) / (1.0 + spectral_l2_norm(u_hat))
        return rd, ru

    def precondition_vec(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G^{-1} applied to an iterate vector of residual fields, then split
        (projected back to the retained space)."""
        raw = np.einsum("mij,jm->im", self.block_inv, y.reshape(y.shape[0], -1))
        return self.split(raw.reshape(y.shape))

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Iterate vector -> (d_hat, u_hat) projected onto the retained
        (band-limited, solenoidal, real) space."""
        dim = self.grid.dim
        d_hat = project_real(x[:dim].copy(), dim)
        u_hat = project_real(leray_hat(x[dim:], self.grid), dim)
        return d_hat, u_hat

    @staticmethod
    def join(d_hat: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
        return np.concatenate([d_hat, u_hat])


def _gmres(matvec, b: np.ndarray, rel_tol: float, max_inner: int) -> np.ndarray:
    """Matrix-free GMRES on iterate vectors of real fields, no restarts.

    The operator is only real-linear, so under the Parseval-weighted L2 inner
    product (a numpy sum, not a BLAS call, so the result does not depend on
    the BLAS thread count) the Hessenberg matrix and its least squares are
    real.  That least squares is re-solved densely each iteration on the
    leading block of one preallocated Hessenberg array; with a couple dozen
    inner iterations at most, that costs nothing next to the matvecs and
    avoids rotation bookkeeping.
    """

    def dot(p: np.ndarray, q: np.ndarray) -> float:
        return parseval_sum((np.conj(p) * q).real)

    norm_b = np.sqrt(dot(b, b))
    if norm_b == 0.0:
        return np.zeros_like(b)
    basis = [b / norm_b]
    h = np.zeros((max_inner + 1, max_inner))
    e1 = np.zeros(max_inner + 1)
    e1[0] = norm_b
    y = np.zeros(0)
    for k in range(max_inner):
        w = matvec(basis[k])
        for i in range(k + 1):
            h[i, k] = dot(basis[i], w)
            w = w - h[i, k] * basis[i]
        h[k + 1, k] = np.sqrt(dot(w, w))
        hk, ek = h[: k + 2, : k + 1], e1[: k + 2]
        y, *_ = np.linalg.lstsq(hk, ek, rcond=None)
        lucky = h[k + 1, k] <= 1e-14 * norm_b
        if not lucky:
            basis.append(w / h[k + 1, k])
        if lucky or np.linalg.norm(hk @ y - ek) <= rel_tol * norm_b:
            break
    out = np.zeros_like(b)
    for i in range(y.size):
        out += y[i] * basis[i]
    return out


def _picard_attempt(ws: _Workspace, cfg: PicardConfig):
    """Drive the residual to tolerance; returns None on a stall.

    Inexact Newton: each outer pass solves the linearised system with a few
    matrix-free GMRES iterations, right-preconditioned by the frozen-symbol
    blocks, then backtracks along the update until the residual decreases.
    The solved system is the unmodified implicit scheme; iters counts outer
    residual evaluations.
    """

    def evaluate(x):
        # overflow in a trial iterate is handled via _NonFiniteIteration
        with np.errstate(over="ignore", invalid="ignore"):
            d_hat, u_hat = ws.split(x)
            t = ws.terms(d_hat, u_hat)
            r_d, r_u = ws.residual_fields(d_hat, u_hat, t)
            rd, ru = ws.norms(d_hat, u_hat, r_d, r_u)
        return max(rd, ru), (d_hat, u_hat, t, r_d, r_u)

    x = ws.join(*ws.guess) if ws.guess is not None else ws.join(ws.d_prev, ws.u_prev)
    try:
        res, payload = evaluate(x)
    except _NonFiniteIteration:
        if ws.guess is None:
            raise
        x = ws.join(ws.d_prev, ws.u_prev)
        res, payload = evaluate(x)
    evals = 1

    for _ in range(cfg.max_iter):
        if res <= cfg.tol:
            d_hat, u_hat, t, _, _ = payload
            return d_hat, u_hat, t, evals, res
        d_hat, u_hat, t, r_d, r_u = payload

        def matvec(y):
            return ws.join(*ws.jacobian_action(t, *ws.precondition_vec(y)))

        rhs = ws.join(r_d, r_u)
        forcing = min(0.5, max(np.sqrt(res) * 0.3, 3.0 * cfg.tol / max(res, cfg.tol)))
        y = _gmres(matvec, rhs, forcing, max_inner=24)
        step = ws.join(*ws.precondition_vec(y))

        theta = cfg.damping
        accepted = False
        for _ in range(8):
            try:
                res_new, payload_new = evaluate(x - theta * step)
            except _NonFiniteIteration:
                theta *= 0.5
                continue
            evals += 1
            if res_new < res:
                x = x - theta * step
                res, payload = res_new, payload_new
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            return None
    if res <= cfg.tol:
        d_hat, u_hat, t, _, _ = payload
        return d_hat, u_hat, t, evals, res
    return None


def implicit_step(
    prev: StepState,
    params: ModelParams,
    cfg: PicardConfig | None = None,
    guess: StepState | None = None,
) -> StepResult:
    """Advance one step of the implicit scheme, shrinking tau on failure.

    guess is an optional warm start for the iteration (e.g. an extrapolation
    from earlier steps); it never changes the converged solution, only how
    fast the solver reaches it.  Raises PicardDivergenceError when tau would
    fall below tau_min without convergence, NonFiniteError when the iteration
    keeps overflowing.
    """
    cfg = cfg or PicardConfig()
    if params.epsilon <= 0:
        raise ValueError("epsilon > 0 required by the implicit stepper")
    grid = prev.grid
    tau_min = cfg.tau_min if cfg.tau_min is not None else 1e-6 * params.tau
    if not 0.0 < tau_min <= params.tau:
        raise ValueError("picard.tau_min must satisfy 0 < tau_min <= tau")

    guess_hats = (guess.d.coeffs, guess.u.coeffs) if guess is not None else None
    tau = params.tau
    while True:
        ws = _Workspace(grid, params, tau, prev.d.coeffs, prev.u.coeffs, guess_hats)
        overflowed = False
        try:
            out = _picard_attempt(ws, cfg)
        except _NonFiniteIteration:
            out = None
            overflowed = True
        if out is not None:
            break
        tau *= cfg.tau_shrink
        guess_hats = None  # retry conservatively from the previous level
        if tau < tau_min:
            if overflowed:
                raise NonFiniteError(
                    "implicit step overflowed down to tau_min; state is blowing up "
                    "or tau is far too large"
                )
            raise PicardDivergenceError("Picard iteration stalled down to tau_min")

    d_hat, u_hat, t, iters, res = out
    state = StepState.from_coefficients(grid, d_hat, u_hat, prev.time + tau)
    mu = VectorField.from_coefficients(grid, t.mu)
    v_extra = VectorField.from_coefficients(grid, t.v)
    used = replace(params, tau=tau)
    ledger = build_ledger(prev, state, t.mu, t.v, used, picard_iters=iters, picard_residual=res)
    return StepResult(state, mu, v_extra, ledger, tau)


def residual_fully_implicit(
    prev: StepState,
    candidate: tuple[VectorField, VectorField, VectorField],
    params: ModelParams,
    grid: GridSpec | None = None,
) -> tuple[float, float, float]:
    """Normalised residuals (r_d, r_mu, r_u) of the fully implicit system.

    Evaluates the strong-form coefficient-space mismatch of all three
    equations at the candidate (d, u, mu), recomputing every nonlinear term
    from scratch; nothing from the Picard internals is reused.
    """
    grid = grid or prev.grid
    d, u, mu = candidate
    tau, eps = params.tau, params.epsilon
    d_hat, u_hat, mu_hat = d.coeffs, u.coeffs, mu.coeffs
    dp_hat, up_hat = prev.d.coeffs, prev.u.coeffs

    mu_def = chemical_potential_hat(d_hat, dp_hat, grid, params.gamma)
    r_mu = spectral_l2_norm(mu_hat - mu_def) / (1.0 + spectral_l2_norm(mu_hat))

    d_b = padded_bundle(d_hat, grid)
    v_hat = extra_velocity_hat([(padded_bundle(mu_hat, grid), d_b)], params.alpha, grid)
    w_b = padded_bundle(u_hat + v_hat, grid)
    transport = director_transport_hat([(d_b, w_b)], params.alpha, grid)
    res_d = d_hat - dp_hat + tau * transport + eps * tau * mu_hat
    r_d = spectral_l2_norm(res_d) / (1.0 + spectral_l2_norm(d_hat))

    lap = laplace_symbol(grid)
    conv = convective_hat([padded_bundle(u_hat, grid)], grid)
    res_u = leray_hat(
        params.rho * (u_hat - up_hat) + tau * params.rho * conv
        + tau * params.eta * lap * u_hat - tau * v_hat,
        grid,
    )
    r_u = spectral_l2_norm(res_u) / (1.0 + spectral_l2_norm(u_hat))
    return float(r_d), float(r_mu), float(r_u)
