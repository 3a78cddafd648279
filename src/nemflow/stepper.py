"""One fully implicit time step of the coupled director/flow scheme.

The chemical potential feeds back into the transport velocity with a
fourth-order symbol in the wavenumber and into the momentum balance with a
third-order one; a scalar epsilon-Helmholtz solve (second-order symbol)
cannot damp either, so a plain lagged sweep diverges for any practical tau.
The solver therefore works on the exact nonlinear residual F of the scheme:

  * the elementary damped sweep is x -> x - theta * G^{-1} F(x), where G is
    the constant-coefficient linearisation of the stiff terms at the mean
    director of the previous level, assembled mode by mode and solved through
    a real dim x dim Schur complement per wavenumber, after eliminating the
    scalar momentum block, so every solve stays Fourier-diagonal;
  * implicit_step drives F to tolerance by inexact Newton passes: a few
    matrix-free GMRES iterations (preconditioned by those same blocks, with
    hand-coded exact Jacobian actions) followed by residual-monotone
    backtracking.

Fixed points are solutions of the unmodified implicit system in either case;
the preconditioner never alters what is solved, only how fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import (
    _row_blocks,
    convective_hat,
    director_transport_hat,
    director_transport_padded,
    extra_velocity_hat,
    extra_velocity_padded,
)
from .diagnostics import EnergyLedger, build_ledger
from .energetics import ModelParams, chemical_potential_hat, f_plus_hat
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
    """No tau down to the floor converged and no attempt overflowed; the
    message lists every attempt: tau, outcome, evals and residual."""


@dataclass(frozen=True)
class StepState:
    """One time level (d, u); u is solenoidal with zero mean.

    Its fields are their coefficients (d.coeffs, u.coeffs), which the
    stepper, the ledger and the runner's diagnostics read.
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


@dataclass(frozen=True)
class PicardConfig:
    """Controls for the fixed-point solver.

    tau_min is the floor below which a failing step stops shrinking tau;
    implicit_step resolves it as min(tau_min or 1e-6 * tau, tau), so a floor
    above the step being taken (a shortened last step) allows exactly one
    attempt.  max_iter caps the Newton passes per tau attempt, not the
    residual evaluations: each pass's line search starts from the full update
    and halves it up to 8 times until the residual decreases.
    """

    tol: float = 1e-10
    max_iter: int = 60
    tau_shrink: float = 0.5
    tau_min: float | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("picard.tol > 0 required")
        if self.max_iter < 1:
            raise ValueError("picard.max_iter >= 1 required")
        if not 0.0 < self.tau_shrink < 1.0:
            raise ValueError("picard.tau_shrink ∈ (0,1) violated")
        if self.tau_min is not None and not self.tau_min > 0:
            raise ValueError("picard.tau_min > 0 required")


@dataclass(frozen=True)
class StepResult:
    state: StepState
    mu_hat: np.ndarray  # the solver's chemical potential and extra velocity,
    v_hat: np.ndarray   # half-layout coefficients
    ledger: EnergyLedger
    tau_used: float


@dataclass
class _Terms:
    """The nonlinear terms at one iterate that outlive its residual, for the
    Jacobian actions of the pass built on it: mu and v (coefficients), the
    padded bundles of d, mu and w = u + v, and the samples of u and of d on
    the well term's grid.  Transport and convection enter the residual only."""

    mu: np.ndarray
    v: np.ndarray
    d_b: tuple[np.ndarray, np.ndarray]
    mu_b: tuple[np.ndarray, np.ndarray]
    w_b: tuple[np.ndarray, np.ndarray]
    u_p: np.ndarray       # samples of u on the quadratic padded grid
    d3_p: np.ndarray      # samples of d on the cubic-degree padded grid


@dataclass(frozen=True)
class Attempt:
    """How one tau attempt ended: "converged", "line_search" (no trial along a
    pass's update lowered the residual), "pass_cap" (max_iter passes) or
    "overflow" (no start had a finite residual).  evals counts the
    evaluations with a finite residual, the start's included; residual is the
    last one (inf on overflow); solution is the converged (d_hat, u_hat, mu,
    v), else None, so no padded term outlives the attempt into the ledger."""

    tau: float
    outcome: str
    evals: int
    residual: float
    solution: tuple[np.ndarray, ...] | None = field(default=None, repr=False)


def _mode_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x mode by mode, for a mode-last (dim, dim, modes) m and a mode-last
    (dim, p, modes) x."""
    out = m[:, 0, None] * x[None, 0]
    for k in range(1, m.shape[1]):
        out += m[:, k, None] * x[None, k]
    return out


def _mode_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of each mode's matrix, mode-last: the adjugate over the
    determinant.  In 3D the adjugate's 2 x 2 minors cancel when the matrix has
    one stiff direction (relative error about eps cond^2), so one Newton-Schulz
    step X + X (I - m X) brings the error back to about eps cond."""
    if m.shape[0] == 2:
        adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
        return adj / (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    # column j is row j+1 x row j+2, spelled out so that each entry stays
    # contiguous over the modes (np.cross would make that axis strided)
    u, v = m[[1, 2, 0]], m[[2, 0, 1]]
    adj = np.array([u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                    u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                    u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]])
    inv = adj / np.sum(m[0] * adj[:, 0], axis=0)
    return inv + _mode_matmul(inv, np.eye(3)[:, :, None] - _mode_matmul(m, inv))


class _Workspace:
    """Per-step-attempt solver context.

    Freezes the mean director of the previous level as the background and
    assembles, mode by mode, the linearised symbol of the coupled (d, u)
    system there: the quartic transport feedback QM in the director block,
    the elastic-force block that injects director errors into the momentum
    balance, and the transport block coupling back.  One damped sweep is the
    preconditioned update x -> x - theta * G^{-1} F(x) with F the exact
    nonlinear residual, so converged iterates solve the unmodified scheme.
    The symbol at -k is the conjugate of that at k, so only the modes of the
    half layout get a block.

    Each block is G = [[A, iB], [-iC, s I]] with real A, B, C and the scalar
    momentum symbol s = rho + eta tau |q|^2.  The workspace keeps a real
    dim x dim Schur complement per wavenumber, after eliminating the scalar
    momentum block: S^{-1} with S = A - B C / s, and B / s, C and s, all
    mode-last, (dim, dim, modes).
    """

    def __init__(self, grid: GridSpec, params: ModelParams, tau: float,
                 d_prev_hat: np.ndarray, u_prev_hat: np.ndarray):
        self.grid = grid
        self.params = params
        self.tau = tau
        self.d_prev = d_prev_hat
        self.u_prev = u_prev_hat
        self.lap = laplace_symbol(grid)
        # the cubic well term can reuse the quadratic bundles' samples of d
        self.cubic_on_bundle_grid = padded_size(grid, 3) == padded_size(grid, 2)

        dim = grid.dim
        eye = np.eye(dim)
        beta = self.lap.reshape(-1)
        b = d_prev_hat[(slice(None),) + (0,) * dim].real  # mean director
        q = 2.0 * np.pi * wavevectors(grid).reshape(dim, -1)  # (dim, modes)
        a = params.alpha * np.sum(b[:, None] * q, axis=0)
        c = 1.0 - params.alpha
        bq = b[:, None, None] * q[None]                    # (b x q)_{ij} = b_i q_j
        qb = bq.transpose(1, 0, 2)                         # (q x b)_{ij} = q_i b_j
        qq = q[:, None] * q[None]
        bnorm2 = float(np.sum(b * b))
        well = (bnorm2 * eye + 2.0 * np.outer(b, b)) / params.gamma  # f_plus' frozen at b
        eye, well = eye[:, :, None], well[:, :, None]

        # mu linearisation M, transport-in Q (so dT/dd = +QM), force-out C, all
        # (dim, dim, modes); beta = |q|^2, and the projection is I where q = 0
        msym = beta * eye + well
        quad = a**2 * eye - a * c * (bq + qb) + c**2 * bnorm2 * qq
        cmat = a * eye - c * bq
        proj = eye - qq / np.where(beta == 0.0, 1.0, beta)

        # the blocks of G = [[A, iB], [-iC, s I]] and S = A - B C / s
        a_blk = (1.0 + params.epsilon * tau * beta) * eye + params.epsilon * tau * well \
            + tau * _mode_matmul(quad, msym)
        self.s = params.rho + params.eta * tau * beta
        self.bs_blk = tau * (c * qb - a * eye) / self.s  # B / s
        self.c_blk = tau * _mode_matmul(proj, _mode_matmul(cmat, msym))
        self.schur_inv = _mode_inverse(a_blk - _mode_matmul(self.bs_blk, self.c_blk))

    def terms(
        self, d_hat: np.ndarray, u_hat: np.ndarray
    ) -> tuple[_Terms, np.ndarray, np.ndarray]:
        """The terms at the iterate (d_hat, u_hat) and its residual (r_d, r_u).
        conv is div P(u (x) u), which "none" mode aliases (see coupling)."""
        p, grid = self.params, self.grid
        d_b = padded_bundle(d_hat, grid)
        d3_p = d_b[0] if self.cubic_on_bundle_grid else to_padded(d_hat, grid, degree=3)
        fp = f_plus_hat(d_hat, grid, p.gamma, d3_p)
        mu = band_limit_hat(self.lap * d_hat + fp - self.d_prev / p.gamma, grid)
        mu_b = padded_bundle(mu, grid)
        v = extra_velocity_hat((mu_b, d_b), p.alpha, grid)
        w_b = padded_bundle(u_hat + v, grid)
        transport = director_transport_hat((d_b, w_b), p.alpha, grid)
        u_p = to_padded(u_hat, grid, 2)
        conv = convective_hat([(u_p, u_p)], grid)
        r_d, r_u = self._assemble(d_hat - self.d_prev, u_hat - self.u_prev, u_hat,
                                  transport, mu, conv, v)
        return _Terms(mu, v, d_b, mu_b, w_b, u_p, d3_p), r_d, r_u

    def jacobian_action(
        self, t: _Terms, delta_d: np.ndarray, delta_u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact directional derivative of the residual map at the iterate
        underlying t.  All product operators are bilinear, so the derivative
        is a sum of the same operators with one argument replaced, and each
        such sum is truncated once.  The well term goes first, in row blocks,
        and off the bundle grid delta_d's samples on its grid are gone before
        delta_d's bundle is padded.  The products of delta_d are formed next,
        as padded sums that the products of delta_mu and delta_w are then
        added into, so one padded direction bundle is alive at a time."""
        p, grid = self.params, self.grid
        dd_b = padded_bundle(delta_d, grid) if self.cubic_on_bundle_grid else None
        dd3_p = to_padded(delta_d, grid, degree=3) if dd_b is None else dd_b[0]

        def well(r):
            d, dd = t.d3_p[r], dd3_p[r]
            return (np.sum(d * d, axis=0) * dd + 2.0 * np.sum(d * dd, axis=0) * d) / p.gamma

        dfp = from_padded(_row_blocks(well, dd3_p.shape, grid), grid)
        del dd3_p  # the well term's last read
        dd_b = dd_b or padded_bundle(delta_d, grid)
        dmu = band_limit_hat(self.lap * delta_d + dfp, grid)
        dv = extra_velocity_padded((t.mu_b, dd_b), p.alpha, grid)
        dtrans = director_transport_padded((dd_b, t.w_b), p.alpha, grid)
        del dd_b  # its last products are done
        dv = extra_velocity_hat((padded_bundle(dmu, grid), t.d_b), p.alpha, grid, addend=dv)
        dtrans = director_transport_hat((t.d_b, padded_bundle(delta_u + dv, grid)), p.alpha, grid,
                                        addend=dtrans)
        du_p = to_padded(delta_u, grid, 2)
        dconv = convective_hat([(du_p, t.u_p), (t.u_p, du_p)], grid)
        return self._assemble(delta_d, delta_u, delta_u, dtrans, dmu, dconv, dv)

    def _assemble(self, jump_d, jump_u, u, transport, mu, conv, v):
        """The director and momentum equations, linear in every argument:
        the residual at an iterate, or its derivative along a direction."""
        p, tau = self.params, self.tau
        r_d = jump_d + tau * transport + p.epsilon * tau * mu
        r_u = leray_hat(
            p.rho * jump_u + tau * p.rho * conv + tau * p.eta * self.lap * u - tau * v,
            self.grid,
        )
        return r_d, r_u

    def precondition_vec(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G^{-1} applied to an iterate vector of residual fields by block
        elimination, then split (projected back to the retained space)."""
        dim = self.grid.dim
        y_d, y_u = y.reshape(2, dim, 1, -1)
        x_d = _mode_matmul(self.schur_inv, y_d - 1j * _mode_matmul(self.bs_blk, y_u))
        x_u = (y_u + 1j * _mode_matmul(self.c_blk, x_d)) / self.s
        return self.split(np.concatenate([x_d, x_u]).reshape(y.shape))

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
    real.  Its QR factorisation is updated by Givens rotations (Saad &
    Schultz, SISC 1986): each new column is rotated by the earlier rotations
    and then by one new one, which zeroes its subdiagonal entry and rotates
    the right-hand side |b| e1 alongside.  The least-squares residual is then
    the magnitude of the last rotated entry, so the convergence test needs no
    solve, and the coefficients come from one back substitution when the
    solve stops.  A dense least-squares solve per iteration would call
    LAPACK, whose pages (about 1 MiB) then stay resident for the rest of the
    process; the rotations are a few scalar operations per column, and the
    step path calls neither LAPACK nor BLAS.

    A breakdown ends the solve: what is left of the operator's output after
    orthogonalisation is below 1e-14 of the output's norm, which is that of
    its Hessenberg column as the basis is orthonormal, so the test does not
    depend on the scale of b.  An operator that overflows ends the solve at
    the last finite column, with what the earlier columns solved.

    b is consumed: it is normalised in place and becomes the first basis
    vector, and each matvec result (a new array) is orthogonalised and
    normalised in place into the next, so the basis is the only copy.
    """

    def dot(p: np.ndarray, q: np.ndarray) -> float:
        return parseval_sum((np.conj(p) * q).real)

    norm_b = np.sqrt(dot(b, b))
    if norm_b == 0.0:
        return np.zeros_like(b)
    b /= norm_b
    basis = [b]
    r = np.zeros((max_inner + 1, max_inner))  # the Hessenberg columns, rotated
    cs, sn = np.zeros(max_inner), np.zeros(max_inner)
    g = np.zeros(max_inner + 1)  # the rotated right-hand side |b| e1
    g[0] = norm_b
    m = 0  # the columns solved for
    for k in range(max_inner):
        w = matvec(basis[k])
        col = r[: k + 2, k]
        for i in range(k + 1):
            col[i] = dot(basis[i], w)
            w -= col[i] * basis[i]
        col[k + 1] = np.sqrt(dot(w, w))
        if not np.isfinite(col[k + 1]):
            break  # the operator overflowed: keep the solution of the earlier columns
        lucky = col[k + 1] <= 1e-14 * np.hypot.reduce(col)
        if not lucky:
            w /= col[k + 1]
            basis.append(w)
        for i in range(k):
            hi, hj = col[i], col[i + 1]
            col[i], col[i + 1] = cs[i] * hi + sn[i] * hj, cs[i] * hj - sn[i] * hi
        rho = np.hypot(col[k], col[k + 1])
        if rho == 0.0:
            break  # the column adds nothing to what the earlier ones solve
        cs[k], sn[k] = col[k] / rho, col[k + 1] / rho
        col[k], col[k + 1] = rho, 0.0
        g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
        m = k + 1
        if lucky or abs(g[k + 1]) <= rel_tol * norm_b:
            break
    y = g[:m].copy()
    for i in reversed(range(m)):
        y[i] = (y[i] - np.sum(r[i, i + 1 : m] * y[i + 1 :])) / r[i, i]
    out = np.zeros_like(b)
    for i in range(m):
        out += y[i] * basis[i]
    return out


def _picard_attempt(ws: _Workspace, cfg: PicardConfig,
                    guess: tuple[np.ndarray, np.ndarray] | None) -> Attempt:
    """Drive the residual to tolerance at ws.tau; every ending is an Attempt.

    Inexact Newton: each outer pass solves the linearised system with a few
    matrix-free GMRES iterations, right-preconditioned by the frozen-symbol
    blocks, then backtracks along the update until the residual decreases.
    The solved system is the unmodified implicit scheme.  evaluate judges
    every iterate: inf unless both residual norms are finite.  The start is
    the guess, or the previous level if there is none or it is inf; a trial
    that is inf halves theta uncounted.
    """

    def evaluate(x):
        d_hat, u_hat = ws.split(x)
        t, r_d, r_u = ws.terms(d_hat, u_hat)
        rd = spectral_l2_norm(r_d) / (1.0 + spectral_l2_norm(d_hat))
        ru = spectral_l2_norm(r_u) / (1.0 + spectral_l2_norm(u_hat))
        res = max(rd, ru) if np.isfinite(rd) and np.isfinite(ru) else np.inf
        return res, ((d_hat, u_hat, t, r_d, r_u) if res < np.inf else None)

    for start in ([] if guess is None else [guess]) + [(ws.d_prev, ws.u_prev)]:
        x = ws.join(*start)
        res, payload = evaluate(x)
        if res < np.inf:
            break
    else:
        return Attempt(ws.tau, "overflow", 0, np.inf)

    evals, passes = 1, 0
    while res > cfg.tol:
        if passes == cfg.max_iter:
            return Attempt(ws.tau, "pass_cap", evals, res)
        passes += 1
        t, rhs = payload[2], ws.join(*payload[3:])
        # r_d, r_u live on in rhs only, which _gmres consumes as its first basis
        # vector; the last update is spent
        payload = step = None

        def matvec(y):
            return ws.join(*ws.jacobian_action(t, *ws.precondition_vec(y)))

        # Eisenstat-Walker-style forcing (SISC 1996), relative to |F|: at most
        # 0.5 so each pass still halves the linearised residual, like sqrt(res)
        # so the passes converge superlinearly, and at least 3 tol / res so
        # GMRES never aims below about 3 tol, which the outer test cannot use.
        forcing = min(0.5, max(np.sqrt(res) * 0.3, 3.0 * cfg.tol / max(res, cfg.tol)))
        step = ws.join(*ws.precondition_vec(_gmres(matvec, rhs, forcing, max_inner=24)))
        t = None  # each trial builds its own: one set of padded terms is alive

        theta = 1.0
        for _ in range(8):
            trial = x - theta * step
            theta *= 0.5
            res_new, payload = evaluate(trial)
            if res_new == np.inf:
                continue
            evals += 1
            if res_new < res:
                x, res = trial, res_new
                break
            payload = None
        else:
            return Attempt(ws.tau, "line_search", evals, res)
    return Attempt(ws.tau, "converged", evals, res, payload[:2] + (payload[2].mu, payload[2].v))


def implicit_step(
    prev: StepState,
    params: ModelParams,
    cfg: PicardConfig | None = None,
    guess: tuple[np.ndarray, np.ndarray] | None = None,
) -> StepResult:
    """Advance one step of the implicit scheme, shrinking tau on failure.

    guess is an optional warm start, a (d_hat, u_hat) pair of half-layout
    coefficients (e.g. an extrapolation from earlier levels); it is used for
    the first tau attempt only and never changes the converged solution, only
    how fast the solver reaches it.  A stalled attempt multiplies tau by
    cfg.tau_shrink and retries from the previous level, down to the floor
    min(cfg.tau_min or 1e-6 * tau, tau), below which it raises
    PicardDivergenceError.  An overflow attempt found no finite residual at
    the previous level, where the residual is tau times terms that do not
    depend on tau: a smaller tau makes its norm finite only if that norm lay
    between about 1e154 and 1e154 * tau / floor, so it raises NonFiniteError
    at once.  Either message lists every attempt.
    """
    cfg = cfg or PicardConfig()
    grid = prev.grid
    tau_min = min(cfg.tau_min or 1e-6 * params.tau, params.tau)

    tau, attempts = params.tau, []
    while not attempts or attempts[-1].solution is None:
        overflow = bool(attempts) and attempts[-1].outcome == "overflow"
        if overflow or tau < tau_min:
            tried = "; ".join(f"tau {a.tau} {a.outcome} after {a.evals} evals, "
                              f"residual {a.residual:.3e}" for a in attempts)
            if overflow:
                raise NonFiniteError(f"implicit step overflowed at the previous level: {tried}")
            raise PicardDivergenceError(
                f"implicit step failed at every tau down to the floor {tau_min}: {tried}")
        # overflow, in the blocks or the residual, ends the attempt by its
        # outcome, never as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            ws = _Workspace(grid, params, tau, prev.d.coeffs, prev.u.coeffs)
            attempts.append(_picard_attempt(ws, cfg, None if attempts else guess))
        tau *= cfg.tau_shrink

    done = attempts[-1]
    d_hat, u_hat, mu, v = done.solution
    d, u = (VectorField.from_coefficients(grid, c) for c in (d_hat, u_hat))
    state = StepState(d, u, prev.time + done.tau)
    ledger = build_ledger(prev, state, mu, v, replace(params, tau=done.tau),
                          picard_iters=done.evals, picard_residual=done.residual)
    return StepResult(state, mu, v, ledger, done.tau)


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
    v_hat = extra_velocity_hat((padded_bundle(mu_hat, grid), d_b), params.alpha, grid)
    w_b = padded_bundle(u_hat + v_hat, grid)
    transport = director_transport_hat((d_b, w_b), params.alpha, grid)
    res_d = d_hat - dp_hat + tau * transport + eps * tau * mu_hat
    r_d = spectral_l2_norm(res_d) / (1.0 + spectral_l2_norm(d_hat))

    u_p = to_padded(u_hat, grid, 2)
    conv = convective_hat([(u_p, u_p)], grid)
    res_u = leray_hat(
        params.rho * (u_hat - up_hat) + tau * params.rho * conv
        + tau * params.eta * laplace_symbol(grid) * u_hat - tau * v_hat,
        grid,
    )
    r_u = spectral_l2_norm(res_u) / (1.0 + spectral_l2_norm(u_hat))
    return float(r_d), float(r_mu), float(r_u)
