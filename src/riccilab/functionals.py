"""Energy and entropy functionals of a (metric, density) pair.

All quantities are evaluated with the single quadrature of
:func:`riccilab.geometry.integrate`, so functional identities inherit the
operator-level integration-by-parts exactness of the discretization.

* ``f_functional``    F = 4 integral(|grad u|^2 + R u^2 / 4)
* ``shannon_entropy`` S = integral(u^2 ln u^2)   (equals -integral(f e^{-f}))
* ``omega``           a + F/4, required positive
* ``log_entropy``     -S + (n/2) ln(omega) + 4 a t (the formula itself is
  ``log_entropy_value``, which takes S and omega already computed, also as
  arrays)
* ``lambda0``         smallest eigenvalue of -Lap + R/4; ``ground_states``
  solves a whole stack of metrics, ``lambda0`` and ``lambda0_eig`` are its
  stack of one

F and S are computed by ``_energy`` and ``_entropy`` on a
``geometry.MetricStack`` and its (K, ...) density stack, one value per row;
``f_functional`` and ``shannon_entropy`` are their typed stack of one, and
the row kernel ``variation.row_values`` runs them over blocks of rows.

On the torus the ground state is found by matrix-free LOPCG with block size 1
(Knyazev 2001), preconditioned by the exact FFT inverse of
-Lap0 + mean(e^{2 phi}): Rayleigh-Ritz on span{x, M r, p} each iteration,
with p dropped for the step when the 3x3 Gram matrix is ill-conditioned
(Duersch, Shao, Yang and Gu 2018).  A one-column stack (``geometry``'s
one-column metrics) is solved on its column, Ny = 1: a y-invariant pencil
has a y-invariant ground state, the symbol is the ky = 0 part of the rfft2
half grid and the preconditioner shift the mean of e^{2 phi} over the
cells held, so the values agree with the full-grid solve to round-off.
The rows of a stack run independently over a ``parallel.RowPool``; the
small eigenproblems of a block are solved together as (k, m, m) stacks, on
one workspace, with the Gram pencils from batched ``matmul`` (BLAS dgemm).
A row is frozen and leaves its block once its relative eigen-residual
||-Lap_g x + (R/4) x - lambda x||_g / ||x||_g is at most ``LAMBDA0_TOL``; a
row still above it after ``LAMBDA0_MAXITER`` iterations has not converged,
and reading its value raises NoConvergence.
Each row's result is a pure function of its own metric, bitwise the same in
any block and with any number of BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonPositiveOmega, PositivityLoss
from .geometry import (
    ConformalTorus2D,
    MetricState,
    ScalarField,
    _lap5,
    _row_sum,
    scalar_field,
    volume,
)
from .parallel import row_pool

__all__ = [
    "f_functional",
    "shannon_entropy",
    "omega",
    "log_entropy",
    "log_entropy_value",
    "lambda0",
    "lambda0_eig",
    "ground_states",
    "GroundStates",
]

LAMBDA0_TOL = 1e-10       # bound on the relative g-norm eigen-residual
LAMBDA0_MAXITER = 200     # LOPCG iteration cap
GRAM_RCOND = 1e-12        # Gram eigenvalue ratio below which p is dropped

# (i, j) index pairs of the strict upper triangle of the 2x2 and 3x3 Gram
# pencils, which _lopcg mirrors down.
_UPPER = {m: np.triu_indices(m, 1) for m in (2, 3)}


def _energy(g, u2, du):
    """F of each row of the metric stack g from u**2 and g.differences(u)."""
    return 4.0 * g.integrate(g.gradient_inner(du, du) + 0.25 * g.R * u2)


def _entropy(g, u2):
    """S of each row of the metric stack g from u**2 of its densities u."""
    return g.integrate(u2 * np.log(u2))


def f_functional(m: MetricState, u: ScalarField) -> float:
    """Dirichlet-plus-curvature energy F = 4 integral(|grad u|^2 + R u^2/4) dmu."""
    return float(_energy(m.stack, u.values**2, m.stack.differences(u.values)))


def shannon_entropy(m: MetricState, u: ScalarField) -> float:
    """Differential entropy S = integral(u^2 ln u^2) dmu of the density u^2."""
    if np.min(u.values) <= 0.0:
        raise PositivityLoss("density must be positive for the entropy")
    return float(_entropy(m.stack, u.values**2))


def omega(F: float, a: float) -> float:
    """Shifted quarter energy a + F/4; raises when not strictly positive."""
    w = a + F / 4.0
    if not (w > 0.0):
        raise NonPositiveOmega(
            f"omega = a + F/4 = {w:g} is not positive (a={a:g}, F={F:g})"
        )
    return w


# math.log of each entry: numpy's vectorised log rounds some arguments
# differently in the last bit.
_math_log = np.vectorize(math.log, otypes=[float])


def log_entropy_value(S, w, n: int, a, t):
    """Adjusted log entropy -S + (n/2) ln(w) + 4 a t from the entropy S and
    omega w = a + F/4 of an n-dimensional snapshot at time t.  Arrays
    broadcast; every w must be positive (math.log raises otherwise)."""
    return -S + 0.5 * n * _math_log(w) + 4.0 * a * t


def log_entropy(m: MetricState, u: ScalarField, a: float, t: float) -> float:
    """Adjusted log entropy -S + (n/2) ln(a + F/4) + 4 a t."""
    S = shannon_entropy(m, u)
    w = omega(f_functional(m, u), a)
    return float(log_entropy_value(S, w, m.backend.n, a, t))


# --------------------------------------------------------------------------
# Ground state of -Lap + R/4
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GroundStates:
    """Ground states of a stack of metrics, one row per metric.

    ``values[k]`` is the Rayleigh quotient of row k's eigenfunction, scaled
    to unit g-norm and a positive sum; ``iterations[k]`` counts its LOPCG
    updates and ``residuals[k]`` is its relative g-norm eigen-residual (0 and
    0.0 in closed form).
    """

    values: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        """Per row: its residual is at most ``LAMBDA0_TOL`` (never for nan)."""
        return self.residuals <= LAMBDA0_TOL

    def value(self, k: int) -> float:
        """Eigenvalue of row k; NoConvergence when it did not converge."""
        if not self.converged[k]:
            raise NoConvergence(
                f"ground-state LOPCG reached eigen-residual "
                f"{self.residuals[k]:.3g} > {LAMBDA0_TOL:g} within "
                f"{LAMBDA0_MAXITER} iterations"
            )
        return float(self.values[k])


def _neg_lap_symbol(N: int, h: float) -> np.ndarray:
    """Fourier symbol of the periodic 5-point -Lap0 on the rfft2 half grid,
    (4/h^2)(sin^2(k_x h/2) + sin^2(k_y h/2)) with k h / 2 = pi j / N."""
    sx = np.sin(np.pi * np.arange(N) / N) ** 2
    sy = np.sin(np.pi * np.arange(N // 2 + 1) / N) ** 2
    return (4.0 / (h * h)) * (sx[:, None] + sy[None, :])


def _lowest_ritz(GA: np.ndarray, GB: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest Ritz vector of each pencil (GA, GB) in a (k, m, m) stack.

    The basis is first scaled to unit B-norm.  Returns the coefficients of
    the B-normalised Ritz vector in the unscaled basis, shape (k, m), and a
    mask of the rows whose scaled GB is numerically positive definite,
    smallest eigenvalue above ``GRAM_RCOND`` times the largest; the
    coefficients of the other rows are meaningless.
    """
    diag = np.diagonal(GB, axis1=1, axis2=2)
    ok = (np.all(diag > 0.0, axis=1) & np.all(np.isfinite(GA), axis=(1, 2))
          & np.all(np.isfinite(GB), axis=(1, 2)))
    eye = np.eye(GB.shape[1])
    d = 1.0 / np.sqrt(np.where(ok[:, None], diag, 1.0))
    scale = d[:, :, None] * d[:, None, :]
    GA = np.where(ok[:, None, None], GA * scale, eye)
    e, V = np.linalg.eigh(np.where(ok[:, None, None], GB * scale, eye))
    ok &= e[:, 0] > GRAM_RCOND * e[:, -1]
    T = V / np.sqrt(np.where(ok[:, None], e, 1.0))[:, None, :]
    _, Y = np.linalg.eigh(np.swapaxes(T, 1, 2) @ GA @ T)
    return d * (T @ Y[:, :, 0, None])[:, :, 0], ok


def _lopcg(g, vectors=None):
    """Ground states of the torus metric stack g, one state or a (k, N, Ny)
    stack (Ny = N, or 1 for a stack holding one column), by block-size-1
    LOPCG on each row: its values, iterations and residuals, and each row's
    eigenfunction in ``vectors`` ((k, N, N), broadcast along y) unless
    None."""
    # A tiny grid spacing overflows the arithmetic; the residual is then
    # not finite, fails LAMBDA0_TOL and reports the row unconverged.
    with np.errstate(all="ignore"):
        N, Ny, h = g.backend.N, g.params.shape[-1], g.backend.h
        e2p = g.weight.reshape(-1, N, Ny)
        pot = (0.25 * g.R * g.weight).reshape(-1, N, Ny)
        inv_symbol = 1.0 / (_neg_lap_symbol(N, h)[:, :Ny // 2 + 1]
                            + (_row_sum(e2p) / (N * Ny))[:, None, None])
        K = len(e2p)
        rows, values, iterations, residuals = (
            np.arange(K), np.empty(K), np.zeros(K, dtype=int), np.zeros(K))
        # [x, M r, p] of every row (p = 0 until set), their A- and B-images
        S, AS, BS = Z = np.zeros((3, 3, K, N, Ny))
        S[0] = 1.0
        for it in range(LAMBDA0_MAXITER + 1):
            n = len(rows)
            X, W, P = S[:, :n]
            AX, AW, BX = AS[0, :n], AS[1, :n], BS[0, :n]
            np.multiply(e2p, X, out=BX)
            BX *= X
            X *= (np.copysign(1.0, _row_sum(X))
                  / (np.sqrt(_row_sum(BX)) * h))[:, None, None]
            np.subtract(np.multiply(pot, X, out=AX), _lap5(X, h), out=AX)
            np.multiply(e2p, X, out=BX)
            # W is scratch until M r fills it; r = A x - lam B x goes to AW.
            xBx = _row_sum(np.multiply(X, BX, out=W))
            lam = _row_sum(np.multiply(X, AX, out=W)) / xBx
            R = np.subtract(AX, lam[:, None, None] * BX, out=AW)
            res = np.sqrt(_row_sum(np.divide(R * R, e2p, out=W)) / xBx)

            # Freeze the rows that pass (or ran out of iterations).
            done = (res <= LAMBDA0_TOL) | (it == LAMBDA0_MAXITER)
            if np.any(done):
                k = rows[done]
                values[k], iterations[k] = lam[done], it
                residuals[k] = res[done]
                if vectors is not None:  # unit g-norm on the full grid
                    vectors[k] = X[done] * math.sqrt(Ny / N)
                keep = ~done
                if not np.any(keep):
                    return values, iterations, residuals
                rows, n = rows[keep], np.count_nonzero(keep)
                Z[:, :, :n] = Z[:, :, :len(keep)][:, :, keep]
                e2p, pot, inv_symbol = e2p[keep], pot[keep], inv_symbol[keep]
                X, W, P = S[:, :n]
                R = AW = AS[1, :n]

            W[...] = np.fft.irfft2(np.fft.rfft2(R) * inv_symbol, s=(N, Ny))
            np.subtract(np.multiply(pot, W, out=AW), _lap5(W, h), out=AW)
            m = 3 if it else 2  # p joins the basis after the first step
            np.multiply(e2p, S[1:m, :n], out=BS[1:m, :n])
            # Both Gram pencils, their upper triangles mirrored down
            basis = S[:m, :n].reshape(m, n, -1).swapaxes(0, 1)
            GA = basis @ AS[:m, :n].reshape(m, n, -1).transpose(1, 2, 0)
            GB = basis @ BS[:m, :n].reshape(m, n, -1).transpose(1, 2, 0)
            i, j = _UPPER[m]
            GA[:, j, i], GB[:, j, i] = GA[:, i, j], GB[:, i, j]
            c, ok = _lowest_ritz(GA, GB)
            if m == 3 and not np.all(ok):
                # Drop p where the three-vector Gram matrix is ill-conditioned.
                c2, ok2 = _lowest_ritz(GA[~ok, :2, :2], GB[~ok, :2, :2])
                c[~ok] = np.pad(c2, ((0, 0), (0, 1)))
                ok[~ok] = ok2
            # A row whose {x, M r} is degenerate keeps x; it cannot improve.
            c[~ok] = np.eye(m)[0]
            # p <- c_w w + c_p p and its A-image, then x <- c_x x + p
            coef = np.zeros((3, n, 1, 1))
            coef[:m, :, 0, 0] = c.T
            for A in (S, AS):
                A[1:, :n] *= coef[1:]
                A[2, :n] += A[1, :n]
            X *= coef[0]
            X += P


def ground_states(g) -> GroundStates:
    """Ground states of -Lap_g + R/4 for the metric stack g, one row per
    metric.

    Constant-curvature backends: R/4 in closed form with the constant ground
    state (-Lap is nonnegative), 0 iterations and residual 0.0.  Torus:
    block-size-1 LOPCG on the symmetric pencil
    (-Lap0 + (R/4) e^{2 phi}, e^{2 phi}), the weak form of
    (-Lap_g + R/4) u = lambda u, from the constant start vector (see the
    module docstring).  A row that misses ``LAMBDA0_TOL`` within
    ``LAMBDA0_MAXITER`` iterations is reported, not raised:
    ``GroundStates.value`` raises NoConvergence for it.  Row blocks are
    sized by the cells the stack holds and mapped on a
    ``parallel.row_pool`` closed before the return (``submit_ground_states``
    starts them on a caller's pool).
    """
    if not isinstance(g.backend, ConformalTorus2D):
        return submit_ground_states(g, None)[0]
    with row_pool(len(g.params), _cells(g)) as pool:
        ground, call = submit_ground_states(g, pool)
        pool.join(call)
    return ground


def submit_ground_states(g, pool) -> tuple:
    """``ground_states(g)`` started on ``pool``, which must not have forked
    yet (``RowPool.add``): (ground, call), ``ground``'s arrays the pool's,
    which hold the solve once ``pool`` has joined ``call``
    (``RowPool.submit``); in closed form the values at once and call None.
    """
    K = len(g.params)
    if not isinstance(g.backend, ConformalTorus2D):
        return GroundStates(np.full(K, g.R / 4.0), np.zeros(K, dtype=int),
                            np.zeros(K)), None
    values, iterations, residuals = (
        pool.array(K), pool.array(K, int), pool.array(K))

    @pool.add
    def solve(rows):
        values[rows], iterations[rows], residuals[rows] = _lopcg(g[rows])

    call = pool.submit(solve, K, _cells(g))
    return GroundStates(values, iterations, residuals), call


def _cells(g) -> int:
    """The cells of one row of the stack g."""
    return math.prod(g.params.shape[1:])


def lambda0_eig(m: MetricState) -> tuple[float, ScalarField]:
    """Smallest eigenvalue of -Lap_g + R/4 with its eigenfunction.

    Constant-curvature backends: the closed form with the constant ground
    state.  Torus: the :func:`ground_states` LOPCG on the grid the flow
    steps (``components``), so lambda0(g(0)) is bitwise row 0 of a run's
    ``lambda0`` column.  NoConvergence is raised when the relative
    eigen-residual exceeds ``LAMBDA0_TOL`` after ``LAMBDA0_MAXITER``
    iterations.  The eigenvalue is the Rayleigh quotient
    of the returned eigenfunction, which has unit g-norm on the full grid.
    """
    b = m.backend
    if not isinstance(b, ConformalTorus2D):
        return float(m.stack.R) / 4.0, scalar_field(m, 1.0 / math.sqrt(volume(m)))
    vectors = np.empty((1,) + m.params.shape)
    ground = GroundStates(*_lopcg(b.stack(b.components(m.params)[0]), vectors))
    return ground.value(0), scalar_field(m, vectors[0])


def lambda0(m: MetricState) -> float:
    """Smallest eigenvalue of -Lap_g + R/4 (Rayleigh-quotient infimum over
    unit-mass densities)."""
    return lambda0_eig(m)[0]
