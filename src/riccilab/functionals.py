"""Energy and entropy functionals of a (metric, density) pair.

All quantities are evaluated with the single quadrature of
:func:`riccilab.geometry.integrate`, so functional identities inherit the
operator-level integration-by-parts exactness of the discretization.

* ``f_functional``    F = 4 integral(|grad u|^2 + R u^2 / 4)
* ``shannon_entropy`` S = integral(u^2 ln u^2)   (equals -integral(f e^{-f}))
* ``omega``           a + F/4, required positive
* ``log_entropy``     -S + (n/2) ln(omega) + 4 a t
* ``lambda0``         smallest eigenvalue of -Lap + R/4

On the torus ``lambda0`` is found by matrix-free LOBPCG with an exact FFT
preconditioner.  It stops on the relative eigen-residual
||-Lap_g x + (R/4) x - lambda x||_g / ||x||_g <= ``LAMBDA0_TOL`` and raises
NoConvergence when that bound is not met within ``LAMBDA0_MAXITER``
iterations.  The solve is a pure function of the metric.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NoConvergence, NonPositiveOmega, PositivityLoss
from .geometry import (
    ConformalTorus2D,
    MetricState,
    ScalarField,
    _lap5,
    dim,
    gradient_sq,
    integrate,
    scalar_curvature,
    scalar_field,
)

__all__ = [
    "f_functional",
    "f_functional_f_form",
    "shannon_entropy",
    "omega",
    "log_entropy",
    "lambda0",
    "lambda0_eig",
]

LAMBDA0_TOL = 1e-10       # bound on the relative g-norm eigen-residual
LAMBDA0_MAXITER = 200     # LOBPCG iteration cap


def f_functional(m: MetricState, u: ScalarField) -> float:
    """Dirichlet-plus-curvature energy F = 4 integral(|grad u|^2 + R u^2/4) dmu."""
    gs = gradient_sq(m, u)
    R = scalar_curvature(m)
    integrand = gs.values + 0.25 * R.values * u.values**2
    return 4.0 * integrate(m, scalar_field(m, integrand))


def f_functional_f_form(m: MetricState, f: ScalarField, v: ScalarField) -> float:
    """Same energy in the potential variable: integral((R + |grad f|^2) e^{-f}),
    with e^{-f} supplied as the density v.  Used to cross-check the change of
    variables; agrees with :func:`f_functional` up to O(h^2) chain-rule error."""
    gs = gradient_sq(m, f)
    R = scalar_curvature(m)
    return integrate(m, scalar_field(m, (R.values + gs.values) * v.values))


def shannon_entropy(m: MetricState, u: ScalarField) -> float:
    """Differential entropy S = integral(u^2 ln u^2) dmu of the density u^2."""
    if np.min(u.values) <= 0.0:
        raise PositivityLoss("density must be positive for the entropy")
    v = u.values**2
    return integrate(m, scalar_field(m, v * np.log(v)))


def omega(F: float, a: float) -> float:
    """Shifted quarter energy a + F/4; raises when not strictly positive."""
    w = a + F / 4.0
    if not (w > 0.0):
        raise NonPositiveOmega(
            f"omega = a + F/4 = {w:g} is not positive (a={a:g}, F={F:g})"
        )
    return w


def log_entropy(m: MetricState, u: ScalarField, a: float, t: float) -> float:
    """Adjusted log entropy -S + (n/2) ln(a + F/4) + 4 a t."""
    n = dim(m.backend)
    S = shannon_entropy(m, u)
    w = omega(f_functional(m, u), a)
    return -S + 0.5 * n * math.log(w) + 4.0 * a * t


# --------------------------------------------------------------------------
# Ground state of -Lap + R/4
# --------------------------------------------------------------------------

def _neg_lap_symbol(N: int, h: float) -> np.ndarray:
    """Fourier symbol of the periodic 5-point -Lap0 on the rfft2 half grid,
    (4/h^2)(sin^2(k_x h/2) + sin^2(k_y h/2)) with k h / 2 = pi j / N."""
    sx = np.sin(np.pi * np.arange(N) / N) ** 2
    sy = np.sin(np.pi * np.arange(N // 2 + 1) / N) ** 2
    return (4.0 / (h * h)) * (sx[:, None] + sy[None, :])


def lambda0_eig(
    m: MetricState,
    tol: float = LAMBDA0_TOL,
    maxiter: int = LAMBDA0_MAXITER,
) -> tuple[float, ScalarField]:
    """Smallest eigenvalue of -Lap_g + R/4 with its eigenfunction.

    Constant-curvature backends: R/4 in closed form with the constant ground
    state (-Lap is nonnegative).  Torus: matrix-free LOBPCG on the symmetric
    pencil (-Lap0 + (R/4) e^{2 phi}, e^{2 phi}), the weak form of
    (-Lap_g + R/4) u = lambda u, from the deterministic constant start
    vector, preconditioned by the exact FFT inverse of -Lap0 + mean(e^{2 phi}).
    ``tol`` bounds the relative eigen-residual
    ||-Lap_g x + (R/4) x - lambda x||_g / ||x||_g of the returned pair and
    ``maxiter`` caps the LOBPCG iterations; NoConvergence is raised when the
    bound is not met within the cap.  The eigenvalue is the Rayleigh quotient
    of the returned eigenfunction, which has unit g-norm.
    """
    b = m.backend
    if not isinstance(b, ConformalTorus2D):
        lam = float(scalar_curvature(m).values) / 4.0
        vol = integrate(m, scalar_field(m, 1.0))
        return lam, scalar_field(m, 1.0 / math.sqrt(vol))

    N, h = b.N, b.h
    e2p = np.exp(2.0 * m.params).ravel()
    pot = 0.25 * scalar_curvature(m).values.ravel() * e2p
    inv_symbol = 1.0 / (_neg_lap_symbol(N, h) + float(np.mean(e2p)))

    # Blocks of column vectors, shape (N*N, k).
    def apply_A(X):
        lap = _lap5(X.reshape(N, N, -1), h).reshape(X.shape)
        return -lap + pot[:, None] * X

    def apply_B(X):
        return e2p[:, None] * X

    def precondition(X):
        spec = np.fft.rfft2(X.reshape(N, N, -1), axes=(0, 1))
        spec *= inv_symbol[:, :, None]
        return np.fft.irfft2(spec, s=(N, N), axes=(0, 1)).reshape(X.shape)

    # lobpcg's Euclidean residual for a B-normalised vector bounds the
    # g-norm residual after division by sqrt(min e2p).  Its non-convergence
    # warnings are silenced: the residual check below decides.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, x = spla.lobpcg(
            apply_A, np.ones((N * N, 1)), B=apply_B, M=precondition,
            tol=tol * math.sqrt(float(np.min(e2p))), maxiter=maxiter,
            largest=False,
        )
    x = x * (math.copysign(1.0, float(np.sum(x)))
             / math.sqrt(float(np.sum(e2p[:, None] * x * x)) * h * h))
    Ax = apply_A(x)
    Bx = apply_B(x)
    rho = float(np.sum(x * Ax)) / float(np.sum(x * Bx))
    r = Ax - rho * Bx
    res = math.sqrt(float(np.sum(r * r / e2p[:, None])) / float(np.sum(x * Bx)))
    if not res <= tol:
        raise NoConvergence(
            f"ground-state LOBPCG reached eigen-residual {res:.3g} > {tol:g} "
            f"within {maxiter} iterations"
        )
    return rho, scalar_field(m, x.reshape(N, N))


def lambda0(m: MetricState, tol: float = LAMBDA0_TOL, maxiter: int = LAMBDA0_MAXITER) -> float:
    """Smallest eigenvalue of -Lap_g + R/4 (Rayleigh-quotient infimum over
    unit-mass densities)."""
    return lambda0_eig(m, tol=tol, maxiter=maxiter)[0]

