"""First-variation rates of the adjusted log entropy and their verification.

Two closed-form expressions for d/dt of the log entropy are evaluated on
each (metric, density) snapshot:

* split form      (n/(4 omega)) integral(|T - (4(omega - a)/n) g|^2 u^2)
                  + 4 a^2 / omega
* combined form   (n/(4 omega)) integral(|T - (4 omega / n) g|^2 u^2)

with T = Ric - 2 Hess(u)/u + 2 grad u (x) grad u / u^2 (equivalently
Ric + Hess(f) for f = -2 ln u).  ``rate_forms`` takes T and the energy F of
the snapshot, already computed, and returns both rates: two separate
deviation integrals over the same tensor and the same quadrature, so their
algebraic equivalence is tested free of independent discretization noise.
They are not merged into one integral by expanding the squares.  Since
4(omega - a) = F, the subtracted multiple in the split form equals (F/n) g.
``rhs_split`` and ``rhs_combined`` build T and F themselves and return one
rate each.

Time derivatives are always taken from the stored time series by finite
differences, never from re-deriving evolution equations, so the verifier
stays independent of the identities being verified.  Interior points use
fourth-order stencils: the second-order truncation constant grows like
(1 - 2t)^{-3} toward the sphere extinction time and would swamp the
comparison tolerances there.  Endpoint values use one-sided second-order
stencils and are excluded from all acceptance statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityLoss, TooFewSamples
from .geometry import (
    MetricState,
    ScalarField,
    SymTensorField,
    dim,
    grad_outer,
    hessian,
    integrate,
    metric_tensor,
    ricci,
    scalar_field,
    tensor_norm_sq,
)
from .functionals import f_functional, omega

__all__ = [
    "matrix_quantity",
    "matrix_quantity_f_form",
    "rate_forms",
    "rhs_split",
    "rhs_combined",
    "fd_time_derivative",
    "proof_chain_check",
    "equivalence_check",
    "monotonicity_check",
    "VariationReport",
]

SUB_IDENTITY_TOL = 1e-9   # relative bound on the integration-by-parts sub-identity


# --------------------------------------------------------------------------
# The variation tensor and the two rate forms
# --------------------------------------------------------------------------

def matrix_quantity(m: MetricState, u: ScalarField) -> SymTensorField:
    """Tensor Ric - 2 Hess(u)/u + 2 grad u (x) grad u / u^2.

    Its trace integrates (against u^2 dmu) to the energy F exactly at the
    discrete level: the Hessian trace telescopes to the Laplacian and the
    outer-product trace matches the gradient quadratic form by construction.
    """
    if np.min(u.values) <= 0.0:
        raise PositivityLoss("density must be positive in the variation tensor")
    Ric = ricci(m)
    H = hessian(m, u)
    P = grad_outer(m, u)
    uv = u.values
    comps = Ric.comps - 2.0 * H.comps / uv + 2.0 * P.comps / uv**2
    return SymTensorField(m.backend, comps)


def matrix_quantity_f_form(m: MetricState, f: ScalarField) -> SymTensorField:
    """Same tensor written as Ric + Hess(f) with f = -2 ln u.

    Discretely this differs from :func:`matrix_quantity` by O(h^2)
    chain-rule error; it exists as an independent cross-check of the
    algebraic identity -2 Hess(u)/u + 2 grad u (x) grad u / u^2 = Hess(f).
    """
    Ric = ricci(m)
    H = hessian(m, f)
    return SymTensorField(m.backend, Ric.comps + H.comps)


def _deviation_rate(m: MetricState, u: ScalarField, T: SymTensorField,
                    g: SymTensorField, w: float, c: float) -> float:
    """(n/(4w)) integral(|T - c g|^2 u^2 dmu)."""
    n = dim(m.backend)
    dev = SymTensorField(m.backend, T.comps - c * g.comps)
    norm_sq = tensor_norm_sq(m, dev)
    val = integrate(m, scalar_field(m, norm_sq.values * u.values**2))
    return n / (4.0 * w) * val


def rate_forms(m: MetricState, u: ScalarField, T: SymTensorField, F: float,
               a: float) -> tuple[float, float]:
    """Split and combined rates from a given variation tensor T and energy F.

    T must be :func:`matrix_quantity` of (m, u) and F the energy
    :func:`f_functional` of (m, u); omega = a + F/4.  The two forms are two
    separate deviation integrals over the same tensor and quadrature.
    """
    n = dim(m.backend)
    w = omega(F, a)
    g = metric_tensor(m)
    split = _deviation_rate(m, u, T, g, w, (4.0 * w - 4.0 * a) / n)
    combined = _deviation_rate(m, u, T, g, w, 4.0 * w / n)
    return split + 4.0 * a * a / w, combined


def rhs_split(m: MetricState, u: ScalarField, a: float) -> float:
    """Split-form rate: deviation from the (4(omega-a)/n) g multiple plus the
    adjustment term 4 a^2 / omega.  Vanishes exactly on a gradient shrinking
    soliton with a = 0; strictly positive whenever a != 0."""
    return rate_forms(m, u, matrix_quantity(m, u), f_functional(m, u), a)[0]


def rhs_combined(m: MetricState, u: ScalarField, a: float) -> float:
    """Combined-form rate: single squared deviation from the (4 omega/n) g
    multiple.  Algebraically equal to :func:`rhs_split` when the density has
    unit mass."""
    return rate_forms(m, u, matrix_quantity(m, u), f_functional(m, u), a)[1]


# --------------------------------------------------------------------------
# Finite-difference time derivative
# --------------------------------------------------------------------------

def fd_time_derivative(series, dt: float) -> np.ndarray:
    """Derivative of a uniformly sampled series.

    Interior points: fourth-order central stencils (five-point; the two
    near-edge interior points use the offset five-point stencils).  The two
    endpoints use one-sided second-order stencils; callers exclude them from
    acceptance comparisons.  Series of length 3 or 4 fall back to
    second-order central differences throughout.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise TooFewSamples("need at least 3 uniformly spaced samples")
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    d = np.empty_like(y)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    if y.size < 5:
        d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
        return d
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dt)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * dt)
    d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (
        12.0 * dt
    )
    return d


# --------------------------------------------------------------------------
# Verification reports
# --------------------------------------------------------------------------

@dataclass
class VariationReport:
    """Time series of derivative checks; endpoint entries are flagged via
    ``interior`` and excluded from the summary maxima."""

    times: np.ndarray
    dS_dt_fd: np.ndarray
    F: np.ndarray
    dF_dt_fd: np.ndarray
    dF_rhs: np.ndarray
    res_dS: np.ndarray
    res_dF: np.ndarray
    interior: np.ndarray

    @property
    def max_interior_res_dS(self) -> float:
        return float(np.max(self.res_dS[self.interior]))

    @property
    def max_interior_res_dF(self) -> float:
        return float(np.max(self.res_dF[self.interior]))


def proof_chain_check(
    times, S_series, F_series, dF_rhs_series, dt: float
) -> VariationReport:
    """Check dS/dt = F and dF/dt = 2 integral(|T|^2 u^2 dmu) pointwise.

    Both derivatives come from the stored series via finite differences;
    the right-hand sides are the snapshot evaluations passed in.
    """
    times = np.asarray(times, dtype=float)
    S = np.asarray(S_series, dtype=float)
    F = np.asarray(F_series, dtype=float)
    dF_rhs = np.asarray(dF_rhs_series, dtype=float)
    dS_fd = fd_time_derivative(S, dt)
    dF_fd = fd_time_derivative(F, dt)
    interior = np.ones(times.shape, dtype=bool)
    interior[0] = interior[-1] = False
    return VariationReport(
        times=times,
        dS_dt_fd=dS_fd,
        F=F,
        dF_dt_fd=dF_fd,
        dF_rhs=dF_rhs,
        res_dS=np.abs(dS_fd - F),
        res_dF=np.abs(dF_fd - dF_rhs),
        interior=interior,
    )


def equivalence_check(
    rhs_split_vals,
    rhs_combined_vals,
    sub_lhs,
    sub_rhs,
    tol_equiv: float = 1e-8,
    tol_sub: float = SUB_IDENTITY_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row pass flags (main_ok, sub_ok) for the two-form equivalence.

    ``main_ok`` holds where |split - combined| <= tol_equiv * max(1, |split|);
    it exercises the algebra that the trace of the variation tensor
    integrates to F.  ``sub_ok`` holds where the integration-by-parts
    sub-identity integral(Lap f e^{-f}) = integral(|grad f|^2 e^{-f})
    (values supplied per row) holds at tol_sub under the same normalization;
    it isolates that ingredient, whose discrete chain-rule floor can exceed
    tol_sub on coarse grids while the main check passes, so the two flags
    are reported apart.
    """
    rt = np.asarray(rhs_split_vals, dtype=float)
    ry = np.asarray(rhs_combined_vals, dtype=float)
    sl = np.asarray(sub_lhs, dtype=float)
    sr = np.asarray(sub_rhs, dtype=float)
    main_ok = np.abs(rt - ry) <= tol_equiv * np.maximum(1.0, np.abs(rt))
    sub_ok = np.abs(sl - sr) <= tol_sub * np.maximum(1.0, np.abs(sl))
    return main_ok, sub_ok


def monotonicity_check(Y_series, tol: float = 1e-6) -> np.ndarray:
    """Indices k where Y drops: Y[k+1] < Y[k] - tol."""
    y = np.asarray(Y_series, dtype=float)
    drops = y[1:] < y[:-1] - tol
    return np.nonzero(drops)[0]
