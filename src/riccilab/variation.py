"""First-variation rates of the adjusted log entropy and their verification.

Two closed-form expressions for d/dt of the log entropy are evaluated on
each (metric, density) snapshot:

* split form      (n/(4 omega)) integral(|T - (4(omega - a)/n) g|^2 u^2)
                  + 4 a^2 / omega
* combined form   (n/(4 omega)) integral(|T - (4 omega / n) g|^2 u^2)

with T = Ric - 2 Hess(u)/u + 2 grad u (x) grad u / u^2 (equivalently
Ric + Hess(f) for f = -2 ln u).  Both rates come from T and the energy F of
the snapshot, computed once: two separate deviation integrals over the same
tensor and the same quadrature, so their algebraic equivalence is tested
free of independent discretization noise.  They are not merged into one
integral by expanding the squares.  Since 4(omega - a) = F, the subtracted
multiple in the split form equals (F/n) g.  ``rhs_split`` and
``rhs_combined`` return one rate each of a single state.

The row kernel ``row_values`` evaluates a block of rows as one stack: F, S,
T, dF_rhs, the sub-identity integrals and, for each adjustment value,
omega, Y and both rates, over the (K, ...) arrays of a
``geometry.MetricStack``.  u**2, the differences of u and the c-free part
of |T - c g|^2 (``cross_sq``) are built once per block and passed to
``_energy``, ``_variation_tensor`` and the rates, each entry keeping its
operations in order; c g is subtracted on its diagonal only.  Each
block-sized field is released after its last reader, in this order: f =
-ln v and its four differences, once the sub-identity sides have read
them, before u exists; u's four differences, once F and the outer product
grad u (x) grad u have read them, before the Hessian; u and the outer
product, once T is built in the Hessian's own output; u**2, T and
cross_sq(T) last, after the rates (``geometry.CHUNK_CELLS``'s comment
counts the fields a block then holds at once).  The per-state functions
(``matrix_quantity``, ``rhs_split``, ``rhs_combined``, and
``f_functional``, ``shannon_entropy`` and ``log_entropy`` in
``functionals``) are the same stacked code on a stack of one, so each row
of a block is bitwise what they return for that row.  The kernel evaluates
every row it is given and checks none; ``row_failure`` checks a run's
filled table once.

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

from .errors import (
    BlowUp,
    NumericalError,
    PositivityLoss,
    TooFewSamples,
)
from .geometry import MetricState, ScalarField
from .functionals import _energy, _entropy, f_functional, log_entropy_value, omega

__all__ = [
    "a_tag",
    "matrix_quantity",
    "row_values",
    "row_failure",
    "RowValues",
    "rhs_split",
    "rhs_combined",
    "fd_time_derivative",
    "proof_chain_check",
    "equivalence_check",
    "monotonicity_check",
    "VariationReport",
]

SUB_IDENTITY_TOL = 1e-9   # relative bound on the integration-by-parts sub-identity


def a_tag(a: float) -> str:
    """The tag of adjustment value ``a`` in column names, summary keys and
    messages; values equal to 6 significant digits share one."""
    return format(a, "g")


# --------------------------------------------------------------------------
# The variation tensor and the two rate forms
# --------------------------------------------------------------------------

def _variation_tensor(g, u, u2, outer):
    """T = Ric - 2.0 * Hess(u) / u + 2.0 * outer / u**2 of each row of g and
    densities u, from u**2 and outer = g.grad_outer(g.differences(u)).

    T is built in the Hessian's own output, entry by entry in that order, and
    outer is scaled in place: no tensor-sized temporary, and outer's values
    are consumed."""
    ue, ue2 = np.expand_dims(u, g.comp_axis), np.expand_dims(u2, g.comp_axis)
    T = g.hessian(u)
    T *= 2.0
    T /= ue
    np.subtract(g.ricci, T, out=T)
    outer *= 2.0
    outer /= ue2
    T += outer
    return T


def _deviation_rate(g, u2, T, cross, w, c):
    """(n/(4w)) integral(|T - c g|^2 u^2 dmu) of each row from u2 = u**2 and
    cross = g.cross_sq(T); w and c hold one value per row."""
    c = np.reshape(c, np.shape(c) + (1,) * (np.ndim(u2) - np.ndim(c)))
    val = g.integrate(g.tensor_norm_sq(T, cross, c) * u2)
    return g.n / (4.0 * w) * val


def _rate_forms(g, u2, T, cross, w, a):
    """Split and combined rates of each row at one adjustment value a, from
    the row's omega w = a + F/4 > 0 (u2, cross: see ``_deviation_rate``)."""
    split = _deviation_rate(g, u2, T, cross, w, (4.0 * w - 4.0 * a) / g.n)
    combined = _deviation_rate(g, u2, T, cross, w, 4.0 * w / g.n)
    return split + 4.0 * a * a / w, combined


def matrix_quantity(m: MetricState, u: ScalarField) -> np.ndarray:
    """Tensor Ric - 2 Hess(u)/u + 2 grad u (x) grad u / u^2, as the stack's
    tensor array: (T11, T12, T22) on axis -3 on the torus, the principal
    values on the spheres.

    Its trace integrates (against u^2 dmu) to the energy F exactly at the
    discrete level: the Hessian trace telescopes to the Laplacian and the
    outer-product trace matches the gradient quadratic form by construction.
    """
    if np.min(u.values) <= 0.0:
        raise PositivityLoss("density must be positive in the variation tensor")
    g, w = m.stack, u.values
    return _variation_tensor(g, w, w**2, g.grad_outer(g.differences(w)))


def _state_rates(m: MetricState, u: ScalarField,
                 a: float) -> tuple[float, float]:
    """Split and combined rates of one state: T, F and omega = a + F/4 (which
    raises when not positive), then the kernel's two deviation integrals over
    that one tensor and quadrature."""
    T, g = matrix_quantity(m, u), m.stack
    w = omega(f_functional(m, u), a)
    split, combined = _rate_forms(g, u.values**2, T, g.cross_sq(T), w, a)
    return float(split), float(combined)


def rhs_split(m: MetricState, u: ScalarField, a: float) -> float:
    """Split-form rate: deviation from the (4(omega-a)/n) g multiple plus the
    adjustment term 4 a^2 / omega.  Vanishes exactly on a gradient shrinking
    soliton with a = 0; strictly positive whenever a != 0."""
    return _state_rates(m, u, a)[0]


def rhs_combined(m: MetricState, u: ScalarField, a: float) -> float:
    """Combined-form rate: single squared deviation from the (4 omega/n) g
    multiple.  Algebraically equal to :func:`rhs_split` when the density has
    unit mass."""
    return _state_rates(m, u, a)[1]


# --------------------------------------------------------------------------
# The row kernel
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RowValues:
    """Row-kernel results for every row of a block.

    F, S, dF_rhs, sub_lhs and sub_rhs have one entry per row; om, Y,
    rhs_split and rhs_combined are (rows, len(a_values)) arrays, column j
    for a_values[j].  Y is nan where omega is not positive; a row's values
    are meaningful only if ``row_failure`` passes it.
    """

    F: np.ndarray
    S: np.ndarray
    dF_rhs: np.ndarray
    sub_lhs: np.ndarray
    sub_rhs: np.ndarray
    om: np.ndarray
    Y: np.ndarray
    rhs_split: np.ndarray
    rhs_combined: np.ndarray


def row_values(g, v, times, a_values) -> RowValues:
    """Every per-row functional and rate of a block of rows, as one stack.

    g is the ``MetricStack`` of the rows' metrics, v their densities (one
    field per row, as the heat solve hands them over: finite and above
    ``heat.POSITIVITY_FLOOR``) and times their times.  F, S, the variation
    tensor T, the sub-identity sides integral(Lap f e^{-f}) and
    integral(|grad f|^2 e^{-f}) and omega come from one pass over the block;
    dF_rhs = 2 integral(|T|^2 u^2) and, for each adjustment value, Y and
    both rate forms then reuse them.  Every row is evaluated and nothing is
    checked here: Y takes the logarithm of the positive omegas only (nan
    elsewhere), and Y and the rates are formed with numpy's floating-point
    warnings off, so a row that fails ``row_failure`` costs only its values.
    """
    # Each field goes after its last reader (see the module docstring).
    f = np.log(v)
    np.negative(f, out=f)
    sub_lhs = g.integrate(g.laplace_beltrami(f) * v)
    df = g.differences(f)
    del f
    sub_rhs = g.integrate(g.gradient_inner(df, df) * v)
    del df
    u = np.sqrt(v)
    u2, du = u**2, g.differences(u)
    F = _energy(g, u2, du)
    S = _entropy(g, u2)
    outer = g.grad_outer(du)
    del du
    T = _variation_tensor(g, u, u2, outer)
    del u, outer
    a = np.asarray(a_values, dtype=float)
    om = a + F[:, None] / 4.0
    cross = g.cross_sq(T)
    dF_rhs = 2.0 * g.integrate(g.tensor_norm_sq(T, cross) * u2)
    with np.errstate(all="ignore"):  # checked by row_failure instead
        Y = log_entropy_value(S[:, None], np.where(om > 0.0, om, np.nan),
                              g.n, a, times[:, None])
        rates = np.empty((2,) + om.shape)
        for j, aj in enumerate(a_values):
            rates[:, :, j] = _rate_forms(g, u2, T, cross, om[:, j], aj)
    return RowValues(F, S, dF_rhs, sub_lhs, sub_rhs, om, Y, *rates)


# The columns a row's finiteness check names, for each a, in data.csv's order.
_ROW_COLUMNS = ("Y", "omega", "rhs_thm", "rhs_ye")


def _raised(fn, *args) -> NumericalError:
    """The NumericalError that fn(*args) raises."""
    try:
        fn(*args)
    except NumericalError as exc:
        return exc
    raise AssertionError(f"{fn.__name__}{args} raised nothing")


def row_failure(ground, F, a_series, times, a_values
                ) -> tuple[int, NumericalError | None]:
    """The lowest failing row of a table of rows and its error, or
    (rows, None) when every row passes.

    ground is the rows' ``GroundStates``, F their energies and a_series the
    (4, rows, len(a_values)) stack of Y, omega, rhs_split and rhs_combined,
    data.csv's order for each a.  A row fails on three checks, in this
    order: its lambda0 did not converge (the ``NoConvergence`` of
    ``ground.value``); omega not positive for some a (what ``omega`` raises
    at its first such a); its Y, omega or either rate is not finite (BlowUp naming
    its first such column and a).
    """
    cols = np.moveaxis(a_series, 0, -1)  # (rows, a, column)
    finite = np.isfinite(cols)
    fails = np.stack([~ground.converged,
                      ~np.all(a_series[1] > 0.0, axis=1),
                      ~np.all(finite, axis=(1, 2))], axis=1)
    k, check = divmod(int(fails.argmax()), 3)
    if not fails[k, check]:
        return len(F), None
    if check == 0:
        return k, _raised(ground.value, k)
    if check == 1:
        j = int(np.argmin(a_series[1, k] > 0.0))
        return k, _raised(omega, float(F[k]), a_values[j])
    j, c = np.unravel_index(np.argmin(finite[k]), finite[k].shape)
    tag = a_tag(a_values[j])
    return k, BlowUp(f"{_ROW_COLUMNS[c]}[{tag}] = {cols[k, j, c]:g} is not "
                     f"finite at t={times[k]:g} (a={tag})")


# --------------------------------------------------------------------------
# Finite-difference time derivative
# --------------------------------------------------------------------------

def fd_time_derivative(series, dt: float) -> np.ndarray:
    """Derivative of a uniformly sampled series along axis 0.

    A 2-D ``(rows, k)`` input holds k series, one per column, and gets the
    same stencils as k separate 1-D calls.  Interior points: fourth-order
    central stencils (five-point; the two near-edge interior points use the
    offset five-point stencils).  The two endpoints use one-sided
    second-order stencils; callers exclude them from acceptance comparisons.
    Series of length 3 or 4 fall back to second-order central differences
    throughout; fewer than 3 rows raise TooFewSamples.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim == 0 or len(y) < 3:
        raise TooFewSamples("need at least 3 uniformly spaced samples")
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    d = np.empty_like(y)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    if len(y) < 5:
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
    ``interior`` and excluded from the summary maxima.  The checked series
    themselves (times, S, F, dF_rhs) stay with the caller."""

    dS_dt_fd: np.ndarray
    dF_dt_fd: np.ndarray
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
    F = np.asarray(F_series, dtype=float)
    dF_rhs = np.asarray(dF_rhs_series, dtype=float)
    dS_fd = fd_time_derivative(S_series, dt)
    dF_fd = fd_time_derivative(F, dt)
    interior = np.ones(np.shape(times), dtype=bool)
    interior[0] = interior[-1] = False
    return VariationReport(
        dS_dt_fd=dS_fd,
        dF_dt_fd=dF_fd,
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row flags and residuals (main_ok, sub_ok, main_res, sub_res).

    ``main_ok`` holds where |split - combined| <= tol_equiv * max(1, |split|);
    it exercises the algebra that the trace of the variation tensor
    integrates to F.  ``sub_ok`` holds where the integration-by-parts
    sub-identity integral(Lap f e^{-f}) = integral(|grad f|^2 e^{-f})
    (values supplied per row) holds at ``SUB_IDENTITY_TOL`` under the same
    normalization; it isolates that ingredient, whose discrete chain-rule
    floor can exceed that bound on coarse grids while the main check passes,
    so the two flags are reported apart.  Each residual is the |d| / max(1,
    |s|) its flag bounds in the product form |d| <= tol * max(1, |s|).
    """
    rt, ry, sl, sr = (np.asarray(x, dtype=float) for x in
                      (rhs_split_vals, rhs_combined_vals, sub_lhs, sub_rhs))
    main_d, main_s = np.abs(rt - ry), np.maximum(1.0, np.abs(rt))
    sub_d, sub_s = np.abs(sl - sr), np.maximum(1.0, np.abs(sl))
    with np.errstate(over="ignore"):  # a bound past the float range is inf
        main_ok = main_d <= tol_equiv * main_s
    return (main_ok, sub_d <= SUB_IDENTITY_TOL * sub_s, main_d / main_s,
            sub_d / sub_s)


def monotonicity_check(Y_series, tol: float = 1e-6) -> np.ndarray:
    """Indices k where Y drops: Y[k+1] < Y[k] - tol."""
    y = np.asarray(Y_series, dtype=float)
    drops = y[1:] < y[:-1] - tol
    return np.nonzero(drops)[0]
