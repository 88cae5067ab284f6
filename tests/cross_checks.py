"""Cross-check forms used only by the tests.

Each helper is an independent way of writing a quantity that the package
computes another way: the potential-variable forms of the energy and the
variation tensor, the pointwise g-trace and gradient inner product of the
typed fields, the flow velocity of a state, and the flow integrated on
numpy arrays.
"""

import numpy as np

import riccilab as rl
from riccilab.flow import PARAM_FLOOR


def gradient_inner(m, w, z):
    """Pointwise gradient inner product <grad w, grad z>_g (the quadratic
    form of ``rl.gradient_sq``)."""
    zv = w.values if z is w else z.values
    return rl.scalar_field(m, m.stack.gradient_inner(w.values, zv))


def tensor_trace(m, T):
    """Pointwise g-trace g^{ij} T_ij: e^{-2 phi} (T11 + T22) on the torus, the
    sum of the principal values on homogeneous backends."""
    if isinstance(m.backend, rl.ConformalTorus2D):
        return rl.scalar_field(m, m.stack.lap_factor * (T.comps[0] + T.comps[2]))
    return rl.scalar_field(m, T.comps.sum(axis=-1))


def ricci_flow_rhs(m):
    """Velocity of dg/dt = -2 Ric in the state's backend parameters."""
    return m.backend.velocity(m.params)


def integrate_forward_arrays(m0, T, dt):
    """``rl.integrate_forward`` stepped on numpy parameter arrays: RK4 in the
    array form p + (dt / 6)(k1 + 2 k2 + 2 k3 + k4) of the raw-array
    ``velocity``, with the same state checks, errors and messages.  Returns
    the parameters of every state and the largest dt / stability_dt."""
    b = m0.backend
    torus = isinstance(b, rl.ConformalTorus2D)
    K = int(round(T / dt))
    times = m0.t + dt * np.arange(K + 1)
    out = np.empty((K + 1,) + m0.params.shape)
    p, ratio = m0.params.copy(), 0.0
    for k in range(K + 1):
        if not np.isfinite(p).all():
            raise rl.BlowUp("metric parameters became non-finite")
        scale = np.exp(2.0 * p.min()) if torus else p.min()
        if scale < PARAM_FLOOR:
            what = "conformal factor" if torus else "metric scale parameter"
            raise rl.BlowUp(f"{what} fell below floor")
        out[k] = p
        if k == K:
            return out, ratio
        bound = b.stability_dt(scale)
        if dt > bound * (1 + 1e-12):
            raise rl.StepTooLarge(
                f"dt={dt:g} exceeds the stability bound at t={times[k]:g}")
        ratio = max(ratio, dt / bound)
        k1 = b.velocity(p)
        k2 = b.velocity(p + 0.5 * dt * k1)
        k3 = b.velocity(p + 0.5 * dt * k2)
        k4 = b.velocity(p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def f_functional_f_form(m, f, v):
    """The energy in the potential variable: integral((R + |grad f|^2) e^{-f}),
    with e^{-f} supplied as the density v.  Agrees with ``rl.f_functional``
    up to O(h^2) chain-rule error."""
    g = m.stack
    return float(g.integrate((g.R + g.gradient_inner(f.values, f.values)) * v.values))


def matrix_quantity_f_form(m, f):
    """The variation tensor written as Ric + Hess(f) with f = -2 ln u.

    Discretely this differs from ``rl.matrix_quantity`` by O(h^2) chain-rule
    error; it cross-checks the identity
    -2 Hess(u)/u + 2 grad u (x) grad u / u^2 = Hess(f).
    """
    g = m.stack
    return rl.SymTensorField(m.backend, g.ricci + g.hessian(f.values))
