"""Cross-check forms used only by the tests.

Each helper is an independent way of writing a quantity that the package
computes another way: the potential-variable forms of the energy and the
variation tensor, the pointwise g-trace and gradient inner product of the
typed fields, and the flow velocity of a state.
"""

import riccilab as rl


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
