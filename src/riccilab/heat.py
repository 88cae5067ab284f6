"""Density evolution coupled to the flow: the backward solve and terminal data.

The density equation du/dt = -Lap u - |grad u|^2/u + (R/2) u is a backward
heat equation; it is solved here in the well-posed direction.  In the
variable v = u^2 the equation reads dv/dt = -Lap_g v + R v, and with
tau = T - t it becomes the forward heat-type equation

    dv/dtau = Lap_{g(T - tau)} v - R v,

integrated by RK4 from a positive terminal datum normalized at t = T.
Solving in v removes the |grad u|^2 / u singularity risk and makes mass
conservation a linear statement: sum over nodes of (Lap0 v) vanishes
identically on the periodic grid, so the semi-discrete mass
integral(v dmu_{g(t)}) is exactly conserved and the recorded drift is pure
time-integration error.

The right-hand side Lap_g v - R v uses the geometry operators.  The RK4
stages need metrics at half-step times, so the solver steps at twice the
trajectory spacing, the row step: each step is one ``geometry.rk4_step``
(written out on floats by ``_float_steps`` on the spheres), and in the
step from snapshot i the stage s half steps in reads snapshot i - s.  No
interpolation enters the solve: interpolated stage metrics would inject an
O(dt^2) mass drift, to which the two-form equivalence residual is directly
sensitive.  The mass is measured at every row but never renormalized.

One RK4 loop serves two callers.  ``stream_backward`` hands the rows over
top-down, in the near-equal chunks of ``parallel.density_chunks`` stepped
into reused buffers: in turn into each of the caller's ``out`` arrays
(``harness.evaluate_tables`` passes two of its row pool's shared arrays, so
the pool's worker reads one chunk's rows while the solve steps the next
into the other), else into one of at most ``parallel.CHUNK_CELLS`` cells;
``solve_backward`` is the same loop with one chunk of every row.  Either
way a row's bits are the same.

One stack per block.  A chunk is stepped and checked in the row blocks of
``parallel.row_slices``, top block first.  A block of rows lo ... hi - 1
takes one slice of the trajectory's stack (``Trajectory.stack``), its
snapshots 2 lo ... 2 hi (2 M at the run's top row M), so the snapshot
geometry -- R and the Laplace-Beltrami factor -- is built once per
snapshot, not once per RK4 stage.  The steps
read R per row as ``backend.rows`` gives it (Python floats on the spheres,
grids on the torus, either way bitwise alike), one step and one store a
row, with numpy's floating-point warnings off.
Then ``_check_rows`` checks the block's rows in one vectorised pass on the
stack of the rows' own snapshots 2 lo, 2 lo + 2, ..., 2 hi - 2: every
row's mass ``quadrature(v * weight)`` under its snapshot's volume weight
(the same products and contiguous row sums as the row alone) and its
positivity (``geometry._finite_min`` above ``POSITIVITY_FLOOR``, nan for a
row that is not finite).  The first failing event top-down is raised, a
row's positivity before its mass.  A chunk is handed over only when every
block of it passes, so the chunks above a failing row have been handed
over and the failing row's chunk is not; the steps past the failing row
(at most the rest of its block) print nothing.
A density is a ``ScalarField`` of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, parallel
from .errors import MassDrift, NonPositive, PositivityLoss
from .flow import Trajectory
from .geometry import (
    ConformalTorus2D,
    MetricState,
    ScalarField,
    _pow,
    grid_coords,
    integrate,
    scalar_field,
    volume,
)

__all__ = [
    "DensityHistory",
    "terminal_datum",
    "bump_terms",
    "check_datum",
    "change_variables",
    "stream_backward",
    "solve_backward",
]

POSITIVITY_FLOOR = 1e-10
DATUM_KINDS = ("constant", "bump", "random_smooth")


@dataclass(frozen=True, eq=False)
class DensityHistory:
    """Density fields of consecutive rows, indexed by increasing time.

    ``v[k]`` holds v at ``times[k]``, the row ``first + k`` of the
    trajectory's row grid.
    ``masses[k]`` records integral(v dmu) at ``times[k]`` as measured, for
    drift diagnostics; the fields are never renormalized.  A whole history
    starts at row 0; a chunk of ``stream_backward`` starts at ``first``.
    """

    backend: object
    times: np.ndarray
    v: np.ndarray
    masses: np.ndarray
    first: int = 0


# --------------------------------------------------------------------------
# Terminal data
# --------------------------------------------------------------------------

def _normalized(m_T: MetricState, raw: np.ndarray, what: str) -> ScalarField:
    """raw / integral(raw dmu); NonPositive naming ``what``, and no numpy
    warning, when the quotient is not finite."""
    fld = scalar_field(m_T, raw)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mass = integrate(m_T, fld)
        values = fld.values / mass
    if not np.isfinite(values).all():
        raise NonPositive(f"{what} makes the normalized datum non-finite "
                          f"(mass {float(mass):g})")
    return scalar_field(m_T, values)


def _fourier_modes(seed: int, mode_cutoff: int):
    """(kx, ky, a_k, b_k, decay) of the random_smooth series: a fixed
    (kx, ky) order over a half-plane, so no mode appears twice, and the
    coefficients drawn in that order."""
    ks = [(kx, ky) for kx in range(0, mode_cutoff + 1)
          for ky in range(1 if kx == 0 else -mode_cutoff, mode_cutoff + 1)]
    coeffs = np.random.default_rng(seed).standard_normal((len(ks), 2)).tolist()
    return [(kx, ky, a_k, b_k, 1.0 / (1.0 + kx * kx + ky * ky))
            for (kx, ky), (a_k, b_k) in zip(ks, coeffs)]


def terminal_datum(
    kind: str,
    m_T: MetricState,
    *,
    amplitude: float = 0.5,
    seed: int = 0,
    mode_cutoff: int = 2,
    center: tuple[float, float] | None = None,
    width: float | None = None,
) -> ScalarField:
    """Positive density normalized against the terminal metric.

    kinds: ``constant``; ``bump`` (constant plus a periodic Gaussian-like
    profile of the given amplitude, center and width); ``random_smooth``
    (truncated random Fourier series with coefficients decaying like
    1/(1+|k|^2), scaled by amplitude, exponentiated, normalized).  The
    random coefficients are drawn in a fixed mode order independent of the
    grid size, so one seed describes one continuum datum across
    resolutions.  Homogeneous backends carry single-value fields, so every
    kind degenerates to the constant datum there.  Raises NonPositive for a
    bump that is not positive on every node and for a datum whose
    normalized values are not finite (an overflowing random series), and
    ValueError for a bump whose ``bump_terms`` are not finite.
    """
    b = m_T.backend
    if kind not in DATUM_KINDS:
        raise ValueError(f"unknown terminal datum kind {kind!r}")
    if not isinstance(b, ConformalTorus2D) or kind == "constant":
        return _normalized(m_T, np.ones(b.field_shape), "the constant datum")

    if kind == "bump":
        px, py, scale = bump_terms(b, center, width)
        if not (np.isfinite(px).all() and np.isfinite(py).all()
                and scale < math.inf):
            raise ValueError("bump center or width past the float range")
        with np.errstate(over="ignore"):  # an exponent of -inf gives 0
            shape = np.exp(-(np.sin(px) ** 2 + np.sin(py) ** 2) * scale / 2.0)
        raw = 1.0 + amplitude * shape
        if np.min(raw) <= 0.0:
            raise NonPositive(
                f"bump amplitude {amplitude:g} drives the datum non-positive"
            )
        return _normalized(m_T, raw, f"bump amplitude {amplitude:g}")

    x, y = grid_coords(b)
    w = np.zeros((b.N, b.N))
    two_pi = 2.0 * np.pi / b.L
    for kx, ky, a_k, b_k, decay in _fourier_modes(seed, mode_cutoff):
        phase = two_pi * (kx * x + ky * y)
        w = w + decay * (a_k * np.cos(phase) + b_k * np.sin(phase))
    with np.errstate(over="ignore"):
        raw = np.exp(amplitude * w)
    return _normalized(m_T, raw, f"random_smooth amplitude {amplitude:g}")


def bump_terms(b: ConformalTorus2D, center=None, width=None):
    """The bump datum's terms on b's grid nodes: the phases pi (x - cx) / L
    and pi (y - cy) / L and the scale (L / (pi * width))^2, with the centre
    (L/2, L/2) and the width L/8 by default.  A term past the float range is
    not finite, and no numpy warning is printed; ValueError for a width
    that is not positive."""
    x, y = grid_coords(b)
    cx, cy = center if center is not None else (b.L / 2.0, b.L / 2.0)
    bw = width if width is not None else b.L / 8.0
    if not (bw > 0):
        raise ValueError(f"bump width must be positive, got {bw}")
    with np.errstate(over="ignore", invalid="ignore"):
        px, py = np.pi * (x - cx) / b.L, np.pi * (y - cy) / b.L
    return px, py, _pow(b.L / (np.pi * bw), 2)


def check_datum(kind: str, m: MetricState, *, amplitude: float = 0.5,
                seed: int = 0, mode_cutoff: int = 2,
                center: tuple[float, float] | None = None,
                width: float | None = None) -> None:
    """Raise what ``terminal_datum`` raises on m with these settings, and
    NonPositive when the normalized datum's minimum is not above
    ``POSITIVITY_FLOOR``, where the backward solve would fail its first row.

    A bump is built, its positivity and floor checked on the grid nodes.  A
    random series is built only when its coefficient bound cannot decide:
    with |w| <= B = sum of decay * (|a_k| + |b_k|), the normalized datum
    exp(amplitude w) / integral(exp(amplitude w) dmu) is at least
    exp(-2 |amplitude| B) / volume, so that bound above the floor and
    |ln volume| <= 100 keep the datum finite and above the floor, which
    saves the N^2 sines and cosines of every mode on every grid a run or
    study validates (it decides up to amplitude 1.4 to 3.4 for seeds 0 to
    15 on the N = 16 torus with phi amplitude 0.1).  The normalized datum's
    mean is 1/volume, so its minimum is at most that: 1/volume is checked
    against the floor first, for every kind, and is the whole check for the
    constant datum (every kind on the homogeneous backends), which is never
    built.
    """
    constant = kind == "constant" or not isinstance(m.backend, ConformalTorus2D)
    vol = volume(m)
    low = 1.0 / vol
    if not low > POSITIVITY_FLOOR:
        what = "the constant datum" if constant else f"the {kind} datum's mean"
        raise NonPositive(f"{what} 1/volume = {low:g} is below the "
                          f"positivity floor {POSITIVITY_FLOOR:g}")
    if constant:
        return
    if kind == "random_smooth":
        bound = sum((abs(a_k) + abs(b_k)) * decay
                    for _, _, a_k, b_k, decay in _fourier_modes(seed, mode_cutoff))
        if (abs(math.log(vol)) <= 100.0 and math.exp(
                -2.0 * abs(amplitude) * bound) / vol > POSITIVITY_FLOOR):
            return
    low = float(np.min(terminal_datum(
        kind, m, amplitude=amplitude, seed=seed, mode_cutoff=mode_cutoff,
        center=center, width=width).values))
    if not low > POSITIVITY_FLOOR:
        raise NonPositive(
            f"{kind} amplitude {amplitude:g} puts the normalized datum's "
            f"minimum {low:g} below the positivity floor {POSITIVITY_FLOOR:g}")


def change_variables(v: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Return (u, f) with u = sqrt(v) and f = -ln v, so e^{-f} = v."""
    if np.min(v.values) <= 0.0:
        raise PositivityLoss("density must be positive for the change of variables")
    u = ScalarField(v.backend, np.sqrt(v.values))
    f = ScalarField(v.backend, -np.log(v.values))
    return u, f


# --------------------------------------------------------------------------
# Backward solve
# --------------------------------------------------------------------------

def solve_backward(
    traj: Trajectory,
    v_T: ScalarField,
    *,
    step: float | None = None,
    mass_tol: float = 1e-6,
) -> DensityHistory:
    """Solve the density equation backward in t from a terminal datum.

    The solver steps at twice the trajectory spacing, so RK4 stage times
    land exactly on stored snapshots; ``step``, when given, must be that
    step (within 1e-9 relative), else ValueError.  Returns the history
    indexed by increasing t at the solver step spacing: the one chunk of
    every row of the loop ``stream_backward`` runs.  Raises PositivityLoss
    when min v <= 1e-10 (too-large step) and MassDrift when the measured
    mass leaves [1 - mass_tol, 1 + mass_tol]; the history is checked but
    never renormalized.
    """
    row_step = 2.0 * traj.dt
    if step is not None and not abs(float(step) - row_step) <= 1e-9 * row_step:
        raise ValueError(f"solver step {float(step):g} must be {row_step:g}, "
                         f"twice the trajectory spacing {traj.dt:g}")
    (hist,) = stream_backward(traj, v_T, mass_tol=mass_tol, out=[
        np.empty((len(traj.times[::2]),) + v_T.values.shape)])
    return hist


def stream_backward(traj: Trajectory, v_T: ScalarField, *,
                    mass_tol: float = 1e-6, out=None):
    """The backward solve of ``solve_backward``, handed over as it runs.

    Yields ``DensityHistory`` chunks of consecutive rows, top-down, as
    ``parallel.density_chunks`` cuts them: the first holds the terminal row
    and the rows just below it, each chunk's ``first`` is its lowest row,
    and chunk lengths differ by at most one.  Given ``out``, a sequence of
    arrays of one density a row, all of one length, each chunk holds at
    most that many rows and chunk k's ``v`` is ``out[k % len(out)][:n]``;
    without it, each chunk holds at most ``parallel.CHUNK_CELLS`` cells (at
    least one row) in a buffer of the solve's own.  Either way a chunk's
    buffer is overwritten by the chunk ``len(out)`` after it (the next one
    without ``out``), which the solve steps once the consumer asks for it:
    a consumer copies what it keeps.  An error
    is raised where ``solve_backward`` raises it: the chunks above the
    failing row have been handed over by then, the failing row in none.
    """
    if v_T.backend != traj.backend:
        raise ValueError("terminal datum and trajectory live on different backends")
    if traj.num_steps % 2 != 0:
        raise ValueError("trajectory length is not divisible by the solver step")
    backend = traj.backend
    times = traj.times[::2].copy()
    M = len(times) - 1
    cap = parallel.CHUNK_CELLS if out is None else out[0].size
    chunks = parallel.density_chunks(M + 1, backend.cells, cap)
    size = chunks[0].stop - chunks[0].start  # the longest chunk's rows
    if out is None:
        out = [np.empty((size,) + v_T.values.shape)]
    m_out = np.empty(size)
    step = 2.0 * traj.dt
    floats = not isinstance(backend, ConformalTorus2D)
    lap0, rows = backend.flat_laplacian, backend.rows

    def rhs(s, w):
        """dv/dtau = Lap_g w - R w at snapshot i1 - s of the block's stack,
        written into lap0(w)'s output."""
        out = lap0(w)
        out *= lap_factor[i1 - s]
        out -= R[i1 - s] * w
        return out

    v = out[0][size - 1] = rows(v_T.values[None])[0]  # the terminal row
    for k, chunk in enumerate(chunks):
        base, v_out = chunk.start, out[k % len(out)]
        with np.errstate(all="ignore"):  # the check reports what overflows
            for block in reversed(parallel.row_slices(base, chunk.stop,
                                                      backend.cells)):
                lo, hi = block.start, block.stop
                # Rows lo ... hi - 1 sit at snapshots 2 lo ... 2 hi - 2, and
                # the step to row hi - 1 reads snapshots 2 hi - 1 and 2 hi.
                g = traj.stack[2 * lo:2 * hi + 1]
                R, stop = rows(g.R), min(hi, M)
                if floats:
                    v = _float_steps(v, R, v_out[lo - base:stop - base], step)
                else:
                    lap_factor = g.lap_factor
                    for r in range(stop - 1, lo - 1, -1):
                        # The tau-step from snapshot i1 reads i1 - 1 and i1 - 2.
                        i1 = 2 * (r + 1 - lo)
                        v = geometry.rk4_step(rhs, v, step)
                        v_out[r - base] = v
                _check_rows(traj.stack[2 * lo:2 * hi:2],
                            times[lo:hi], v_out[lo - base:hi - base],
                            m_out[lo - base:hi - base], mass_tol)
        n = chunk.stop - base
        yield DensityHistory(backend, times[chunk], v_out[:n], m_out[:n], base)


def _float_steps(v, R, out, step):
    """Step the float v down the rows of ``out``, top row first, and return
    the lowest row's v.  R holds the 2 len(out) + 1 snapshots' curvatures,
    row k's at R[2 k]; row k is one RK4 step from row k + 1 (the float v for
    the top row) whose stages read R[2 k + 2], R[2 k + 1], R[2 k + 1] and
    R[2 k].  Each stage rate is 0.0 - R w, ``rhs``'s statements on a sphere
    (its flat Laplacian 0.0 times its factor 0.0), in ``geometry.rk4_step``'s
    operation order."""
    half, sixth = 0.5 * step, step / 6.0
    down = R[::-1]  # one step reads down[2 j], down[2 j + 1] and down[2 j + 2]
    values = []
    for r0, r1, r2 in zip(down[::2], down[1::2], down[2::2]):
        k1 = 0.0 - r0 * v
        k2 = 0.0 - r1 * (v + half * k1)
        k3 = 0.0 - r1 * (v + half * k2)
        k4 = 0.0 - r2 * (v + step * k3)
        v = (k1 + k2 * 2.0 + k3 * 2.0 + k4) * sixth + v
        values.append(v)
    out[::-1] = values
    return v


def _check_rows(g, times, v, masses, mass_tol):
    """Write into ``masses`` each row's integral(v dmu), row k under the
    metric of g's row k, and raise the first failing event top-down, a
    row's positivity (finite and above ``POSITIVITY_FLOOR``) before its
    mass."""
    masses[:] = g.quadrature(v * g.weight)
    # One row per checked row, top-down; one column per event in order.
    fails = np.stack([~(geometry._finite_min(v) > POSITIVITY_FLOOR),
                      np.abs(masses - 1.0) > mass_tol], axis=1)[::-1]
    if fails.any():
        k, event = divmod(int(fails.argmax()), 2)
        t, mass = times[-1 - k], masses[-1 - k]
        if event == 0:  # _finite_min is nan where v is not finite
            raise PositivityLoss(f"density positivity lost at t={t:g}")
        raise MassDrift(f"mass drift {mass - 1.0:+.3e} at t={t:g} "
                        f"exceeds {mass_tol:g}")
