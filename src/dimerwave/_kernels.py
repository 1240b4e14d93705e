"""Hot time-stepping kernels for the lattice integrator.

Both code paths advance the relative-displacement system

    r_ddot_j = s_{j+1} + s_{j-1} - 2 s_j,   s_j = F_parity(j)(r_j)

with the classical 4th-order one-step method on a periodic ring.  The numpy
path builds the per-site spring law of ``model.spring_law`` once per call
(per-site ``lin``/``quad`` arrays and zero-padded cubic-remainder rows, so
every site runs one formula) and writes the forces into the middle of a
``J + 2`` buffer whose two ends are copied from the opposite edges; the
periodic Laplacian is then a sum of three slices of that buffer.  The
compiled kernels mirror the force laws and are used whenever numba imports,
producing the same trajectories to rounding.  ``benchmarks/bench_kernels.py``
times the paths in ns per site-step.
"""

import numpy as np

from .model import DimerParams, spring_law

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False


# -- pure-numpy path --------------------------------------------------------------


def _accel(r, law, s):
    """r_ddot of ``law`` at ``r``, with ``s`` the ``len(r) + 2`` force buffer."""
    s[1:-1] = law.force(r)
    s[0], s[-1] = s[-2], s[1]
    return s[2:] + s[:-2] - 2 * s[1:-1]


def accel_numpy(r, odd, params: DimerParams):
    """Right-hand side r_ddot: stiff law on odd sites, soft law on even ones."""
    return _accel(r, spring_law(params, odd), np.empty(len(r) + 2))


def rk4_steps_numpy(r, v, dt, steps, odd, params: DimerParams):
    r, v = r.copy(), v.copy()
    law = spring_law(params, odd)
    s = np.empty(len(r) + 2)

    def a_of(x):
        return _accel(x, law, s)

    for _ in range(steps):
        a1 = a_of(r)
        v2 = v + (0.5 * dt) * a1
        a2 = a_of(r + (0.5 * dt) * v)
        v3 = v + (0.5 * dt) * a2
        a3 = a_of(r + (0.5 * dt) * v2)
        v4 = v + dt * a3
        a4 = a_of(r + dt * v3)
        r = r + (dt / 6) * (v + 2 * v2 + 2 * v3 + v4)
        v = v + (dt / 6) * (a1 + 2 * a2 + 2 * a3 + a4)
    return r, v


# -- compiled path ----------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def _accel_numba(r, odd, kappa, beta, n1, n2, out):
        J = r.shape[0]
        s = np.empty(J)
        for j in range(J):
            x = r[j]
            if odd[j]:
                f = kappa * x + beta * x * x
                if n1.shape[0]:
                    p = 0.0
                    for i in range(n1.shape[0] - 1, -1, -1):
                        p = p * x + n1[i]
                    f += x * x * x * p
            else:
                f = x + x * x
                if n2.shape[0]:
                    p = 0.0
                    for i in range(n2.shape[0] - 1, -1, -1):
                        p = p * x + n2[i]
                    f += x * x * x * p
            s[j] = f
        for j in range(J):
            out[j] = s[(j + 1) % J] + s[(j - 1) % J] - 2 * s[j]

    @njit(cache=True)
    def rk4_steps_numba(r, v, dt, steps, odd, kappa, beta, n1, n2):
        r, v = r.copy(), v.copy()
        J = r.shape[0]
        a1 = np.empty(J)
        a2 = np.empty(J)
        a3 = np.empty(J)
        a4 = np.empty(J)
        scratch = np.empty(J)
        for _ in range(steps):
            _accel_numba(r, odd, kappa, beta, n1, n2, a1)
            for j in range(J):
                scratch[j] = r[j] + 0.5 * dt * v[j]
            _accel_numba(scratch, odd, kappa, beta, n1, n2, a2)
            for j in range(J):
                scratch[j] = r[j] + 0.5 * dt * (v[j] + 0.5 * dt * a1[j])
            _accel_numba(scratch, odd, kappa, beta, n1, n2, a3)
            for j in range(J):
                scratch[j] = r[j] + dt * (v[j] + 0.5 * dt * a2[j])
            _accel_numba(scratch, odd, kappa, beta, n1, n2, a4)
            for j in range(J):
                v2 = v[j] + 0.5 * dt * a1[j]
                v3 = v[j] + 0.5 * dt * a2[j]
                v4 = v[j] + dt * a3[j]
                r[j] = r[j] + (dt / 6) * (v[j] + 2 * v2 + 2 * v3 + v4)
                v[j] = v[j] + (dt / 6) * (a1[j] + 2 * a2[j] + 2 * a3[j] + a4[j])
        return r, v


def rk4_steps(r, v, dt, steps, odd, kappa, beta, n1, n2, compiled=None):
    """Advance ``steps`` RK4 steps.

    The compiled kernel runs whenever numba imports; ``compiled=False``
    forces the numpy path (``True`` without numba also falls back to it).
    """
    if HAS_NUMBA and compiled is not False:
        return rk4_steps_numba(
            r.astype(np.float64), v.astype(np.float64), float(dt), int(steps),
            odd, float(kappa), float(beta),
            np.asarray(n1, dtype=np.float64), np.asarray(n2, dtype=np.float64),
        )
    return rk4_steps_numpy(r, v, dt, steps, odd, DimerParams(kappa, beta, n1, n2))
