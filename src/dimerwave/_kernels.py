"""Hot time-stepping kernels for the lattice integrator.

Both code paths advance the relative-displacement system

    r_ddot_j = s_{j+1} + s_{j-1} - 2 s_j,   s_j = F_parity(j)(r_j)

with the classical 4th-order one-step method on a periodic ring.  Because the
right-hand side depends on ``r`` alone, classical RK4 on ``(r, v)`` is, exactly,
its Runge-Kutta-Nystrom form (Hairer, Norsett & Wanner, Solving ODEs I,
II.14): with ``f`` the acceleration and ``h`` the step,

    k1 = f(r)
    y  = r + h/2 v,           k2 = f(y)
    k3 = f(y + h**2/4 k1)
    k4 = f(r + h v + h**2/2 k2)
    r <- r + h v + h**2/6 (k1 + k2 + k3)
    v <- v + h/6 (k1 + 2 k2 + 2 k3 + k4)

so no velocity stage is ever formed.  The numpy path builds the per-site
spring law of ``model.spring_law`` once per call (per-site ``lin``/``quad``
arrays and zero-padded cubic-remainder rows, so every site runs one formula),
allocates its stage arrays once per call and writes every stage into them in
place.  Forces go into the middle of a ``J + 2`` buffer whose two ends are
copied from the opposite edges; the periodic Laplacian is then a sum of three
slices of that buffer.  The compiled kernels mirror the force laws and are
used whenever numba imports, producing the same trajectories to rounding.
The ``rk4`` section of ``benchmarks/bench_pipeline.py`` times the paths in ns
per site-step.
"""

import numpy as np

from .model import DimerParams, spring_law

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False


# -- pure-numpy path --------------------------------------------------------------


class _Laplacian:
    """The periodic ring Laplacian of a spring law's forces, in fixed buffers.

    The forces go into the middle of a ``J + 2`` buffer whose ends copy the
    opposite edges, so ``s[2:] + s[:-2] - 2*s[1:-1]`` is the Laplacian.
    """

    def __init__(self, law, r):
        self.law = law
        self.s = np.empty(len(r) + 2, r.dtype)
        self.right, self.mid, self.left = self.s[2:], self.s[1:-1], self.s[:-2]
        self.twice = np.empty_like(r)

    def accel(self, r, out):
        """r_ddot at ``r``, written into ``out``."""
        s, mid = self.s, self.mid
        self.law.force(r, out=mid)
        s[0] = s[-2]
        s[-1] = s[1]
        np.add(self.right, self.left, out=out)
        np.add(mid, mid, out=self.twice)
        return np.subtract(out, self.twice, out=out)


def accel_numpy(r, odd, params: DimerParams):
    """Right-hand side r_ddot: stiff law on odd sites, soft law on even ones."""
    return _Laplacian(spring_law(params, odd), r).accel(r, np.empty_like(r))


def rk4_steps_numpy(r, v, dt, steps, odd, params: DimerParams):
    r, v = r.copy(), v.copy()
    f = _Laplacian(spring_law(params, odd), r).accel
    k1, k2, k3, k4, y, z = (np.empty_like(r) for _ in range(6))
    h, h2 = dt, dt * dt
    for _ in range(steps):
        f(r, k1)
        np.multiply(v, 0.5 * h, out=y)
        y += r                              # y = r + h/2 v
        f(y, k2)
        np.multiply(k1, 0.25 * h2, out=z)
        z += y                              # y + h^2/4 k1
        f(z, k3)
        np.multiply(v, h, out=y)
        y += r                              # y = r + h v
        np.multiply(k2, 0.5 * h2, out=z)
        z += y                              # r + h v + h^2/2 k2
        f(z, k4)
        np.add(k1, k2, out=z)
        z += k3
        z *= h2 / 6
        np.add(y, z, out=r)                 # r + h v + h^2/6 (k1 + k2 + k3)
        np.add(k2, k3, out=z)
        z *= 2
        z += k1
        z += k4
        z *= h / 6
        v += z                              # v + h/6 (k1 + 2 k2 + 2 k3 + k4)
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
