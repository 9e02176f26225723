"""Independent ground-truth routes used by the tests.

Everything here avoids the package's Monte Carlo machinery: covariances by
naive Kronecker-index loops, eigenvalues by characteristic-polynomial
bisection, output-space integrals by deterministic radial quadrature, and a
capacity optimizer driven entirely by the quadrature values.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import minimize, minimize_scalar

_NODES, _WEIGHTS = leggauss(64)


def kron_conditional_covariance(sigma, x, M, N, noise_var):
    """C(x) by explicit entry-wise Kronecker indexing (row-major (m, n))."""
    sigma = np.asarray(sigma, dtype=complex)
    x = np.asarray(x, dtype=complex).reshape(-1)
    out = np.zeros((M, M), dtype=complex)
    for m in range(M):
        for p in range(M):
            acc = 0.0 + 0.0j
            for n in range(N):
                for q in range(N):
                    acc += np.conj(x[n]) * sigma[m * N + n, p * N + q] * x[q]
            out[m, p] = acc
            if m == p:
                out[m, p] += noise_var
    return out


def mp_mixture_log_density(covs, weights, y, dps=40):
    """ln sum_j w_j p(y|x_j) with p(y|x_j) = exp(-y^H C_j^{-1} y) / (pi^M det C_j), in
    mpmath at dps digits from the double covariances C_j; one C_j (weight 1) gives
    -y^H C^{-1} y - M ln pi - ln det C."""
    import mpmath
    with mpmath.workdps(dps):
        yv = mpmath.matrix([mpmath.mpc(v) for v in np.asarray(y, dtype=complex).reshape(-1)])
        total = mpmath.mpf(0)
        for c, w in zip(covs, weights):
            cm = mpmath.matrix([[mpmath.mpc(v) for v in row]
                                for row in np.asarray(c, dtype=complex)])
            quad = mpmath.re((yv.H * mpmath.lu_solve(cm, yv))[0])
            norm = mpmath.pi ** len(yv) * mpmath.re(mpmath.det(cm))
            total += mpmath.mpf(float(w)) * mpmath.exp(-quad) / norm
        return float(mpmath.log(total))


def _det_recursive(a):
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * _det_recursive(minor)
    return total


def charpoly_eigenvalues(sigma, tol=1e-12):
    """All eigenvalues of a small Hermitian matrix by sign-change bisection.

    Scans det(sigma - t I) on a fine grid over the Gershgorin interval and
    bisects each sign change; assumes distinct eigenvalues (true with
    probability one for the random test matrices).
    """
    sigma = np.asarray(sigma, dtype=complex)
    n = sigma.shape[0]

    def p(t):
        return float(np.real(_det_recursive(sigma - t * np.eye(n))))

    centers = np.real(np.diag(sigma))
    radii = np.sum(np.abs(sigma), axis=1) - np.abs(np.diag(sigma))
    lo = float(np.min(centers - radii)) - 1.0
    hi = float(np.max(centers + radii)) + 1.0
    grid = np.linspace(lo, hi, 4000)
    vals = np.array([p(t) for t in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
            continue
        if vals[i] * vals[i + 1] < 0.0:
            a, b = grid[i], grid[i + 1]
            fa = vals[i]
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = p(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return sorted(roots)


def _panels(f, lo, hi, n_panels=80):
    edges = np.linspace(lo, hi, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        r = mid + half * _NODES
        total += half * np.dot(_WEIGHTS, f(r))
    return total


class ScalarRadialOracle:
    """Deterministic radial quadrature for the M = N = 1 isotropic channel.

    The conditional law depends on |y| only, so every output integral reduces
    to one dimension: E[g(|y|)] = int_0^R g(r) (2r/c) exp(-r^2/c) dr with the
    cutoff R chosen so the discarded tail mass is below 1e-12.
    """

    def __init__(self, noise_var=1.0, h_var=1.0):
        self.noise_var = float(noise_var)
        self.h_var = float(h_var)

    def _c(self, t):
        return self.noise_var + self.h_var * np.asarray(t, dtype=float)

    def _log_f(self, r, ts, ws):
        cs = self._c(ts)
        a = -np.outer(r * r, 1.0 / cs) - np.log(np.pi * cs)[None, :]
        amax = a.max(axis=1, keepdims=True)
        return amax[:, 0] + np.log(np.sum(np.asarray(ws)[None, :] * np.exp(a - amax),
                                          axis=1))

    def _cutoff(self, ts, t_extra=0.0):
        c_max = float(self._c(max(list(ts) + [t_extra])))
        return math.sqrt(30.0 * c_max)  # exp(-30) < 1e-12 relative tail

    def cross_term(self, t_x, ts, ws):
        """E_{y~p(.|x)}[ln f_mu(y)] for |x|^2 = t_x."""
        c = float(self._c(t_x))
        R = self._cutoff(ts, t_x)

        def integrand(r):
            return (2.0 * r / c) * np.exp(-r * r / c) * self._log_f(r, ts, ws)

        return _panels(integrand, 0.0, R)

    def divergence(self, t_x, ts, ws):
        """E_{y~p(.|x)}[ln p(y|x) - ln f_mu(y)]."""
        c = float(self._c(t_x))
        return -math.log(math.pi * math.e * c) - self.cross_term(t_x, ts, ws)

    def mutual_information(self, ts, ws):
        return float(sum(w * self.divergence(t, ts, ws) for t, w in zip(ts, ws)))

    def kkt(self, t_x, ts, ws, gamma, a, capacity):
        return gamma * (t_x - a) + capacity - self.divergence(t_x, ts, ws)

    def _refine(self, a, ts, ws, t_cap):
        """Polish positions (t_1 = 0 pinned) and weights at fixed atom count."""
        k = len(ts)
        if k == 1:
            return list(ts), list(ws)
        x0 = np.array([math.log(max(t, 1e-3)) for t in ts[1:]] + list(ws[1:]))

        def unpack(x):
            tt = np.concatenate([[0.0], np.exp(x[:k - 1])])
            wt = x[k - 1:]
            return tt, np.concatenate([[1.0 - wt.sum()], wt])

        def neg(x):
            tt, ww = unpack(x)
            if ww[0] <= 1e-12:
                return 1.0
            return -self.mutual_information(tt, ww)

        cons = [{"type": "ineq", "fun": lambda x: 0.999999 - x[k - 1:].sum()},
                {"type": "ineq",
                 "fun": lambda x: a - float(np.dot(np.exp(x[:k - 1]), x[k - 1:]))}]
        res = minimize(neg, x0, method="SLSQP",
                       bounds=[(math.log(1e-3), math.log(t_cap))] * (k - 1)
                       + [(1e-9, 0.999)] * (k - 1),
                       constraints=cons, options={"maxiter": 400, "ftol": 1e-13})
        tt, ww = unpack(res.x)
        return list(tt), list(ww)

    def capacity(self, a, max_atoms=4, t_cap=None, tol=1e-4):
        """Smith-style search: refine, test the optimality functional, insert.

        Returns (capacity, ts, ws, gamma) with gamma the stationary multiplier
        (D(t_2) - D(0)) / t_2 of the refined measure. Atom positions are
        capped at t_cap (default 48 a).
        """
        if t_cap is None:
            t_cap = 48.0 * a
        ts, ws = [0.0, 4.0 * a], [0.75, 0.25]
        gamma = 0.0
        for _ in range(max_atoms + 2):
            ts, ws = self._refine(a, ts, ws, t_cap)
            order = np.argsort(ts)
            ts = [ts[i] for i in order]
            ws = [ws[i] for i in order]
            capacity = self.mutual_information(ts, ws)
            gamma = (self.divergence(ts[1], ts, ws)
                     - self.divergence(ts[0], ts, ws)) / ts[1]
            if len(ts) >= max_atoms:
                break
            grid = np.concatenate([np.linspace(0.01, min(4.0 * max(ts), t_cap), 60),
                                   np.geomspace(max(1e-2, min(4.0 * max(ts), t_cap)),
                                                t_cap, 40)])
            kkts = np.array([self.kkt(t, ts, ws, gamma, a, capacity) for t in grid])
            i_min = int(np.argmin(kkts))
            if kkts[i_min] >= -tol:
                break
            ts = list(ts) + [float(grid[i_min])]
            ws = list(np.asarray(ws) * 0.999) + [0.001]
        return capacity, ts, ws, gamma

    def best_two_atom_weight(self, t2, gamma=0.0, a=1.0, xatol=1e-7):
        """Weight w of atom t2 in {0, t2} maximizing I - gamma*(P - a).

        With the atoms fixed the objective is concave in w, so a bounded
        scalar search on [1e-6, 1 - 1e-6] finds the maximizer to xatol.
        """
        res = minimize_scalar(
            lambda w: gamma * (w * t2 - a) - self.mutual_information([0.0, t2], [1.0 - w, w]),
            bounds=(1e-6, 1.0 - 1e-6), method="bounded", options={"xatol": xatol})
        return float(res.x)


def importance_normalization(model, x, samples, seed):
    """MC estimate of int p(y|x) dy via an inflated Gaussian proposal.

    Draws y ~ CN(0, 2 C(x)) and averages p(y|x)/q(y); the weights are bounded
    by 2^M so the estimator has finite variance. Returns (estimate, se).
    """
    from fading_capacity.channel import (_complex_standard_normals,
                                         conditional_covariance)
    cov = conditional_covariance(model, x)
    m = model.M
    scale = math.sqrt(2.0)
    w = _complex_standard_normals(seed, samples, m)
    y = scale * (w @ cov.factor.T)
    log_p = cov.log_densities(y)
    # proposal: CN(0, 2C): log q = -y^H (2C)^{-1} y - M ln pi - ln det(2C)
    log_q = -cov.quad_forms(y) / 2.0 - m * math.log(math.pi) - (cov.log_det
                                                                + m * math.log(2.0))
    ratio = np.exp(log_p - log_q)
    est = float(np.mean(ratio))
    se = float(np.std(ratio, ddof=1) / math.sqrt(samples))
    return est, se


def hypoexponential_shell_mass(d, noise_var, log_norm, log_rho1, log_rho2, dps=80):
    """P(rho1 <= ||y|| < rho2) for y ~ CN(0, C), C with eigenvalues noise_var + ||x||^2 d_m.

    ||y||^2 = sum_m lam_m E_m with E_m ~ Exp(1), and for distinct lam_m its tail is
    the partial-fraction sum sum_m e^(-t / lam_m) prod_(n != m) lam_m / (lam_m - lam_n).
    The sum cancels as the lam_m meet (about -log10 of their relative gap digits per
    factor), so it is evaluated in mpmath at dps digits from the exact double inputs:
    the eigenvalues d_m of D(u), ln ||x|| and the log radii (+-inf allowed).
    """
    import mpmath

    with mpmath.workdps(dps):
        scale = mpmath.exp(2 * mpmath.mpf(log_norm))
        lam = [mpmath.mpf(noise_var) + scale * mpmath.mpf(v) for v in d]

        def tail(log_rho):
            if log_rho == math.inf:
                return mpmath.mpf(0)
            t = mpmath.exp(2 * mpmath.mpf(log_rho))
            total = mpmath.mpf(0)
            for i, a in enumerate(lam):
                term = mpmath.exp(-t / a)
                for j, b in enumerate(lam):
                    if j != i:
                        term *= a / (a - b)
                total += term
            return total

        return float(tail(log_rho1) - tail(log_rho2))
