"""Reference computations and output checks that never call opsyslab.

Every function here works from the raw generators of a system and plain
numpy/scipy, so a bug in the package under test cannot make its own check
pass.  A check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

DIST_LOWER_SLACK = 1e-9
DIST_UPPER_SLACK = 1e-7
CLOSED_RESIDUAL = 1e-6


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def span_frame(generators, d: int) -> np.ndarray:
    """Orthonormal d*d x k frame of span{1, g, g* : g in generators}."""
    cols = [np.eye(d, dtype=complex).reshape(-1)]
    for g in generators:
        g = np.asarray(g, dtype=complex)
        cols.append(g.reshape(-1))
        cols.append(g.conj().T.reshape(-1))
    u, s, _ = np.linalg.svd(np.stack(cols, axis=1), full_matrices=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    return u[:, :rank]


def project(frame: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt projection of x onto the span of the frame."""
    v = x.reshape(-1)
    return (frame @ (frame.conj().T @ v)).reshape(x.shape)


def closure_residual(frame: np.ndarray, d: int) -> float:
    """max Frobenius distance of b_i b_j* to the span; 0 exactly for algebras."""
    basis = [frame[:, j].reshape(d, d) for j in range(frame.shape[1])]
    worst = 0.0
    for bi in basis:
        for bj in basis:
            p = bi @ bj.conj().T
            worst = max(worst, float(np.linalg.norm(p - project(frame, p))))
    return worst


def dist_lower_bound(frame: np.ndarray, x: np.ndarray) -> float:
    """||R||_F^2 / ||R||_1 with R = x - P(x): a dual lower bound on the distance.

    R is HS-orthogonal to the span, so <R, x - y> = ||R||_F^2 for every y in it,
    and |<R, x - y>| <= ||R||_1 ||x - y||.
    """
    r = x - project(frame, x)
    fro2 = float(np.vdot(r, r).real)
    if fro2 < 1e-28:
        return 0.0
    return fro2 / float(np.sum(np.linalg.svd(r, compute_uv=False)))


def dist_feasible(frame: np.ndarray, x: np.ndarray) -> float:
    """Operator norm of x - y at a locally optimal y in the span (an upper bound).

    Minimizes the log-sum-exp smoothing of the singular values of x - y over the
    span coordinates, tightening the smoothing in stages; every stage ends at a
    feasible point, and the smallest true norm seen is returned.
    """
    d = x.shape[0]
    k = frame.shape[1]
    v = x.reshape(-1)

    def residual(c):
        return (v - frame @ (c[:k] + 1j * c[k:])).reshape(d, d)

    def smooth(c, mu):
        u, s, vh = np.linalg.svd(residual(c))
        w = np.exp((s - s[0]) / mu)
        total = w.sum()
        g = (u * (w / total)) @ vh
        z = frame.conj().T @ g.reshape(-1)
        return s[0] + mu * np.log(total), np.concatenate([-z.real, -z.imag])

    c0 = frame.conj().T @ v
    c = np.concatenate([c0.real, c0.imag])
    best = float(np.linalg.norm(residual(c), 2))
    for mu in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        res = minimize(smooth, c, args=(mu,), jac=True, method="L-BFGS-B",
                       options={"maxiter": 500, "gtol": 1e-12, "ftol": 1e-15})
        c = res.x
        best = min(best, float(np.linalg.norm(residual(c), 2)))
    return best


def unitary_defect(u: np.ndarray) -> float:
    eye = np.eye(u.shape[0])
    return max(float(np.linalg.norm(u.conj().T @ u - eye, 2)),
               float(np.linalg.norm(u @ u.conj().T - eye, 2)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_distance(value: float, lower: float, upper: float) -> list[str]:
    out = []
    if not value >= lower - DIST_LOWER_SLACK:
        out.append(f"distance {value!r} below the dual lower bound {lower!r}")
    if not value <= upper + DIST_UPPER_SLACK:
        out.append(f"distance {value!r} above a feasible point's norm {upper!r}")
    return out


def check_verdict(closed: bool, expected: bool) -> list[str]:
    if bool(closed) != expected:
        return [f"closure verdict {closed!r}, constructed as {expected!r}"]
    return []


def check_close(name: str, value: float, expected: float, tol: float = 1e-9) -> list[str]:
    if not abs(value - expected) <= tol:
        return [f"{name} {value!r} differs from reference {expected!r} by more than {tol:g}"]
    return []


def check_at_most(name: str, value: float, limit: float) -> list[str]:
    if not value <= limit:
        return [f"{name} {value!r} above {limit!r}"]
    return []


def check_at_least(name: str, value: float, limit: float) -> list[str]:
    if not value >= limit:
        return [f"{name} {value!r} below {limit!r}"]
    return []


def check_closure_report(defect: float, bound_check: float, x, y, z,
                         opt_tol: float) -> list[str]:
    """Acceptance 3 for a system that is not product-closed."""
    x, y, z = (np.asarray(m, dtype=complex) for m in (x, y, z))
    recomputed = float(np.linalg.norm(x @ y.conj().T + z, 2))
    return (check_at_least("defect", defect, 1 / 64 - opt_tol)
            + check_at_most("bound_check", bound_check,
                            4 * np.sqrt(max(defect, 0.0)) + 1e-3)
            + check_close("bound_check", bound_check, recomputed))
