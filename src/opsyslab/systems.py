"""Concrete operator systems: unital self-adjoint subspaces of M_d.

A system is stored through a Hilbert-Schmidt-orthonormal basis obtained by
Gram-Schmidt over [identity, generators, their adjoints], so the span is
always unital and closed under adjoints.  The operator-norm distance to a
span is a small semidefinite program; `dist_bracket` solves it with a log-det
barrier method and returns (lower, upper).  upper is a feasible value.  lower
is a dual certificate: for any Z that is Hilbert-Schmidt-orthogonal to the
span, |<Z, x>| = |<Z, x - y>| <= ||Z||_1 ||x - y|| for every y in the span, so
|<Z, x>| / ||Z||_1 (||.||_1 the trace norm) bounds the distance from below.
The solver starts at the HS projection P(x), with residual R = x - P(x), and
returns that start when its certified gap ||R|| - ||R||_F^2 / ||R||_1 is
already at most _GAP_TOL (x in the span, or R with equal singular values).
Otherwise it also tries, after each centering stage, the off-diagonal block
of the barrier's G^-1, projected off the span, and keeps the best Z.
`dist_to_system` returns upper and raises
np.linalg.LinAlgError when the two are more than _BRACKET_RTOL * max(1, upper)
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .matrices import (_array, _count, _matrix_units, _number, as_matrix, hermitian_part,
                       matrix_from_json, matrix_to_json, op_norm)

__all__ = [
    "OperatorSystem",
    "canonicalize",
    "full_matrix_algebra",
    "diagonal_algebra",
    "dist_bracket",
    "dist_to_system",
    "is_product_closed",
    "sample_ball",
    "system_to_json",
    "system_from_json",
]

_INDEPENDENCE_RTOL = 1e-8
_GAP_TOL = 2e-10  # n/tau at which the span-distance barrier method stops
_BRACKET_RTOL = 1e-7  # relative bracket width above which dist_to_system fails


def _vec(m: np.ndarray) -> np.ndarray:
    return m.reshape(-1)


def _combine(c: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i c[i] * stack[i] for a 1-D c, as one (1 x k) by (k x d*d) product.

    This is the product numpy's tensordot over axis 0 makes, so the result is
    bitwise equal to it, without its axis bookkeeping.  (A 1-D c @ matrix is
    not: for k = 1 and complex c it differs in the last bits.)
    """
    return np.dot(c[None], stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


@dataclass(frozen=True, eq=False)
class OperatorSystem:
    """Unital *-closed subspace of M_d, with an HS-orthonormal basis."""

    ambient_dim: int
    basis: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _stack(self) -> np.ndarray:
        return np.stack(self.basis)

    @cached_property
    def _frame(self) -> np.ndarray:
        # d^2 x k, orthonormal columns vec(b_i)
        return np.stack([_vec(b) for b in self.basis], axis=1)

    def coords(self, x) -> np.ndarray:
        """HS coordinates of the projection of x onto the span."""
        a = self._check_ambient(x)
        return self._frame.conj().T @ _vec(a)

    def from_coords(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {c.shape}")
        return _combine(c, self._stack)

    def project(self, x) -> np.ndarray:
        return self.from_coords(self.coords(x))

    def membership_residual(self, x) -> float:
        """Frobenius distance from x to the span (upper bounds the operator-norm one)."""
        a = self._check_ambient(x)
        return float(np.linalg.norm(a - self.project(a)))

    def contains_span_of(self, other: "OperatorSystem") -> bool:
        if other.ambient_dim != self.ambient_dim:
            return False
        return all(self.membership_residual(b) <= 1e-8 for b in other.basis)

    @cached_property
    def hermitian_basis(self) -> np.ndarray:
        """Read-only stack of a real-orthonormal basis of the span's Hermitian elements.

        Its length, the real dimension of the Hermitian part, equals dim.
        """
        cands = []
        for b in self.basis:
            cands.append(hermitian_part(b))
            cands.append((b - b.conj().T) / 2j)
        out: list[np.ndarray] = []
        for v in cands:
            for _ in range(2):
                for h in out:
                    v = v - np.vdot(h, v).real * h
            nrm = np.linalg.norm(v)
            if nrm > 1e-8:
                out.append(v / nrm)
        stack = np.stack(out)
        stack.setflags(write=False)
        return stack

    @cached_property
    def is_cstar(self) -> bool:
        """True when the span is closed under products (cached exact oracle)."""
        return is_product_closed(self)[0]

    def require_cstar(self) -> None:
        if not self.is_cstar:
            raise ValueError("structure is not product-closed")

    def validate(self) -> None:
        d = self.ambient_dim
        if self.membership_residual(np.eye(d)) > 1e-7 * np.sqrt(d):
            raise ValueError("identity is not in the span")
        for b in self.basis:
            if self.membership_residual(b.conj().T) > 1e-7:
                raise ValueError("span is not closed under adjoints")
        gram = self._frame.conj().T @ self._frame
        if np.linalg.norm(gram - np.eye(self.dim)) > 1e-10 * self.dim:
            raise ValueError("basis is not HS-orthonormal")

    def _check_ambient(self, x) -> np.ndarray:
        a = as_matrix(x)
        d = self.ambient_dim
        if a.shape != (d, d):
            raise ValueError(f"expected a {d} x {d} matrix, got {a.shape}")
        return a


def canonicalize(raw_basis, ambient_dim: int) -> OperatorSystem:
    """Smallest unital *-closed subspace containing the input, HS-orthonormalized.

    Gram-Schmidt runs over [identity, g_1, g_1*, g_2, g_2*, ...] so generator
    directions survive verbatim whenever they are already orthogonal.
    """
    d = _count(ambient_dim, "ambient dimension")
    gens: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for g in raw_basis:
        a = as_matrix(g)
        if a.shape != (d, d):
            raise ValueError(f"generator has shape {a.shape}, expected ({d}, {d})")
        gens.append(a)
        gens.append(a.conj().T)
    basis: list[np.ndarray] = []
    for g in gens:
        scale = max(1.0, float(np.linalg.norm(g)))
        v = g.astype(complex)
        for _ in range(2):  # re-orthogonalize once for stability
            for b in basis:
                v = v - np.vdot(b, v) * b
        nrm = float(np.linalg.norm(v))
        if nrm > _INDEPENDENCE_RTOL * scale:
            b = v / nrm
            b.setflags(write=False)
            basis.append(b)
    system = OperatorSystem(d, tuple(basis))
    system.validate()
    return system


@lru_cache(maxsize=None)
def full_matrix_algebra(d: int) -> OperatorSystem:
    """The full algebra M_d (matrix units are already HS-orthonormal)."""
    return canonicalize(_matrix_units(d), d)


@lru_cache(maxsize=None)
def diagonal_algebra(d: int) -> OperatorSystem:
    return canonicalize(_matrix_units(d)[::d + 1], d)


# ---------------------------------------------------------------------------
# Certified operator-norm distance to a span
# ---------------------------------------------------------------------------

def _dilation(m: np.ndarray) -> np.ndarray:
    """[[0, m], [m*, 0]], for one matrix or for each matrix of a stack."""
    *lead, r, c = m.shape
    z = np.zeros((*lead, r + c, r + c), dtype=complex)
    z[..., :r, r:] = m
    z[..., r:, :r] = np.swapaxes(m, -1, -2).conj()
    return z


def _min_affine_spectral(m0: np.ndarray, basis: np.ndarray) -> tuple[float, float]:
    """Bracket min ||m0 + y||_2 over y in the complex span of an HS-orthonormal stack.

    Barrier method on { (theta, t) : G = t*I - dilation(m0 + sum_j theta_j dirs_j) > 0 }
    with real theta, where dirs runs over b and i*b for each basis matrix b.
    The start is the HS projection, y = -P(m0) with residual R = m0 - P(m0);
    when its certified gap ||R|| - certificate(R) is already at most _GAP_TOL
    it is returned as is.  Otherwise returns (lower, upper): upper is the final
    t, and lower the best dual certificate (module docstring) over Z = R and,
    after each centering stage, Z = the top-right block of that stage's G^-1.
    """
    r, c = m0.shape
    n = r + c
    k = len(basis)
    m = 2 * k
    frame = basis.reshape(k, -1)

    # Frobenius start: the HS projection, theta = -coords(m0), so the residual is R
    coef = frame.conj() @ _vec(m0)
    theta = np.empty(m)
    theta[0::2], theta[1::2] = -coef.real, -coef.imag
    resid = m0 - _combine(coef, basis)

    def certificate(z):
        # for Z HS-orthogonal to the span, |<Z, R>| = |<Z, m0 + y>| <= ||Z||_1 ||m0 + y||
        v = _vec(z)
        z = (v - (frame.conj() @ v) @ frame).reshape(r, c)
        nuc = float(np.linalg.svd(z, compute_uv=False).sum())
        return float(abs(np.vdot(z, resid))) / nuc if nuc > 0 else 0.0

    # the barrier's stopping rule at the start; min() absorbs R's bound rounding above t
    t = op_norm(resid)
    lower = certificate(resid)
    if t - lower <= _GAP_TOL:
        return min(lower, t), t
    dirs = np.empty((m, r, c), dtype=complex)
    dirs[0::2] = basis
    dirs[1::2] = 1j * basis
    w0 = _dilation(m0)
    w = _dilation(dirs)
    wflat = w.reshape(m, -1)
    x = np.concatenate([theta, [t + max(1.0, 0.25 * t)]])
    eye = np.eye(n)

    def g_of(xv):
        return xv[m] * eye - w0 - (xv[:m] @ wflat).reshape(n, n)

    def phi(xv, tau):
        # one Cholesky is both the positive-definiteness test and the logdet
        try:
            ell = np.linalg.cholesky(g_of(xv))
        except np.linalg.LinAlgError:
            return np.inf
        return tau * xv[m] - 2.0 * float(np.sum(np.log(ell.diagonal().real)))

    tau = 1.0
    mu = 25.0
    for _ in range(64):
        # Newton centering at this tau.  dG/dtheta_j = -W_j and dG/dt = +I, so
        # with S_a = G^-1 dG/dx_a the gradient is tau*e_t - tr(S_a) and the
        # Hessian is tr(S_a S_b); s stacks -S_a = [G^-1 W_j, -G^-1]
        base = phi(x, tau)
        for _ in range(60):
            ginv = np.linalg.inv(g_of(x))
            s = np.concatenate([ginv @ w, -ginv[None]])
            grad = np.einsum("aii->a", s).real
            grad[m] += tau
            hess = (s.reshape(m + 1, -1) @ np.swapaxes(s, 1, 2).reshape(m + 1, -1).T).real
            hess = (hess + hess.T) / 2
            step = np.linalg.solve(hess + 1e-14 * np.eye(m + 1), -grad)
            decrement = float(-grad @ step)
            if not np.isfinite(decrement) or decrement <= 1e-11:
                break
            # backtracking line search on the barrier objective; when it finds
            # no decrease (tau*t swamps phi's rounding late on), the stage ends
            # and the certificate gap decides convergence
            alpha = 1.0
            while alpha > 1e-14:
                cand = x + alpha * step
                val = phi(cand, tau)
                if val < base - 0.25 * alpha * decrement + 1e-15:
                    x, base = cand, val
                    break
                alpha /= 2
            else:
                break
        lower = max(lower, certificate(ginv[:r, r:]))
        if n / tau <= _GAP_TOL:
            break
        tau *= mu
    return lower, float(x[m])


def dist_bracket(x, system: OperatorSystem) -> tuple[float, float]:
    """(lower, upper) bounds on the operator-norm distance from x to span(system).

    The module docstring says how each end is certified.  The width is not
    checked here; `dist_to_system` checks it.
    """
    a = system._check_ambient(x)
    return _min_affine_spectral(a, system._stack)


def dist_to_system(x, system: OperatorSystem) -> float:
    """Operator-norm distance from x to span(system): the upper end of `dist_bracket`.

    Raises np.linalg.LinAlgError (a ValueError) when the bracket is wider than
    _BRACKET_RTOL * max(1, upper), that is, when the solver did not converge.
    """
    lower, upper = dist_bracket(x, system)
    if upper - lower > _BRACKET_RTOL * max(1.0, upper):
        raise np.linalg.LinAlgError(
            f"span-distance solver did not converge: bracket [{lower!r}, {upper!r}]")
    return upper


def is_product_closed(system: OperatorSystem) -> tuple[bool, float]:
    """Exact product-closure oracle: max distance of basis products b_i b_j* to the span.

    Only the pairs i <= j are solved: the span is *-closed and
    (b_i b_j*)* = b_j b_i*, and the operator norm is *-invariant, so
    dist(b_j b_i*, S) = dist(b_i b_j*, S).  That is k(k+1)/2 solves, not k^2.
    On a closed span every product lies in it, so each solve is one projection
    and no barrier stage, and the defect is at rounding level.
    The span counts as closed when the maximum is at most 1e-9.
    """
    basis = system.basis
    defect = 0.0
    for i, bi in enumerate(basis):
        for bj in basis[i:]:
            defect = max(defect, dist_to_system(bi @ bj.conj().T, system))
    return defect <= 1e-9, defect


def _draw_ball_coords(rng: np.random.Generator, system: OperatorSystem,
                      radius: float, count: int) -> np.ndarray:
    """(count, dim) complex coordinate rows of in-ball span elements."""
    k = system.dim
    out = np.empty((count, k), dtype=complex)
    for i in range(count):
        c = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2)
        a = system.from_coords(c)
        nrm = op_norm(a)
        if nrm > radius:
            c *= radius / nrm
        out[i] = c
    return out


def sample_ball(system: OperatorSystem, radius: float, rng_seed: int,
                count: int) -> list[np.ndarray]:
    """Deterministic-in-seed span elements with operator norm <= radius."""
    if not _number(radius) > 0:
        raise ValueError(f"ball radius must be positive, got {radius!r}")
    count = _count(count, "count", least=0)
    rng = np.random.default_rng(_count(rng_seed, "rng_seed", least=0))
    return [system.from_coords(c) for c in _draw_ball_coords(rng, system, radius, count)]


def system_to_json(system: OperatorSystem) -> dict:
    return {
        "ambient_dim": system.ambient_dim,
        "basis": [matrix_to_json(b) for b in system.basis],
    }


def system_from_json(obj) -> OperatorSystem:
    if not isinstance(obj, dict):
        raise ValueError("operator-system JSON must be an object")
    try:
        d = _count(obj["ambient_dim"], "ambient_dim")
        raw = [matrix_from_json(m) for m in _array(obj["basis"])]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed operator-system JSON: {exc}") from exc
    return canonicalize(raw, d)

