"""Unital completely positive maps between matrix algebras via Choi matrices.

A map phi: M_d -> M_k is stored through its Choi matrix, the dk x dk block
matrix [phi(E_ij)]_ij.  Complete positivity is equivalent to the Choi matrix
being PSD, and unitality to the block trace summing to the identity, so both
properties are certified by plain eigenvalue computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import (
    _count,
    _matrix_units,
    as_matrix,
    dist_to_psd,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    unitary_defect,
)

__all__ = [
    "UcpMap",
    "apply_map",
    "kadison_schwarz_defect",
    "cs_inequality_residual",
    "mult_domain_defect",
    "PisierReport",
    "pisier_check",
    "IsometryReport",
    "isometry_check",
    "random_ucp",
    "clock_shift_unitaries",
    "ucp_to_json",
    "ucp_from_json",
]

_UCP_TOL = 1e-6  # largest cp_defect and unital_defect a u.c.p. map may have


@dataclass(frozen=True, eq=False)
class UcpMap:
    """Linear map M_d -> M_k given by its Choi matrix [phi(E_ij)]_ij."""

    dom_dim: int
    cod_dim: int
    choi: np.ndarray

    def __post_init__(self):
        d, k = _count(self.dom_dim, "dom_dim"), _count(self.cod_dim, "cod_dim")
        object.__setattr__(self, "dom_dim", d)
        object.__setattr__(self, "cod_dim", k)
        a = as_matrix(self.choi).copy()
        if a.shape != (d * k, d * k):
            raise ValueError(f"Choi matrix must be {d * k} x {d * k}, got {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "choi", a)

    @cached_property
    def _blocks(self) -> np.ndarray:
        # blocks[i, a, j, b] = phi(E_ij)[a, b]
        d, k = self.dom_dim, self.cod_dim
        return self.choi.reshape(d, k, d, k)

    @cached_property
    def cp_defect(self) -> float:
        """Distance of the Choi matrix to the PSD cone; zero iff completely positive."""
        h = hermitian_part(self.choi)
        skew = op_norm(self.choi - self.choi.conj().T)
        return max(skew, dist_to_psd(h))

    @cached_property
    def unital_defect(self) -> float:
        """|| sum_i phi(E_ii) - 1 ||."""
        total = np.einsum("iaib->ab", self._blocks)
        return op_norm(total - np.eye(self.cod_dim))

    def is_ucp(self) -> bool:
        return self.cp_defect <= _UCP_TOL and self.unital_defect <= _UCP_TOL

    def require_ucp(self) -> None:
        if not self.is_ucp():
            raise ValueError(
                f"map is not u.c.p. within {_UCP_TOL:g} "
                f"(cp_defect={self.cp_defect:.3e}, unital_defect={self.unital_defect:.3e})"
            )

    @cached_property
    def transfer_matrix(self) -> np.ndarray:
        """k^2 x d^2 matrix L with vec(phi(x)) = L vec(x)."""
        d, k = self.dom_dim, self.cod_dim
        return self._blocks.transpose(1, 3, 0, 2).reshape(k * k, d * d)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_function(cls, fn, dom_dim: int, cod_dim: int) -> "UcpMap":
        """Build the Choi matrix by applying fn to every matrix unit."""
        d, k = dom_dim, cod_dim
        choi = np.zeros((d * k, d * k), dtype=complex)
        for n, e in enumerate(_matrix_units(d)):
            i, j = divmod(n, d)
            image = as_matrix(fn(e))
            if image.shape != (k, k):
                raise ValueError(f"expected a {k} x {k} image, got {image.shape}")
            choi[i * k:(i + 1) * k, j * k:(j + 1) * k] = image
        return cls(d, k, choi)

    @classmethod
    def identity(cls, d: int) -> "UcpMap":
        return cls.from_function(lambda x: x, d, d)

    @classmethod
    def conjugation(cls, u) -> "UcpMap":
        """x -> u* x u for a unitary u."""
        u = as_matrix(u)
        return cls.from_function(lambda x: u.conj().T @ x @ u, u.shape[0], u.shape[0])

    @classmethod
    def diagonal_expectation(cls, d: int) -> "UcpMap":
        """Conditional expectation onto the diagonal subalgebra."""
        return cls.from_function(lambda x: np.diag(np.diag(x)), d, d)

    @classmethod
    def direct_sum_embedding(cls, d: int) -> "UcpMap":
        """x -> diag(x, x), a *-homomorphism into M_{2d}."""
        return cls.from_function(lambda x: np.kron(np.eye(2), x), d, 2 * d)

    @classmethod
    def transpose_map(cls, d: int) -> "UcpMap":
        """x -> x^T; positive and unital but not completely positive for d >= 2."""
        return cls.from_function(lambda x: x.T, d, d)


def apply_map(phi: UcpMap, x) -> np.ndarray:
    """phi(x) = sum_ij x_ij phi(E_ij), read off the Choi blocks."""
    a = as_matrix(x)
    d = phi.dom_dim
    if a.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} argument, got {a.shape}")
    return np.einsum("ij,iajb->ab", a, phi._blocks)


def _schwarz_gap(phi: UcpMap, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """phi(y*x) - phi(y)* phi(x)."""
    return apply_map(phi, y.conj().T @ x) - apply_map(phi, y).conj().T @ apply_map(phi, x)


def _hom_gap(phi: UcpMap, x: np.ndarray, y: np.ndarray) -> float:
    """||phi(xy) - phi(x) phi(y)||."""
    return op_norm(apply_map(phi, x @ y) - apply_map(phi, x) @ apply_map(phi, y))


def kadison_schwarz_defect(phi: UcpMap, x) -> float:
    """lambda_min(phi(x*x) - phi(x)* phi(x)); nonnegative for u.c.p. maps."""
    phi.require_ucp()
    a = as_matrix(x)
    return float(np.linalg.eigvalsh(hermitian_part(_schwarz_gap(phi, a, a)))[0])


def cs_inequality_residual(phi: UcpMap, x, y) -> float:
    """RHS - LHS of ||phi(y*x)-phi(y)*phi(x)|| <= prod of Schwarz-gap square roots."""
    phi.require_ucp()
    x, y = as_matrix(x), as_matrix(y)
    lhs = op_norm(_schwarz_gap(phi, x, y))
    gx = op_norm(_schwarz_gap(phi, x, x))
    gy = op_norm(_schwarz_gap(phi, y, y))
    return float(np.sqrt(gx) * np.sqrt(gy) - lhs)


def mult_domain_defect(phi: UcpMap, a) -> float:
    """Deviation of a from the multiplicative domain of phi.

    max(||phi(a*)phi(a) - phi(a*a)||, ||phi(a)phi(a*) - phi(aa*)||); symmetric
    in a <-> a* by construction.
    """
    m = as_matrix(a)
    return max(_hom_gap(phi, m.conj().T, m), _hom_gap(phi, m, m.conj().T))


@dataclass
class PisierReport:
    """Unitary preservation versus multiplicativity of a u.c.p. map."""

    unitary_preservation_defect: float
    hom_defect: float


def pisier_check(phi: UcpMap, trial_unitaries, trial_pairs) -> PisierReport:
    """Probe "maps unitaries to unitaries implies *-homomorphism".

    Reports the worst unitary_defect of the images of the trial unitaries and
    the worst multiplicativity gap over the trial pairs; the first being small
    forces the second to be small.
    """
    phi.require_ucp()
    preservation = 0.0
    for u in trial_unitaries:
        preservation = max(preservation, unitary_defect(apply_map(phi, u)))
    hom = 0.0
    for x, y in trial_pairs:
        hom = max(hom, _hom_gap(phi, as_matrix(x), as_matrix(y)))
    return PisierReport(unitary_preservation_defect=preservation, hom_defect=hom)


@dataclass
class IsometryReport:
    """Isometry versus multiplicativity of an invertible u.c.p. map."""

    isometry_defect: float
    hom_defect: float
    preimage_unitary_defect: float


def isometry_check(phi: UcpMap, trial_set) -> IsometryReport:
    """Probe "a bijective u.c.p. isometry is a *-isomorphism".

    Also verifies the mechanism: preimages of unitaries under an isometric
    u.c.p. bijection are themselves unitaries.
    """
    phi.require_ucp()
    if phi.dom_dim != phi.cod_dim:
        raise ValueError("isometry check needs equal domain and codomain dimensions")
    lmat = phi.transfer_matrix
    if np.linalg.cond(lmat) > 1e10:
        raise ValueError("map is not invertible")

    trials = [as_matrix(t) for t in trial_set]
    iso = max((abs(op_norm(apply_map(phi, t)) - op_norm(t)) for t in trials), default=0.0)
    hom = 0.0
    for x, y in zip(trials, trials[1:]):
        hom = max(hom, _hom_gap(phi, x, y))

    d = phi.dom_dim
    preimage = 0.0
    for v in clock_shift_unitaries(d):
        u = np.linalg.solve(lmat, v.reshape(-1)).reshape(d, d)
        preimage = max(preimage, unitary_defect(u))
    return IsometryReport(
        isometry_defect=iso,
        hom_defect=hom,
        preimage_unitary_defect=preimage,
    )


def clock_shift_unitaries(d: int) -> list[np.ndarray]:
    """The d^2 clock-and-shift unitaries; they span all of M_d."""
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    shift = np.zeros((d, d), dtype=complex)
    for i in range(d):
        shift[(i + 1) % d, i] = 1.0
    out = []
    power_s = np.eye(d, dtype=complex)
    for _ in range(d):
        power_c = np.eye(d, dtype=complex)
        for _ in range(d):
            out.append(power_s @ power_c)
            power_c = power_c @ clock
        power_s = power_s @ shift
    return out


def random_ucp(dom_dim: int, cod_dim: int, rng_seed: int) -> UcpMap:
    """Deterministic-in-seed u.c.p. map.

    A Wishart Choi matrix is conjugated by the inverse square root of its
    block-trace marginal, which makes the map unital exactly.
    """
    d, k = _count(dom_dim, "dom_dim"), _count(cod_dim, "cod_dim")
    rng = np.random.default_rng(_count(rng_seed, "rng_seed", least=0))
    n = d * k
    for _ in range(100):
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        w = g @ g.conj().T
        marginal = np.einsum("iaib->ab", w.reshape(d, k, d, k))
        eigs, vec = np.linalg.eigh(hermitian_part(marginal))
        if eigs[0] <= 1e-8 * eigs[-1]:
            continue
        root = (vec / np.sqrt(eigs)) @ vec.conj().T  # marginal^(-1/2), exactly Hermitian
        fix = np.kron(np.eye(d), root)
        return UcpMap(d, k, fix @ w @ fix.conj().T)
    raise ValueError("could not draw a nondegenerate Choi marginal in 100 attempts")


def ucp_to_json(phi: UcpMap) -> dict:
    return {
        "dom_dim": phi.dom_dim,
        "cod_dim": phi.cod_dim,
        "choi": matrix_to_json(phi.choi),
    }


def ucp_from_json(obj) -> UcpMap:
    if not isinstance(obj, dict):
        raise ValueError("u.c.p. map JSON must be an object")
    try:
        return UcpMap(obj["dom_dim"], obj["cod_dim"], matrix_from_json(obj["choi"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed u.c.p. map JSON: {exc}") from exc
