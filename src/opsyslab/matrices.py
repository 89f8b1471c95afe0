"""Dense complex matrix calculus: norms, positivity, blocks, amplification.

The matrix checks live here.  A public function checks its matrix arguments; a
_-prefixed step takes complex 2-D arrays that its caller built and checked.
"""

from __future__ import annotations

import cmath
import numbers

import numpy as np

__all__ = [
    "EIG_TOL",
    "NotPsdError",
    "as_matrix",
    "adjoint",
    "hermitian_part",
    "is_hermitian",
    "op_norm",
    "lambda_min",
    "dist_to_psd",
    "psd_sqrt",
    "block",
    "amplify",
    "exp_i_hermitian",
    "unitary_defect",
    "unitary_log",
    "haar_unitary",
    "random_contraction",
    "random_hermitian",
    "matrix_to_json",
    "matrix_from_json",
]


EIG_TOL = 1e-10
"""Absolute eigenvalue tolerance.

The Hermitian and PSD checks allow this much error, and `unitary_log` this
much unitary defect.
"""


class NotPsdError(ValueError):
    """A matrix required to be PSD has an eigenvalue below -EIG_TOL."""


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array; scalars become 1x1."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a scalar or 2-D array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got {a.shape}")
    if not np.isfinite(a).all():  # False when either part is not finite
        raise ValueError("matrix has non-finite entries")
    return a


def adjoint(m) -> np.ndarray:
    return as_matrix(m).conj().T


def _square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    return a


def _require_contraction(m, what: str) -> np.ndarray:
    a = _square(m)
    if op_norm(a) > 1.0 + 1e-10:
        raise ValueError(f"{what} needs a contraction")
    return a


def hermitian_part(m) -> np.ndarray:
    a = _square(m)
    return (a + a.conj().T) / 2


def op_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(m), 2))


def is_hermitian(m) -> bool:
    a = as_matrix(m)
    return a.shape[0] == a.shape[1] and op_norm(a - a.conj().T) <= EIG_TOL


def _require_hermitian(m) -> np.ndarray:
    a = _square(m)
    if op_norm(a - a.conj().T) > EIG_TOL:
        raise ValueError("matrix is not Hermitian within EIG_TOL")
    return hermitian_part(a)


def lambda_min(h) -> float:
    """Smallest eigenvalue of the Hermitian part of an (almost) Hermitian matrix."""
    a = _require_hermitian(h)
    return float(np.linalg.eigvalsh(a)[0])


def dist_to_psd(h) -> float:
    """Operator-norm distance from a Hermitian matrix to the PSD cone: max(0, -lambda_min)."""
    return max(0.0, -lambda_min(h))


def psd_sqrt(h) -> np.ndarray:
    """PSD square root; eigenvalues in [-EIG_TOL, 0) are clamped to 0."""
    w, v = np.linalg.eigh(_require_hermitian(h))
    if w[0] < -EIG_TOL:
        raise NotPsdError(f"smallest eigenvalue {w[0]:.3e} is below -EIG_TOL")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def block(grid) -> np.ndarray:
    """Assemble a block matrix from a 2-D grid of matrices (scalars become 1x1)."""
    rows = [[as_matrix(cell) for cell in row] for row in grid]
    if not rows or not rows[0]:
        raise ValueError("block grid must be non-empty")
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("block grid rows have unequal lengths")
    for i, row in enumerate(rows):
        heights = {cell.shape[0] for cell in row}
        if len(heights) != 1:
            raise ValueError(f"grid row {i} mixes row-counts {sorted(heights)}")
    for j in range(ncols):
        widths = {row[j].shape[1] for row in rows}
        if len(widths) != 1:
            raise ValueError(f"grid column {j} mixes column-counts {sorted(widths)}")
    return np.block(rows)


def amplify(m, n: int) -> np.ndarray:
    """Kronecker product M (x) I_n; preserves the operator norm."""
    return np.kron(as_matrix(m), np.eye(_count(n, "amplification count")))


def exp_i_hermitian(h) -> np.ndarray:
    """exp(iH) for Hermitian H via eigendecomposition; exactly unitary up to rounding."""
    a = hermitian_part(h)
    w, v = np.linalg.eigh(a)
    return (v * np.exp(1j * w)) @ v.conj().T


def unitary_defect(u) -> float:
    """max(||u*u - 1||, ||uu* - 1||); zero exactly at unitaries."""
    a = _square(u)
    eye = np.eye(a.shape[0])
    return max(op_norm(a.conj().T @ a - eye), op_norm(a @ a.conj().T - eye))


def unitary_log(u) -> np.ndarray:
    """Hermitian H with exp(iH) = u and ||H|| <= pi; ValueError if unitary_defect(u) > EIG_TOL.

    H = q diag(angle(diag(q* u q))) q*, q the Schur vectors of u: LAPACK's eig
    returns V = Z X, Z the Schur vectors and X upper triangular, so the QR of V
    gives Z up to column phases, at repeated eigenvalues too.  At an eigenvalue
    -1 either sign of pi may come back, as rounding falls.
    """
    a = as_matrix(u)
    if unitary_defect(a) > EIG_TOL:
        raise ValueError("matrix is not unitary within EIG_TOL")
    q = np.linalg.qr(np.linalg.eig(a)[1])[0]
    lam = np.einsum("ij,ij->j", q.conj(), a @ q)
    return hermitian_part((q * np.angle(lam)) @ q.conj().T)


def _matrix_units(d: int) -> np.ndarray:
    """The d*d matrix units E_ij of M_d, stacked in row-major order of (i, j)."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix with phase fix)."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_contraction(rng: np.random.Generator, d: int, radius: float = 1.0) -> np.ndarray:
    """Random d x d matrix rescaled into the operator-norm ball of the given radius."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
    nrm = op_norm(g)
    if nrm > radius:
        g *= radius / nrm
    return g


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random d x d Hermitian matrix of operator norm 1 (0 only if the draw is 0)."""
    h = hermitian_part((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    nrm = op_norm(h)
    if nrm > 0:
        h *= 1.0 / nrm
    return h


def matrix_to_json(m) -> dict:
    """JSON object {"rows": r, "cols": c, "data": [[re, im], ...]} in row-major order."""
    a = as_matrix(m)
    data = [[float(x.real), float(x.imag)] for x in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def _finite(value):
    """value, checked to be a finite real or complex number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number) \
            or not cmath.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


# Strict readers of decoded JSON values: a number must be a JSON number and an
# integer a JSON integer, never a string or a boolean.

def _array(value, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected an array, got {value!r}")
    if length is not None and len(value) != length:
        raise ValueError(f"expected an array of {length}, got {len(value)} entries")
    return value


def _number(value) -> float:
    """value as a float, checked to be a finite real number."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"expected a finite real number, got {value!r}")
    try:
        return float(_finite(value))
    except OverflowError:
        raise ValueError("number out of the floating-point range") from None


def _complex(value) -> complex:
    re, im = _array(value, 2)
    return complex(_number(re), _number(im))


def _count(value, name: str = "count", least: int = 1) -> int:
    """value as an int, checked to be a Python or numpy integer >= least and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols, data = _count(obj["rows"], "rows"), _count(obj["cols"], "cols"), obj["data"]
        flat = [_complex(pair) for pair in _array(data, rows * cols)]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    return as_matrix(np.array(flat, dtype=complex).reshape(rows, cols))
