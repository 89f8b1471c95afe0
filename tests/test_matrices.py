"""Unit tests for the matrix calculus layer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsyslab import (
    Amp,
    EvalConfig,
    NotPsdError,
    UcpMap,
    Var,
    amplify,
    block,
    canonicalize,
    dist_to_psd,
    exp_i_hermitian,
    haar_unitary,
    is_hermitian,
    lambda_min,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    psd_sqrt,
    random_contraction,
    random_ucp,
    unitary_average_decompose,
    unitary_detect,
    unitary_log,
)
from opsyslab.matrices import EIG_TOL

from strategies import _unitary

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def test_op_norm_examples():
    assert op_norm(np.eye(2)) == pytest.approx(1.0)
    assert op_norm([[0, 1], [0, 0]]) == pytest.approx(1.0)
    assert op_norm([[1, 1], [1, 1]]) == pytest.approx(2.0)


def test_op_norm_rejects_nonfinite():
    with pytest.raises(ValueError):
        op_norm([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        op_norm([[np.inf, 0], [0, 1]])
    # a complex entry is non-finite when either part is
    for bad in (complex(0, np.inf), complex(0, np.nan), complex(np.nan, 0)):
        with pytest.raises(ValueError):
            op_norm([[bad, 0], [0, 1]])


def test_cstar_identity_property():
    rng = np.random.default_rng(101)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m *= 10.0 / max(op_norm(m), 1.0)
        assert abs(op_norm(m.conj().T @ m) - op_norm(m) ** 2) <= 1e-8


def test_op_norm_submultiplicative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10


def test_lambda_min_examples():
    assert lambda_min(np.diag([1.0, -2.0])) == pytest.approx(-2.0)
    # 2x2 eigenvalue formula: eigenvalues of [[0,1],[1,0]] are +-1
    assert lambda_min([[0, 1], [1, 0]]) == pytest.approx(-1.0)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert lambda_min(g @ g.conj().T) >= -1e-12


def test_lambda_min_rejects_non_hermitian():
    with pytest.raises(ValueError):
        lambda_min([[0, 1], [0, 0]])


def test_dist_to_psd_examples():
    assert dist_to_psd(np.diag([1.0, -2.0])) == pytest.approx(2.0)
    assert dist_to_psd(np.eye(3)) == 0.0
    # characteristic polynomial (x+1)(x-2)^2
    m = np.array([[1, 1, -1], [1, 1, 1], [-1, 1, 1]], dtype=float)
    assert dist_to_psd(m) == pytest.approx(1.0, abs=1e-12)


def test_dist_to_psd_zero_iff_lambda_min_nonneg():
    rng = np.random.default_rng(12)
    for _ in range(40):
        h = rng.standard_normal((3, 3))
        h = (h + h.T) / 2
        assert (dist_to_psd(h) == 0.0) == (lambda_min(h) >= -EIG_TOL)


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    # a projection is its own square root
    assert np.allclose(psd_sqrt(np.eye(2) - E11), np.eye(2) - E11)


def test_psd_sqrt_reconstructs():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = g @ g.conj().T
        s = psd_sqrt(h)
        assert op_norm(s @ s - h) <= 10 * EIG_TOL * max(1.0, op_norm(h))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPsdError):
        psd_sqrt(np.diag([1.0, -0.1]))


def test_block_examples():
    a = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(block([[a]]), a)
    assert np.array_equal(block([[1, 0], [0, 1]]), np.eye(2))
    got = block([[0, 1, 1, 0], [2, 1, 1, 0]])
    assert np.array_equal(got, np.array([[0, 1, 1, 0], [2, 1, 1, 0]], dtype=complex))


def test_block_shape_mismatch():
    with pytest.raises(ValueError):
        block([[np.eye(2), np.eye(3)]])
    with pytest.raises(ValueError):
        block([[np.eye(2)], [np.eye(3)]])


def test_amplify():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(amplify(m, 1), m)
    assert np.allclose(amplify(np.array([[2.0]]), 3), 2 * np.eye(3))
    with pytest.raises(ValueError):
        amplify(m, 0)


@pytest.mark.parametrize("build", [
    lambda: UcpMap(-1, -1, [[1]]),  # (-1)(-1) matches the 1 x 1 Choi matrix
    lambda: UcpMap(1.0, 1, [[1]]),
    lambda: random_ucp(0, 1, 5),
    lambda: Amp(Var("x"), 2.5),
    lambda: Amp(Var("x"), True),
    lambda: amplify(np.eye(2), True),
    lambda: canonicalize([], 2.5),
    lambda: canonicalize([], 0),
    lambda: EvalConfig(multistart=2.5),
    lambda: EvalConfig(max_iter=0),
    lambda: unitary_detect(np.diag([1.0, 0.5]), 0),
], ids=["ucp-negative", "ucp-float", "random-ucp", "amp-float", "amp-bool", "amplify-bool",
        "canonicalize-float", "canonicalize-zero", "multistart-float", "max-iter-zero",
        "detect-zero"])
def test_counts_are_integers_at_least_one(build):
    with pytest.raises(ValueError, match="integer >= 1"):
        build()


def test_counts_accept_numpy_integers():
    two = np.int64(2)
    assert amplify(np.eye(1), two).shape == (2, 2)
    assert type(Amp(Var("x"), two).copies) is int
    assert canonicalize([], two).ambient_dim == 2


def test_unitary_log_reconstructs():
    rng = np.random.default_rng(41)
    cases = [haar_unitary(rng, d) for d in (1, 2, 3, 4) for _ in range(5)]
    cases += [np.eye(2), -np.eye(2), np.diag([1.0, 1.0, -1.0])]  # degenerate spectra
    for u in cases:
        h = unitary_log(u)
        assert is_hermitian(h)
        assert op_norm(h) <= np.pi + 1e-12
        assert op_norm(exp_i_hermitian(h) - u) <= 1e-12


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 8, 16]),
       st.sampled_from(["haar", "repeated", "cluster", "decompose"]),
       st.integers(0, 2**32 - 1))
def test_unitary_log_reconstructs_every_spectrum(d, kind, seed):
    # repeated and clustered eigenvalues included; at an eigenvalue -1 either
    # sign of pi is a valid logarithm, so only the reconstruction is asserted
    rng = np.random.default_rng(seed)
    if kind == "decompose":
        u = unitary_average_decompose(random_contraction(rng, d))[int(rng.integers(4))]
    else:
        u = _unitary(rng, d, kind)
    h = unitary_log(u)
    assert is_hermitian(h)
    assert op_norm(h) <= np.pi + 1e-12
    assert op_norm(exp_i_hermitian(h) - u) <= 1e-12


@pytest.mark.parametrize("m", [0.5 * np.eye(2), [[0, 2], [0, 0]], np.ones((2, 3))],
                         ids=["half-identity", "nilpotent", "non-square"])
def test_unitary_log_rejects_non_unitary(m):
    # off the unitary group no generator reproduces m
    with pytest.raises(ValueError):
        unitary_log(m)


def test_amplify_norm_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for n in (1, 2, 3, 4):
            assert amplify(m, n).shape == (3 * n, 3 * n)
            assert op_norm(amplify(m, n)) == pytest.approx(op_norm(m), rel=1e-10)


def test_json_round_trip():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    obj = matrix_to_json(m)
    text = json.dumps(obj)
    back = matrix_from_json(json.loads(text))
    assert np.max(np.abs(back - m)) <= 1e-15 * np.max(np.abs(m))


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 0, "cols": 1, "data": []})
    with pytest.raises(ValueError):
        matrix_from_json([1, 2, 3])


def test_haar_unitary_and_contraction():
    rng = np.random.default_rng(33)
    u = haar_unitary(rng, 4)
    assert op_norm(u @ u.conj().T - np.eye(4)) <= 1e-12
    for _ in range(10):
        x = random_contraction(rng, 3)
        assert op_norm(x) <= 1.0 + 1e-12
