"""Unit tests for u.c.p. maps, the Schwarz-type inequalities, and the probes."""

import numpy as np
import pytest

from opsyslab import (
    UcpMap,
    apply_map,
    clock_shift_unitaries,
    cs_inequality_residual,
    haar_unitary,
    isometry_check,
    kadison_schwarz_defect,
    mult_domain_defect,
    op_norm,
    pisier_check,
    random_contraction,
    random_ucp,
    ucp_from_json,
    ucp_to_json,
    unitary_defect,
)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.conj().T


def test_apply_examples():
    ident = UcpMap.identity(2)
    assert np.allclose(apply_map(ident, E12), E12)
    expectation = UcpMap.diagonal_expectation(2)
    assert np.allclose(apply_map(expectation, E12), 0)
    assert np.allclose(apply_map(expectation, E11), E11)
    rng = np.random.default_rng(2)
    u = haar_unitary(rng, 3)
    conj = UcpMap.conjugation(u)
    x = random_contraction(rng, 3)
    assert np.allclose(apply_map(conj, x), u.conj().T @ x @ u)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_map(UcpMap.identity(2), np.eye(3))


def test_apply_is_linear():
    rng = np.random.default_rng(5)
    phi = random_ucp(3, 2, 17)
    x, y = random_contraction(rng, 3), random_contraction(rng, 3)
    lhs = apply_map(phi, 2 * x + 1j * y)
    rhs = 2 * apply_map(phi, x) + 1j * apply_map(phi, y)
    assert np.allclose(lhs, rhs)


def test_kadison_schwarz_examples():
    assert abs(kadison_schwarz_defect(UcpMap.identity(2), E12)) <= 1e-10
    assert kadison_schwarz_defect(UcpMap.diagonal_expectation(2), E12) == \
        pytest.approx(0.0, abs=1e-12)


def test_cs_examples():
    ident = UcpMap.identity(2)
    assert cs_inequality_residual(ident, E12, E11) == pytest.approx(0.0, abs=1e-10)
    expectation = UcpMap.diagonal_expectation(2)
    assert cs_inequality_residual(expectation, E12, np.eye(2)) == \
        pytest.approx(0.0, abs=1e-10)


def test_inequalities_over_population():
    rng = np.random.default_rng(11)
    for i in range(200):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        phi = random_ucp(d, k, 40_000 + i)
        x = random_contraction(rng, d)
        y = random_contraction(rng, d)
        assert kadison_schwarz_defect(phi, x) >= -1e-9
        assert cs_inequality_residual(phi, x, y) >= -1e-9


def test_non_ucp_rejected():
    transpose = UcpMap.transpose_map(2)
    # the Choi matrix of the transpose is the swap; its smallest eigenvalue is -1
    assert transpose.cp_defect == pytest.approx(1.0, abs=1e-12)
    assert transpose.unital_defect <= 1e-12
    with pytest.raises(ValueError):
        kadison_schwarz_defect(transpose, E12)


def test_mult_domain_examples():
    ident = UcpMap.identity(2)
    rng = np.random.default_rng(9)
    assert mult_domain_defect(ident, random_contraction(rng, 2)) <= 1e-12
    expectation = UcpMap.diagonal_expectation(2)
    assert mult_domain_defect(expectation, E11) <= 1e-12
    assert mult_domain_defect(expectation, E12 + E21) == pytest.approx(1.0)


def test_mult_domain_adjoint_symmetric():
    rng = np.random.default_rng(29)
    phi = random_ucp(3, 3, 77)
    for _ in range(10):
        a = random_contraction(rng, 3)
        assert mult_domain_defect(phi, a) == pytest.approx(
            mult_domain_defect(phi, a.conj().T), abs=1e-12)


def test_pisier_fixtures():
    rng = np.random.default_rng(15)
    units = clock_shift_unitaries(2)
    pairs = [(random_contraction(rng, 2), random_contraction(rng, 2)) for _ in range(6)]

    conj = UcpMap.conjugation(haar_unitary(rng, 2))
    rep = pisier_check(conj, units, pairs)
    assert rep.unitary_preservation_defect <= 1e-9
    assert rep.hom_defect <= 1e-9

    embed = UcpMap.direct_sum_embedding(2)
    rep = pisier_check(embed, units, pairs)
    assert rep.unitary_preservation_defect <= 1e-9
    assert rep.hom_defect <= 1e-9

    expectation = UcpMap.diagonal_expectation(2)
    rep = pisier_check(expectation, units, pairs + [(E12, E21)])
    assert rep.unitary_preservation_defect >= 0.99
    assert rep.hom_defect >= 0.99  # implication not violated: hypothesis fails too


def test_pisier_quantitative_probe():
    # over a random population, near-preservation of spanning unitaries forces
    # near-multiplicativity (vacuous for most draws; checked where it fires)
    rng = np.random.default_rng(19)
    units = clock_shift_unitaries(2)
    for i in range(100):
        phi = random_ucp(2, 2, 90_000 + i)
        rep = pisier_check(
            phi, units,
            [(random_contraction(rng, 2), random_contraction(rng, 2)) for _ in range(4)],
        )
        if rep.unitary_preservation_defect <= 1e-6:
            assert rep.hom_defect <= 1e-4


def test_isometry_fixtures():
    rng = np.random.default_rng(23)
    trials = [random_contraction(rng, 3) for _ in range(8)]
    conj = UcpMap.conjugation(haar_unitary(rng, 3))
    rep = isometry_check(conj, trials)
    assert rep.isometry_defect <= 1e-9
    assert rep.hom_defect <= 1e-9
    assert rep.preimage_unitary_defect <= 1e-8

    ident = UcpMap.identity(2)
    rep = isometry_check(ident, [random_contraction(rng, 2) for _ in range(4)])
    assert rep.isometry_defect == 0.0
    assert rep.hom_defect <= 1e-12


def test_isometry_rejects_transpose_at_precondition():
    with pytest.raises(ValueError):
        isometry_check(UcpMap.transpose_map(2), [np.eye(2)])


def test_isometry_rejects_non_invertible():
    # rank-one conditional expectation onto the scalars is not injective
    trace_map = UcpMap.from_function(lambda x: np.trace(x) / 2 * np.eye(2), 2, 2)
    trace_map.require_ucp()
    with pytest.raises(ValueError):
        isometry_check(trace_map, [np.eye(2)])


def test_random_ucp_contract():
    phi = random_ucp(3, 2, 123)
    assert phi.cp_defect <= 1e-10
    assert phi.unital_defect <= 1e-8
    again = random_ucp(3, 2, 123)
    assert np.array_equal(phi.choi, again.choi)
    scalar = random_ucp(1, 1, 5)
    assert np.allclose(scalar.choi, 1.0)


@pytest.mark.parametrize("seed", [True, 1.5, -1])
def test_random_ucp_rejects_non_count_seed(seed):
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        random_ucp(2, 2, seed)


def test_from_function_rejects_wrong_image_shape():
    # a 1 x 1 image would broadcast over each 2 x 2 Choi block
    with pytest.raises(ValueError, match="expected a 2 x 2 image"):
        UcpMap.from_function(lambda x: np.trace(x), 2, 2)
    with pytest.raises(ValueError, match="expected a 3 x 3 image"):
        UcpMap.from_function(lambda x: x, 2, 3)


def test_choi_round_trip():
    phi = random_ucp(2, 3, 31)
    back = ucp_from_json(ucp_to_json(phi))
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            assert op_norm(apply_map(back, e) - apply_map(phi, e)) <= 1e-12


def test_clock_shift_spans():
    units = clock_shift_unitaries(3)
    assert len(units) == 9
    for u in units:
        assert unitary_defect(u) <= 1e-12
    stack = np.stack([u.reshape(-1) for u in units])
    assert np.linalg.matrix_rank(stack) == 9
