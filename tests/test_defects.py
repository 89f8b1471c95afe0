"""Unit tests for the detection formulas and their exact-oracle counterparts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsyslab import (
    OPT_TOL,
    UNITARY_PLATEAU,
    Const,
    EvalConfig,
    Exact,
    block,
    canonicalize,
    closure_gap,
    closure_sentence,
    completion_witness,
    diagonal_algebra,
    dist_bracket,
    dist_to_psd,
    evaluate,
    exp_i_hermitian,
    full_matrix_algebra,
    haar_unitary,
    hermitian_part,
    lambda_min,
    multiplication_predicate,
    op_norm,
    product_certificate_sentence,
    product_closure_defect,
    product_distance,
    psd_sqrt,
    random_contraction,
    random_hermitian,
    sample_ball,
    unitarity_score,
    unitary_average_decompose,
    unitary_defect,
    unitary_detect,
    unitary_log,
    unitary_product_gap,
    unitary_span_defect,
    walter_matrix,
)
from strategies import _conjugated, _direct_sum

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.conj().T

FAST = EvalConfig(multistart=8, max_iter=400, rng_seed=5)


# -- input checks ----------------------------------------------------------------

WIDE = np.ones((2, 3))


@pytest.mark.parametrize("fn, arg", [
    (hermitian_part, WIDE),
    (lambda_min, WIDE),
    (dist_to_psd, WIDE),
    (psd_sqrt, WIDE),
    (unitary_defect, WIDE),
    (unitary_log, WIDE),
    (exp_i_hermitian, WIDE),
    (unitarity_score, WIDE),
    (unitary_average_decompose, WIDE),
    (lambda m: closure_gap(m, m, m, m), WIDE),
    (lambda m: walter_matrix(m, m, m), WIDE),
    (unitarity_score, 2 * np.eye(2)),
    (unitary_average_decompose, 2 * np.eye(2)),
], ids=["hermitian_part", "lambda_min", "dist_to_psd", "psd_sqrt", "unitary_defect",
        "unitary_log", "exp_i_hermitian", "unitarity_score", "unitary_average_decompose",
        "closure_gap", "walter_matrix", "unitarity_score-expansion",
        "unitary_average_decompose-expansion"])
def test_matrix_arguments_are_checked(fn, arg):
    # a 2x3 matrix is not square; 2.1 is not a contraction
    with pytest.raises(ValueError):
        fn(arg)


# -- closure gap and completion witness --------------------------------------

def test_closure_gap_scalar_examples():
    assert closure_gap(0, 0, 0, 0) == pytest.approx(0.0, abs=1e-12)
    # z = -xy* kills the cross block; both squared norms equal 6
    assert closure_gap(1, 1, -1, 0) == pytest.approx(0.0, abs=1e-12)
    # lambda_max([[2,2],[2,6]]) = 4 + 2 sqrt(2) against 6
    assert closure_gap(1, 1, 1, 0) == pytest.approx(2 * np.sqrt(2) - 2, abs=1e-12)


def test_closure_gap_dimension_mismatch():
    with pytest.raises(ValueError):
        closure_gap(np.eye(2), np.eye(3), np.eye(2), np.eye(2))


def test_completion_witness_examples():
    assert np.allclose(completion_witness(1, 0), 0)
    assert np.allclose(completion_witness(E12, np.zeros((2, 2))),
                       np.array([[0, 0], [0, 1]]))


def test_completion_witness_row_identity():
    rng = np.random.default_rng(71)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        x = random_contraction(rng, d)
        z = random_contraction(rng, d)
        b = completion_witness(x, z)
        assert op_norm(b) ** 2 <= op_norm(x @ x.conj().T + z @ z.conj().T) + 1e-12
        row = block([[2 * np.eye(d), x, z, b]])
        target = 4 + op_norm(x @ x.conj().T + z @ z.conj().T)
        assert abs(op_norm(row) ** 2 - target) <= 1e-8


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.sampled_from(["full", "sum"]), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_completion_witness_attains_the_sup_over_b(family, d, seed):
    # B = M_d or a conjugated M_(d-1) + M_1; x, y, z in B's unit ball
    rng = np.random.default_rng(seed)
    B = full_matrix_algebra(d) if family == "full" else _direct_sum(rng, [d - 1, 1])
    x, y, z = sample_ball(B, 1.0, seed, 3)
    closed = closure_gap(x, y, z, completion_witness(x, z))
    # sup_{b in B_2} closure_gap(x, y, z, b)
    sentence = multiplication_predicate(Const(x), Const(y), Const(z))
    search = evaluate(sentence, {"B": B}, EvalConfig(32, 4000))
    assert closed >= search.value - 1e-12
    exact = evaluate(sentence, {"B": B}, hints=[{"b": Exact(completion_witness(x, z))}])
    assert exact.value == pytest.approx(closed, abs=1e-12)
    # one eigh gives lambda_max and the roots; psd_sqrt takes them apart, so
    # the two agree up to rounding, not bit for bit
    b = completion_witness(x, z)
    s = x @ x.conj().T + z @ z.conj().T
    assert np.allclose(b, psd_sqrt(op_norm(s) * np.eye(d) - s), atol=1e-12)
    assert np.allclose(b, b.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(b)[0] >= -1e-12


# -- the triple-quantified closure sentence -----------------------------------

def test_closure_defect_closed_structures():
    r = product_closure_defect(full_matrix_algebra(2), full_matrix_algebra(2), FAST)
    assert r.defect <= 0.05
    assert r.bound_check <= 4 * np.sqrt(max(r.defect, 0.0)) + OPT_TOL
    r = product_closure_defect(diagonal_algebra(2), full_matrix_algebra(2), FAST)
    assert r.defect <= 0.05


def test_closure_defect_open_structure():
    r = product_closure_defect(canonicalize([E12], 2), full_matrix_algebra(2), FAST)
    assert r.defect >= 1 / 64 - OPT_TOL
    assert r.bound_check <= 4 * np.sqrt(r.defect) + OPT_TOL
    # the search trajectory is pinned bit for bit
    assert r.defect == 0.06523350739673894
    assert r.bound_check == 0.5326024998594794


def test_closure_leaf_is_answered_at_the_completion_witness():
    # the default call: each sup_b scores its exact hint alone
    from opsyslab.defects import _closure_hints

    system = canonicalize([E12], 2)
    r = evaluate(closure_sentence(), {"A": system, "B": full_matrix_algebra(2)},
                 hints=_closure_hints(system))
    leaf = r.stats[-1]
    assert leaf.searches == leaf.evaluations == 2179
    assert leaf.polish_runs == leaf.repeats == leaf.budget_exhausted == 0
    assert sum(s.budget_exhausted for s in r.stats) == 48


def _conjugated_m2(seed):
    # span{1, g, g*} and M_2, conjugated by one Haar unitary (_conjugated draws it first)
    units = [np.outer(e, f) for e in np.eye(2) for f in np.eye(2)]
    return (_conjugated(np.random.default_rng(seed), [E12]),
            _conjugated(np.random.default_rng(seed), units))


@pytest.mark.parametrize("case", [
    lambda: (canonicalize([E12], 2), full_matrix_algebra(2), FAST),
    lambda: (full_matrix_algebra(2), full_matrix_algebra(2), FAST),
    lambda: (diagonal_algebra(2), full_matrix_algebra(2), FAST),
    lambda: (*_conjugated_m2(3), EvalConfig()),
    lambda: (*_conjugated_m2(4), EvalConfig()),
], ids=["span-e12", "m2", "diag2", "conjugated-3", "conjugated-4"])
def test_closure_defect_lies_in_its_bracket(case):
    # at the reported (x, y), with w = ||xy* + z|| and c <= 6:
    #   lower: the value is at least phi(w, c) >= (sqrt(25 + 4w^2) - 5)/2, and
    #          w >= dist(xy*, A) >= t, the certified lower end of dist_bracket;
    #   upper: the inf over z scores its hint, -xy* projected onto A and
    #          scaled into A_1, where sup_b is the completion witness's value.
    # 1e-12 absorbs rounding: a closed system gives a few 1e-15 against 0.
    A, B, config = case()
    r = product_closure_defect(A, B, config)
    x, y = r.worst_pair
    t = dist_bracket(x @ y.conj().T, A)[0]
    lower = (np.sqrt(25 + 4 * t ** 2) - 5) / 2
    z = A.project(-x @ y.conj().T)
    z /= max(1.0, op_norm(z))
    upper = closure_gap(x, y, z, completion_witness(x, z))
    assert lower - 1e-12 <= r.defect <= upper + 1e-12


def test_closure_hints_solve_no_sdp(monkeypatch):
    # the outer pairs are ranked by Hilbert-Schmidt residual, not by span distance
    import opsyslab.systems as systems
    from opsyslab.defects import _closure_hints

    system = canonicalize([E12], 2)
    calls = []
    solver = systems._min_affine_spectral
    monkeypatch.setattr(systems, "_min_affine_spectral",
                        lambda *args: calls.append(args) or solver(*args))
    _closure_hints(system)
    assert calls == []


def test_closure_requires_containment():
    with pytest.raises(ValueError):
        product_closure_defect(full_matrix_algebra(2), diagonal_algebra(2), FAST)


def test_closure_hinted_converse_stays_flat():
    # with z = -xy* the gap vanishes for every b, so the sup over b stays at zero
    rng = np.random.default_rng(2)
    system = full_matrix_algebra(2)
    for _ in range(20):
        x = random_contraction(rng, 2)
        y = random_contraction(rng, 2)
        z = -x @ y.conj().T
        b = random_contraction(rng, 2, radius=2.0)
        assert closure_gap(x, y, z, b) <= 1e-12


# -- unitarity scores ----------------------------------------------------------

def test_plateau_constant_oracle():
    # at a unitary u (x) 1_n both concatenations have squared norm 1 + ||x||^2
    rng = np.random.default_rng(31)
    for d, n in ((1, 1), (2, 1), (2, 2), (3, 2)):
        u = np.kron(haar_unitary(rng, d), np.eye(n))
        for _ in range(5):
            m = d * n
            x = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2 * m)
            row = np.linalg.norm(np.hstack([u, x]), 2) ** 2
            col = np.linalg.norm(np.vstack([u, x]), 2) ** 2
            body = min(row, col) - np.linalg.norm(x, 2) ** 2
            assert body == pytest.approx(UNITARY_PLATEAU, abs=1e-12)


def test_score_examples():
    assert unitarity_score(np.eye(1), 1, FAST) == pytest.approx(1.0, abs=1e-9)
    assert unitarity_score(np.zeros((1, 1)), 1, FAST) == pytest.approx(0.0, abs=1e-9)
    assert unitarity_score(np.diag([1.0, 0.5]), 1, FAST) < 1.0 - 0.05


def test_score_rejects_expansion():
    with pytest.raises(ValueError):
        unitarity_score(2 * np.eye(2), 1, FAST)


def test_score_constant_at_unitaries():
    rng = np.random.default_rng(13)
    values = [unitarity_score(haar_unitary(rng, 2), n, FAST)
              for n in (1, 2) for _ in range(3)]
    assert max(values) - min(values) <= 2 * OPT_TOL
    assert abs(values[0] - UNITARY_PLATEAU) <= OPT_TOL


def test_detect_examples():
    assert unitary_detect(E12 + E21, 2, FAST)
    assert not unitary_detect(np.diag([1.0, 0.5]), 2, FAST)
    assert not unitary_detect(0.5 * np.eye(1), 2, FAST)


# -- positivity certificate ----------------------------------------------------

def test_walter_fixed_instance():
    w = walter_matrix(1, 1, 1)
    assert np.linalg.eigvalsh(w)[0] == pytest.approx(0.0, abs=1e-12)
    w = walter_matrix(1, 1, -1)
    # characteristic polynomial (x+1)(x-2)^2
    assert np.allclose(np.linalg.eigvalsh(w), [-1, 2, 2])
    assert dist_to_psd(w) == pytest.approx(1.0, abs=1e-10)


def test_walter_detects_products():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        u, v = haar_unitary(rng, d), haar_unitary(rng, d)
        assert dist_to_psd(walter_matrix(u, v, u @ v)) <= 1e-9
        p = random_hermitian(rng, d)
        perturbed = walter_matrix(u, v, u @ v + 0.1 * p)
        assert dist_to_psd(perturbed) > 0.0


def test_walter_matrix_is_hermitian():
    rng = np.random.default_rng(37)
    u, v = haar_unitary(rng, 2), haar_unitary(rng, 2)
    fixed = walter_matrix(u, v, u @ v)
    assert op_norm(fixed - fixed.conj().T) <= 1e-12


def test_certificate_sentence_on_algebra():
    r = evaluate(product_certificate_sentence(), {"A": full_matrix_algebra(2)},
                 FAST, hints=[{"x": lambda env: env["u"] @ env["v"]}])
    assert r.value <= OPT_TOL


# -- averages of four unitaries --------------------------------------------------

def test_decompose_examples():
    u1, u2, u3, u4 = unitary_average_decompose(np.zeros((2, 2)))
    assert np.allclose((u1 + u2 + u3 + u4) / 2, 0, atol=1e-12)
    u1, u2, u3, u4 = unitary_average_decompose(np.eye(2))
    assert np.allclose(u1, np.eye(2)) and np.allclose(u2, np.eye(2))
    assert np.allclose((u1 + u2 + u3 + u4) / 2, np.eye(2), atol=1e-12)


def test_decompose_property():
    rng = np.random.default_rng(43)
    for _ in range(50):
        x = random_contraction(rng, 3)
        units = unitary_average_decompose(x)
        assert op_norm(sum(units) / 2 - x) <= 1e-9
        assert max(unitary_defect(u) for u in units) <= 1e-9


def test_decompose_rejects_expansion():
    with pytest.raises(ValueError):
        unitary_average_decompose(1.5 * np.eye(2))


def test_unitary_span_defect_fixtures():
    assert unitary_span_defect(full_matrix_algebra(2), FAST) <= OPT_TOL
    assert unitary_span_defect(canonicalize([], 2), FAST) <= OPT_TOL
    assert unitary_span_defect(diagonal_algebra(2), FAST) <= OPT_TOL


def test_unitary_span_defect_rejects_open_structure():
    with pytest.raises(ValueError):
        unitary_span_defect(canonicalize([E12], 2), FAST)


# -- unitary products and the exact product distance -----------------------------

def test_product_gap_examples():
    assert unitary_product_gap(1, 1, 1) == pytest.approx(0.0, abs=1e-12)
    assert unitary_product_gap(1, 1, -1) == pytest.approx(2.0, abs=1e-12)
    assert unitary_product_gap(1j, 1, 1j) == pytest.approx(0.0, abs=1e-12)


def test_product_gap_identity():
    rng = np.random.default_rng(47)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        u, v, w = (haar_unitary(rng, d) for _ in range(3))
        assert abs(unitary_product_gap(u, v, w) - op_norm(u - w @ v)) <= 1e-8


def test_product_distance_examples():
    m2 = full_matrix_algebra(2)
    x = random_contraction(np.random.default_rng(3), 2)
    assert product_distance(x, x, x @ x, m2) <= 1e-12
    assert product_distance(np.eye(2), np.eye(2), np.zeros((2, 2)), m2) == pytest.approx(1.0)
    assert product_distance(E12, E21, np.zeros((2, 2)), m2) == pytest.approx(1.0)


def test_product_distance_membership():
    m2 = full_matrix_algebra(2)
    with pytest.raises(ValueError):
        product_distance(np.eye(3), np.eye(3), np.eye(3), m2)
    diag = diagonal_algebra(2)
    with pytest.raises(ValueError):
        product_distance(E12, E12, np.zeros((2, 2)), diag)
