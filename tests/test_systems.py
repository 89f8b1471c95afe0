"""Unit tests for operator systems and the certified span distance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsyslab import (
    canonicalize,
    diagonal_algebra,
    dist_bracket,
    dist_to_system,
    full_matrix_algebra,
    is_product_closed,
    op_norm,
    sample_ball,
    system_from_json,
    system_to_json,
    unitary_defect,
)
from strategies import _conjugated, _direct_sum, _ginibre, _random_system

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.conj().T


def test_canonicalize_examples():
    assert canonicalize([], 2).dim == 1
    s = canonicalize([E12], 2)
    assert s.dim == 3  # adjoint closure adds e21, the unit is added
    assert canonicalize([np.eye(2), E11], 2).dim == 2


def test_canonicalize_validates_shapes():
    with pytest.raises(ValueError):
        canonicalize([np.eye(3)], 2)


def test_canonicalize_idempotent():
    s = canonicalize([E12, E11 - np.eye(2) / 2], 2)
    again = canonicalize(list(s.basis), 2)
    assert again.dim == s.dim
    for b in again.basis:
        assert s.membership_residual(b) <= 1e-9
    for b in s.basis:
        assert again.membership_residual(b) <= 1e-9


def test_span_is_star_closed_and_unital():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = canonicalize([g], 3)
    s.validate()


def test_dist_examples():
    s = canonicalize([E12], 2)
    assert dist_to_system(E11, s) == pytest.approx(0.5, abs=1e-6)
    span_i = canonicalize([], 2)
    assert dist_to_system(E12, span_i) == pytest.approx(1.0, abs=1e-6)
    member = 0.3 * np.eye(2) + (0.2 + 0.1j) * E12
    assert dist_to_system(member, s) <= 1e-6


def test_dist_dimension_mismatch():
    s = canonicalize([], 2)
    with pytest.raises(ValueError):
        dist_to_system(np.eye(3), s)


def test_dist_members_vanish_and_lipschitz():
    rng = np.random.default_rng(4)
    s = canonicalize([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))], 3)
    for _ in range(5):
        c = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
        member = s.from_coords(c)
        assert dist_to_system(member, s) <= 1e-8
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = x + 0.1 * (rng.standard_normal((3, 3)))
    assert abs(dist_to_system(x, s) - dist_to_system(y, s)) <= op_norm(x - y) + 1e-8


def test_dist_agrees_with_local_search():
    # sanity against scipy on a small random instance
    from scipy.optimize import minimize

    rng = np.random.default_rng(8)
    s = canonicalize([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))], 2)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

    def objective(c):
        a = s.from_coords(c[0::2] + 1j * c[1::2])
        return op_norm(x - a)

    best = np.inf
    for _ in range(8):
        res = minimize(objective, rng.standard_normal(2 * s.dim), method="Nelder-Mead",
                       options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12})
        best = min(best, res.fun)
    assert dist_to_system(x, s) == pytest.approx(best, abs=1e-4)


def test_product_closure_oracle():
    closed, defect = is_product_closed(full_matrix_algebra(2))
    assert closed and defect <= 1e-9
    closed, defect = is_product_closed(canonicalize([E12], 2))
    assert not closed
    assert defect == pytest.approx(0.5, abs=1e-6)
    closed, defect = is_product_closed(diagonal_algebra(2))
    assert closed and defect <= 1e-9


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.sampled_from(["span", "diag", "two"]), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_dist_bracket_certifies_distance(family, d, seed):
    rng = np.random.default_rng(seed)
    s = _random_system(family, d, rng)
    x = rng.uniform(0.1, 3.0) * _ginibre(rng, d)
    lower, upper = dist_bracket(x, s)
    sv = np.linalg.svd(x - s.project(x), compute_uv=False)  # singular values of R = x - P(x)
    assert lower <= upper
    assert upper - lower <= 1e-7 * max(1.0, upper)
    # R is HS-orthogonal to the span, so ||R||_F^2 / ||R||_1 is a dual bound
    # the certificate must match, and R's own norm is a feasible value
    if sv.sum() > 0:
        assert lower >= sv @ sv / sv.sum() - 1e-12
    assert upper <= sv[0] + 1e-9
    assert upper == dist_to_system(x, s)
    # the span is *-closed and the norm *-invariant
    assert abs(dist_to_system(x.conj().T, s) - upper) <= 1e-9


def _no_barrier_stage(m):
    raise AssertionError("the span-distance solver built a barrier stage")


def test_closed_spans_run_no_barrier_stage(monkeypatch):
    # every product of a C*-algebra lies in its span, so each pair's projection
    # start already certifies a gap under _GAP_TOL and the solver stops there
    from opsyslab import systems

    monkeypatch.setattr(systems, "_dilation", _no_barrier_stage)
    rng = np.random.default_rng(41)
    closed_spans = [*(full_matrix_algebra(d) for d in (1, 2, 4, 8)), diagonal_algebra(16),
                    _direct_sum(rng, (2, 2, 4)), _direct_sum(rng, (4, 4, 8))]
    for s in closed_spans:
        closed, defect = is_product_closed(s)
        assert closed and defect <= 1e-14


def test_codimension_one_complement_is_exact(monkeypatch):
    # the complement of span{1, e12, e21} in M_2 is spanned by e11 - e22, so every
    # residual has equal singular values and the projection start is the optimum
    from opsyslab import systems

    monkeypatch.setattr(systems, "_dilation", _no_barrier_stage)
    s = canonicalize([E12], 2)
    lower, upper = dist_bracket(E11, s)
    assert lower == pytest.approx(0.5, abs=1e-15) and upper == pytest.approx(0.5, abs=1e-15)
    assert is_product_closed(s)[1] == pytest.approx(0.5, abs=1e-15)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(["span", "diag", "two"]), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_members_bracket_zero(family, d, seed):
    rng = np.random.default_rng(seed)
    s = _random_system(family, d, rng)
    x = s.from_coords(rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim))
    lower, upper = dist_bracket(x, s)
    assert 0 <= lower <= upper <= 1e-13


def test_dist_to_system_reports_non_convergence(monkeypatch):
    from opsyslab import systems

    monkeypatch.setattr(systems, "_min_affine_spectral", lambda m0, basis: (0.5, 0.5 + 1e-6))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        dist_to_system(E11, canonicalize([E12], 2))


def test_product_closure_halving_matches_all_pairs():
    rng = np.random.default_rng(31)
    e = np.eye(3)
    m2_plus_c = [np.outer(e[i], e[j]) for i, j in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]]
    systems = [full_matrix_algebra(2), diagonal_algebra(3), _conjugated(rng, m2_plus_c),
               canonicalize([E12], 2), _random_system("span", 3, rng),
               _random_system("two", 3, rng)]
    for s, closed_expected in zip(systems, [True] * 3 + [False] * 3):
        closed, defect = is_product_closed(s)
        all_pairs = max(dist_to_system(bi @ bj.conj().T, s) for bi in s.basis for bj in s.basis)
        assert closed == closed_expected == (all_pairs <= 1e-9)
        assert abs(defect - all_pairs) <= 1e-9


def test_closed_spans_absorb_products():
    rng = np.random.default_rng(23)
    system = diagonal_algebra(3)
    xs = sample_ball(system, 1.0, 99, 6)
    for a in xs:
        for b in xs:
            assert dist_to_system(a @ b, system) <= 1e-6


def test_unitary_defect():
    assert unitary_defect(np.eye(3)) == 0.0
    assert unitary_defect(np.diag([1.0, 0.5])) == pytest.approx(0.75)
    assert unitary_defect(E12 + E21) <= 1e-15


def test_sample_ball_contract():
    system = canonicalize([E12], 2)
    xs = sample_ball(system, 1.0, 42, 20)
    assert len(xs) == 20
    assert all(op_norm(x) <= 1.0 + 1e-12 for x in xs)
    ys = sample_ball(system, 1.0, 42, 20)
    assert all(np.array_equal(x, y) for x, y in zip(xs, ys))
    assert sample_ball(system, 1.0, 42, 0) == []


@pytest.mark.parametrize("radius", [0.0, float("inf"), True, 1j])
def test_ball_spec_validation(radius):
    # the radius rule of Ball: a finite real number above 0, not a bool
    with pytest.raises(ValueError):
        sample_ball(canonicalize([], 2), radius, 42, 1)


@pytest.mark.parametrize("seed, count", [(True, 1), (1.5, 1), (42, 1.5)])
def test_sample_ball_rejects_non_integer_seed_and_count(seed, count):
    # the seed and count rules of EvalConfig: an integer, not a bool
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        sample_ball(canonicalize([E12], 2), 1.0, seed, count)


def test_system_json_round_trip():
    s = canonicalize([E12], 2)
    back = system_from_json(system_to_json(s))
    assert back.dim == s.dim
    for b in back.basis:
        assert s.membership_residual(b) <= 1e-12


def test_hermitian_basis_spans_hermitian_part():
    s = canonicalize([E12], 2)
    hb = s.hermitian_basis
    assert len(hb) == s.dim
    for h in hb:
        assert op_norm(h - h.conj().T) <= 1e-12
        assert s.membership_residual(h) <= 1e-10
