"""Unit tests for the sentence AST and its optimizing evaluator."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsyslab import (
    AbsDiff,
    Adj,
    Amp,
    Ball,
    Block,
    Const,
    DotMinus,
    EvalConfig,
    Exact,
    Inf,
    Lit,
    Max,
    Min,
    NestingDepthError,
    Norm,
    NormSq,
    OPT_TOL,
    Plus,
    Prod,
    PsdDist,
    Scale,
    SpanDist,
    Sum,
    Sup,
    Times,
    Unit,
    Var,
    canonicalize,
    closure_sentence,
    diagonal_algebra,
    evaluate,
    four_unitary_sentence,
    free_variables,
    full_matrix_algebra,
    op_norm,
    product_certificate_sentence,
    sample_ball,
    sentence_from_json,
    sentence_to_json,
)
from opsyslab.defects import unitarity_score_formula
from opsyslab.logic import _children, _spec_norm, _structure_seed
from opsyslab.systems import _combine

from strategies import _random_system

E12 = np.array([[0, 1], [0, 0]], dtype=complex)

FAST = EvalConfig(multistart=8, max_iter=400, rng_seed=7)


def test_sup_ball_constraint_is_identically_zero():
    f = Sup((("x", Ball("A", 1.0)),), DotMinus(Norm(Var("x")), Lit(1.0)))
    r = evaluate(f, {"A": full_matrix_algebra(2)}, FAST)
    assert r.value <= OPT_TOL
    assert r.bound_kind == "lower-estimate"


def test_inf_norm_to_identity_over_scalars():
    f = Inf((("x", Ball("A", 1.0)),), Norm(Sum(Var("x"), Unit(-1))))
    r = evaluate(f, {"A": canonicalize([], 3)}, FAST)
    assert r.value <= OPT_TOL
    assert r.bound_kind == "upper-estimate"
    assert np.allclose(r.witnesses["x"], np.eye(3), atol=1e-4)


def test_sup_norm_sq_reaches_ball_radius():
    f = Sup((("x", Ball("A", 1.0)),), NormSq(Var("x")))
    r = evaluate(f, {"A": full_matrix_algebra(2)}, FAST)
    assert abs(r.value - 1.0) <= OPT_TOL


def test_determinism():
    f = Sup((("x", Ball("A", 1.0)),), NormSq(Var("x")))
    r1 = evaluate(f, {"A": full_matrix_algebra(2)}, FAST)
    r2 = evaluate(f, {"A": full_matrix_algebra(2)}, FAST)
    assert r1.value == r2.value
    assert np.array_equal(r1.witnesses["x"], r2.witnesses["x"])


def test_search_stats():
    # outermost first; the inner Inf is searched once per distinct outer point
    f = Sup((("x", Ball("A", 2.0)),),
            Inf((("z", Ball("A", 1.0)),), Norm(Sum(Var("x"), Scale(-1.0, Var("z"))))))
    config = EvalConfig(multistart=4, max_iter=100, rng_seed=3)
    r1 = evaluate(f, {"A": diagonal_algebra(2)}, config)
    r2 = evaluate(f, {"A": diagonal_algebra(2)}, config)
    assert r1.stats == r2.stats
    outer, inner = r1.stats
    assert outer.searches == 1
    assert inner.searches == outer.evaluations - outer.repeats
    assert outer.repeats > 0 and inner.repeats > 0


def test_budget_exhausted_counts_capped_local_searches():
    # a budget of 2 evaluations ends both local searches at Powell's cap
    f = Sup((("x", Ball("A", 1.0)),), NormSq(Var("x")))
    r = evaluate(f, {"A": full_matrix_algebra(2)}, EvalConfig(multistart=1, max_iter=2, rng_seed=1))
    assert r.stats[0].polish_runs == 2
    assert r.stats[0].budget_exhausted == 2
    assert r.converged


def test_non_quantifier_root_searches_once():
    # witnesses come from the searches that find them: no search runs twice,
    # and the probe reports every search
    f = Plus(Sup((("x", Ball("A", 2.0)),),
                 Inf((("z", Ball("A", 1.0)),), Norm(Sum(Var("x"), Scale(-1.0, Var("z")))))),
             SpanDist(Const(np.array([[0, 1], [1, 0]])), "A"))
    calls = []
    r = evaluate(f, {"A": diagonal_algebra(2)}, EvalConfig(multistart=4, max_iter=100, rng_seed=3),
                 probe=lambda node, env, value: calls.append(node))
    outer, inner = r.stats
    assert outer.searches == 1
    assert inner.searches == outer.evaluations - outer.repeats
    assert len(calls) == sum(s.searches for s in r.stats)
    assert [type(node) for node in calls].count(Sup) == 1
    # the probe receives the caller's own quantifier nodes, not copies
    assert calls[-1] is f.left
    assert all(node is f.left.body for node in calls[:-1])
    assert sorted(r.witnesses) == ["x", "z"]


def test_witnesses_reproduce_value():
    f = Sup((("x", Ball("A", 1.0)),), NormSq(Var("x")))
    r = evaluate(f, {"A": full_matrix_algebra(2)}, FAST)
    assert np.linalg.norm(r.witnesses["x"], 2) ** 2 == pytest.approx(r.value, abs=1e-9)


def test_sup_dominates_sampled_points():
    system = full_matrix_algebra(2)
    body = NormSq(Var("x"))
    r = evaluate(Sup((("x", Ball("A", 1.0)),), body), {"A": system}, FAST)
    for w in sample_ball(system, 1.0, 5, 10):
        plugged = evaluate(NormSq(Const(w)), {"A": system}, FAST)
        assert r.value >= plugged.value - OPT_TOL


def test_inf_below_sampled_points():
    system = full_matrix_algebra(2)
    r = evaluate(Inf((("x", Ball("A", 1.0)),), NormSq(Var("x"))), {"A": system}, FAST)
    for w in sample_ball(system, 1.0, 6, 10):
        plugged = evaluate(NormSq(Const(w)), {"A": system}, FAST)
        assert r.value <= plugged.value + OPT_TOL


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.sampled_from(["span", "two", "diag"]), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_sup_and_inf_keep_their_stated_directions(family, d, seed):
    # a sup is a lower estimate and an inf an upper one, against exact values
    rng = np.random.default_rng(seed)
    system = _random_system(family, d, rng)
    config = EvalConfig(8, 400, rng_seed=5)
    # sup over A_1 of ||x|| is 1, attained at the unit
    sup = evaluate(Sup((("x", Ball("A")),), Norm(Var("x"))), {"A": system}, config).value
    assert 1 - OPT_TOL <= sup <= 1 + 1e-12
    # ||x0 - z|| >= ||x0|| - ||z|| >= 2 for x0 = 3a/||a||, with equality at z = a/||a||
    a = system.from_coords(rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim))
    x0 = 3 * a / op_norm(a)
    inf = evaluate(Inf((("z", Ball("A")),), Norm(Sum(Const(x0), Scale(-1.0, Var("z"))))),
                   {"A": system}, config).value
    assert inf >= 2 - 1e-12


def test_monotone_connectives():
    # random trees over the monotone repertoire; raising a leaf never lowers the value
    rng = np.random.default_rng(55)

    def build(depth):
        if depth == 0:
            return Lit(float(rng.uniform(-2, 2)))
        pick = rng.integers(0, 5)
        if pick == 0:
            return Plus(build(depth - 1), build(depth - 1))
        if pick == 1:
            return Max(build(depth - 1), build(depth - 1))
        if pick == 2:
            return Min(build(depth - 1), build(depth - 1))
        if pick == 3:
            return Times(float(rng.uniform(0, 2)), build(depth - 1))
        return DotMinus(build(depth - 1), Lit(float(rng.uniform(0, 1))))

    def bump(node, delta):
        if isinstance(node, Lit):
            return Lit(node.value + float(rng.uniform(0, delta)))
        if isinstance(node, Plus):
            return Plus(bump(node.left, delta), bump(node.right, delta))
        if isinstance(node, Max):
            return Max(bump(node.left, delta), bump(node.right, delta))
        if isinstance(node, Min):
            return Min(bump(node.left, delta), bump(node.right, delta))
        if isinstance(node, Times):
            return Times(node.coeff, bump(node.arg, delta))
        return DotMinus(bump(node.left, delta), node.right)

    for _ in range(40):
        tree = build(4)
        bigger = bump(tree, 0.5)
        v1 = evaluate(tree, {}, FAST).value
        v2 = evaluate(bigger, {}, FAST).value
        assert v2 >= v1 - 1e-12


def test_bound_kind_tags():
    system = full_matrix_algebra(2)
    assert evaluate(Lit(0.5), {}, FAST).bound_kind == "exact"
    sup_only = Sup((("x", Ball("A", 1.0)),), Norm(Var("x")))
    assert evaluate(sup_only, {"A": system}, FAST).bound_kind == "lower-estimate"
    alt = Sup((("x", Ball("A", 1.0)),),
              Inf((("y", Ball("A", 1.0)),),
                  Norm(Sum(Var("x"), Scale(-1.0, Var("y"))))))
    assert evaluate(alt, {"A": system}, FAST).bound_kind == "heuristic"


def test_nesting_cap():
    system = full_matrix_algebra(2)
    deep = Sup((("a", Ball("A", 1.0)),),
               Inf((("b", Ball("A", 1.0)),),
                   Sup((("c", Ball("A", 1.0)),),
                       Inf((("d", Ball("A", 1.0)),),
                           Norm(Var("a"))))))
    with pytest.raises(NestingDepthError):
        evaluate(deep, {"A": system}, FAST)


def test_free_variable_rejected():
    with pytest.raises(ValueError):
        evaluate(Norm(Var("x")), {"A": full_matrix_algebra(2)}, FAST)


def test_unresolved_structure_rejected():
    f = Sup((("x", Ball("Q", 1.0)),), Norm(Var("x")))
    with pytest.raises(ValueError):
        evaluate(f, {"A": full_matrix_algebra(2)}, FAST)


def test_dimension_mismatch_rejected():
    f = Norm(Sum(Const(np.eye(2)), Const(np.eye(3))))
    with pytest.raises(ValueError):
        evaluate(f, {}, FAST)


@pytest.mark.parametrize("body", [
    Norm(Block(((Amp(Var("x"), 2), Var("x")),))),  # a row that mixes heights
    Norm(Sum(Var("x"), Const(np.eye(3)))),
    Norm(Prod(Var("x"), Const(np.eye(3)))),
    Norm(Block(((Var("x"), Unit(1)), (Unit(0), Const(np.ones((1, 1))))))),  # 1 in a 2x1 slot
    PsdDist(Block(((Var("x"), Unit(0)), (Unit(0), Const(np.ones((1, 1)))))), "A"),  # 3x3 in M_2
    SpanDist(Const(np.eye(3)), "A"),  # 3x3 against a span in M_2
    Norm(Sum(Unit(1), Const(np.ones((2, 3))))),  # 1 in a 2x3 slot
], ids=["block-row", "sum", "prod", "unit-slot", "psd-size", "span-size", "unit-sum"])
def test_shape_errors_precede_search(body):
    # the hint callable runs with the first start, so no call means no body evaluation
    calls = []

    def hint(env):
        calls.append(env)
        return np.eye(2)

    with pytest.raises(ValueError):
        evaluate(Sup((("x", Ball("A", 1.0)),), body), {"A": full_matrix_algebra(2)},
                 FAST, hints=[{"x": hint}])
    assert calls == []


@pytest.mark.parametrize("ball", [Ball("A", 1.0), Ball("A", unitary=True)],
                         ids=["span", "unitary"])
@pytest.mark.parametrize("hint", [np.eye(3), lambda env: np.eye(3)], ids=["constant", "callable"])
def test_malformed_hint_rejected(ball, hint):
    calls = []
    f = Inf((("x", ball),), Norm(Var("x")))
    with pytest.raises(ValueError, match="expected a 2 x 2 matrix"):
        evaluate(f, {"A": full_matrix_algebra(2)}, FAST, hints=[{"x": hint}],
                 probe=lambda node, env, value: calls.append(value))
    assert calls == []


@pytest.mark.parametrize("body", [
    Lit(0.5),
    Plus(Lit(0.25), Norm(Var("x"))),
    Times(2.0, Plus(Lit(0.1), Norm(Var("x")))),
    Max(Lit(0.3), Norm(Var("x"))),
    Min(Lit(0.3), Norm(Var("x"))),
], ids=["lit", "plus", "times", "max", "min"])
def test_inf_stops_at_static_floor(body):
    # the zero start, scored first, reaches the body's floor, so the search stops there
    r = evaluate(Inf((("x", Ball("A", 1.0)),), body), {"A": full_matrix_algebra(2)}, FAST)
    assert r.stats[0].early_stops == 1
    assert r.stats[0].evaluations == 1


def test_inf_stops_at_floor_inside_local_search():
    # the body reaches its floor 0 within 0.01 of 1/2; no start is that close,
    # so the local search gets there and stops
    f = Inf((("x", Ball("A", 1.0)),), DotMinus(Norm(Sum(Var("x"), Unit(-0.5))), Lit(0.01)))
    r = evaluate(f, {"A": full_matrix_algebra(2)}, EvalConfig(multistart=4, max_iter=400,
                                                             rng_seed=2))
    assert r.value == 0.0
    assert r.stats[0].early_stops == 1
    assert r.stats[0].polish_runs == 1
    assert r.stats[0].evaluations > 1 + 4  # more than the zero start and the samples


@pytest.mark.parametrize("ball, hint, match", [
    (Ball("A", unitary=True), {"x": 0.5 * np.eye(2)}, "not unitary"),
    (Ball("A", unitary=True), {"x": lambda env: np.array([[0, 2], [0, 0]])}, "not unitary"),
    (Ball("A", 1.0), {"xx": 0.5 * np.eye(2)}, "no quantifier binds"),
], ids=["non-unitary-constant", "non-unitary-callable", "unknown-name"])
def test_unusable_hint_rejected(ball, hint, match):
    calls = []
    f = Inf((("x", ball),), Norm(Sum(Var("x"), Unit(-0.5))))
    with pytest.raises(ValueError, match=match):
        evaluate(f, {"A": full_matrix_algebra(2)}, EvalConfig(multistart=4, max_iter=100),
                 hints=[hint], probe=lambda node, env, value: calls.append(value))
    assert calls == []


PAIR = Sup((("x", Ball("A", 1.0)), ("y", Ball("A", 1.0))), Norm(Sum(Var("x"), Var("y"))))


@pytest.mark.parametrize("hints, match", [
    ([{"x": Exact(np.eye(2))}], "every variable of its quantifier"),
    ([{"x": Exact(lambda env: np.eye(2)), "y": np.eye(2)}], "every variable of its quantifier"),
    ([{"x": Exact(np.eye(2)), "y": Exact(np.eye(2))},
      {"x": Exact(lambda env: np.eye(2)), "y": Exact(-np.eye(2))}], "two exact hint entries"),
], ids=["unnamed", "unmarked", "twice"])
def test_misused_exact_hint_rejected(hints, match):
    calls = []
    with pytest.raises(ValueError, match=match):
        evaluate(PAIR, {"A": full_matrix_algebra(2)}, FAST, hints=hints,
                 probe=lambda node, env, value: calls.append(value))
    assert calls == []


def test_exact_quantifier_scores_one_point_per_search():
    # sup_{||y|| <= 1} ||x + y|| = ||x|| + 1, attained at y = x / ||x||
    def unit(env):
        nrm = op_norm(env["x"])
        return env["x"] / nrm if nrm > 0 else np.eye(2)

    f = Sup((("x", Ball("A", 1.0)),), Sup((("y", Ball("A", 1.0)),), Norm(Sum(Var("x"), Var("y")))))
    calls = []
    r = evaluate(f, {"A": full_matrix_algebra(2)}, FAST, hints=[{"y": Exact(unit)}],
                 probe=lambda node, env, value: calls.append(value))
    outer, inner = r.stats
    assert inner.searches == outer.evaluations - outer.repeats > 1
    assert inner.evaluations == inner.searches
    assert inner.polish_runs == 0 and inner.budget_exhausted == 0
    assert len(calls) == sum(s.searches for s in r.stats)
    assert r.value == pytest.approx(2.0, abs=1e-9)
    assert op_norm(r.witnesses["x"] + r.witnesses["y"]) == r.value


def test_psd_dist_rejects_non_hermitian_value():
    skew = Const(np.array([[0, 1], [0, 0]]))
    f = Sup((("x", Ball("A", 1.0)),), PsdDist(Sum(Var("x"), skew), "A"))
    with pytest.raises(ValueError, match="Hermitian"):
        evaluate(f, {"A": full_matrix_algebra(2)}, FAST)


@pytest.mark.parametrize("build", [
    lambda: Lit(float("nan")),
    lambda: Lit(float("-inf")),
    lambda: Times(float("nan"), Lit(1.0)),
    lambda: Ball("A", float("inf")),
    lambda: Unit(complex(float("nan"), 0.0)),
    lambda: Scale(complex(0.0, float("inf")), Var("x")),
    lambda: Lit(1j),
    lambda: Ball("A", 1j),
    lambda: Times(1j, Lit(1.0)),
], ids=["lit-nan", "lit-inf", "times", "ball", "unit", "scale",
        "lit-complex", "ball-complex", "times-complex"])
def test_non_finite_numbers_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("build, match", [
    (lambda: Ball("A", 2.0, unitary=True), "no radius"),
    (lambda: Ball("A", unitary=1), "must be a bool"),
], ids=["unitary-radius", "unitary-int"])
def test_ball_spec_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_unitary_binding_json():
    # a unitary ball keeps the "U" of the radius slot
    text = '["sup", [["u", "A", "U"]], ["norm", ["var", "u"]]]'
    sentence = sentence_from_json(json.loads(text))
    assert sentence.bindings == (("u", Ball("A", unitary=True)),)
    assert json.dumps(sentence_to_json(sentence)) == text


X = np.array([[1, 2j], [0.5, -1]])
WIDE = np.arange(6.0).reshape(2, 3)
I2 = np.eye(2)


@pytest.mark.parametrize("formula, expected", [
    (Norm(Unit(1j)), 1.0),
    (Norm(Adj(Unit(1j))), 1.0),
    (Norm(Scale(2, Unit(1j))), 2.0),
    (Norm(Amp(Unit(3), 2)), 3.0),
    (Norm(Sum(Unit(1), Unit(1j))), abs(1 + 1j)),
    (Norm(Sum(Unit(2), Const(X))), np.linalg.norm(2 * I2 + X, 2)),
    (Norm(Prod(Unit(2), Const(X))), np.linalg.norm(2 * I2 @ X, 2)),
    (Norm(Prod(Const(X), Unit(2))), np.linalg.norm(X @ (2 * I2), 2)),
    (Norm(Sum(Unit(0), Const(WIDE))), np.linalg.norm(WIDE, 2)),
], ids=["unit", "adj", "scale", "amp", "unit-sum", "sum", "prod-left", "prod-right", "wide-sum"])
def test_identity_multiple_terms(formula, expected):
    assert evaluate(formula, {"A": full_matrix_algebra(2)}, FAST).value == pytest.approx(expected)


@pytest.mark.parametrize("shape", [(2, 2), (2, 8), (4, 8), (8, 8), (12, 12)])
def test_spec_norm_is_bitwise_norm2(shape):
    rng = np.random.default_rng(shape)
    for _ in range(50):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for m in (a, a.real.copy()):
            assert _spec_norm(m) == float(np.linalg.norm(m, 2))


def test_span_map_is_bitwise_tensordot():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4, 6):
        for k in range(1, min(16, d * d) + 1):
            stack = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
            for _ in range(10):
                c = rng.standard_normal(k)
                for coeffs in (c, c + 1j * rng.standard_normal(k)):
                    out = _combine(coeffs, stack)
                    ref = np.tensordot(coeffs, stack, axes=(0, 0))
                    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        EvalConfig(rng_seed=seed)


def test_seeds_apart_by_2_pow_32_search_different_points():
    f = Sup((("x", Ball("A", 1.0)),), Norm(Var("x")))
    values = [evaluate(f, {"A": full_matrix_algebra(2)}, EvalConfig(1, 1, seed)).value
              for seed in (5, 2 ** 32 + 5)]
    assert values[0] != values[1]


def test_product_gating():
    open_system = canonicalize([E12], 2)  # not product-closed
    f = Sup((("x", Ball("A", 1.0)),), Norm(Prod(Var("x"), Var("x"))))
    with pytest.raises(ValueError):
        evaluate(f, {"A": open_system}, FAST)
    # fine over a closed structure
    r = evaluate(f, {"A": diagonal_algebra(2)}, FAST)
    assert 0.0 <= r.value <= 1.0 + OPT_TOL


def test_free_variables():
    body = Norm(Sum(Var("x"), Var("y")))
    assert free_variables(body) == {"x", "y"}
    assert free_variables(Norm(Sum(Const(np.eye(2)), Unit(1)))) == set()
    # a binder of x binds x in its body only
    inner = Inf((("x", Ball("A", 1.0)),), Norm(Sum(Var("x"), Scale(-1.0, Var("u")))))
    assert free_variables(inner) == {"u"}
    assert free_variables(Plus(inner, Norm(Var("x")))) == {"u", "x"}


def _every_tag_sentence():
    term = Block(((Amp(Var("x"), 2), Scale(0.5 - 1j, Sum(Var("y"), Unit(2j)))),
                  (Adj(Prod(Var("x"), Const(np.array([[1, 2j], [0, -1]])))), Unit())))
    body = Max(
        Min(Norm(term), NormSq(Var("z"))),
        Plus(Times(0.5, AbsDiff(SpanDist(Var("y"), "A"), PsdDist(Var("x"), "B"))),
             DotMinus(Norm(Sum(Var("x"), Scale(-1.0, Var("y")))), Lit(-0.25))),
    )
    return Sup((("x", Ball("A", 2.0)), ("y", Ball("B", unitary=True))),
               Inf((("z", Ball("B")),), body))


def _iter_subtree(node):
    yield node
    for child in _children(node):
        yield from _iter_subtree(child)


def _quantifier_seeds(sentence):
    return [_structure_seed(n) for n in _iter_subtree(sentence) if isinstance(n, (Sup, Inf))]


def test_sentence_json_round_trip():
    sentence = Sup((("x", Ball("A", 1.0)),),
                   DotMinus(NormSq(Var("x")), Lit(0.25)))
    back = sentence_from_json(sentence_to_json(sentence))
    system = full_matrix_algebra(2)
    assert evaluate(back, {"A": system}, FAST).value == \
        evaluate(sentence, {"A": system}, FAST).value

    every = _every_tag_sentence()
    text = json.dumps(sentence_to_json(every))
    back = sentence_from_json(json.loads(text))
    assert json.dumps(sentence_to_json(back)) == text
    assert _quantifier_seeds(back) == _quantifier_seeds(every)


# JSON text and pre-order quantifier seeds of each shipped sentence and of one
# sentence using every tag.  Saved sentence files depend on the text, and each
# quantifier's seed fixes its sampled starts, so neither may drift.
GOLDEN = [
    (closure_sentence, [187653408, 265328689, 2221942862],
     '["sup", [["x", "A", 1.0], ["y", "A", 1.0]], ["inf", [["z", "A", 1.0]], '
     '["sup", [["b", "B", 2.0]], ["abs_diff", ["norm_sq", ["block", [[["unit", [0.0, 0.0]], '
     '["var", "y"], ["unit", [1.0, 0.0]], ["unit", [0.0, 0.0]]], [["unit", [2.0, 0.0]], '
     '["var", "x"], ["var", "z"], ["var", "b"]]]]], ["norm_sq", ["block", [[["unit", '
     '[2.0, 0.0]], ["var", "x"], ["var", "z"], ["var", "b"]]]]]]]]]'),
    (product_certificate_sentence, [3994626851, 1385319772],
     '["sup", [["u", "A", "U"], ["v", "A", "U"]], ["inf", [["x", "A", 1.0]], '
     '["psd_dist", ["block", [[["unit", [1.0, 0.0]], ["var", "u"], ["var", "x"]], '
     '[["adj", ["var", "u"]], ["unit", [1.0, 0.0]], ["var", "v"]], [["adj", ["var", "x"]], '
     '["adj", ["var", "v"]], ["unit", [1.0, 0.0]]]]], "A"]]]'),
    (four_unitary_sentence, [2701387393, 2917041398],
     '["sup", [["x", "A", 1.0]], ["inf", [["u1", "A", "U"], ["u2", "A", "U"], '
     '["u3", "A", "U"], ["u4", "A", "U"]], ["norm", ["sum", ["var", "x"], ["scale", '
     '[-0.5, 0.0], ["sum", ["sum", ["var", "u1"], ["var", "u2"]], ["sum", ["var", "u3"], '
     '["var", "u4"]]]]]]]]'),
    (lambda: unitarity_score_formula("u", 2, "F"), [385055927],
     '["inf", [["x", "F", 1.0]], ["dotminus", ["min", ["norm_sq", ["block", [[["amp", '
     '["var", "u"], 2], ["var", "x"]]]]], ["norm_sq", ["block", [[["amp", ["var", "u"], 2]], '
     '[["var", "x"]]]]]], ["norm_sq", ["var", "x"]]]]'),
    (_every_tag_sentence, [239822126, 1112902550],
     '["sup", [["x", "A", 2.0], ["y", "B", "U"]], ["inf", [["z", "B", 1.0]], ["max", '
     '["min", ["norm", ["block", [[["amp", ["var", "x"], 2], ["scale", [0.5, -1.0], ["sum", '
     '["var", "y"], ["unit", [0.0, 2.0]]]]], [["adj", ["prod", ["var", "x"], ["const", '
     '{"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [-1.0, 0.0]]}]]], '
     '["unit", [1.0, 0.0]]]]]], ["norm_sq", ["var", "z"]]], ["plus", ["times", 0.5, '
     '["abs_diff", ["span_dist", ["var", "y"], "A"], ["psd_dist", ["var", "x"], "B"]]], '
     '["dotminus", ["norm", ["sum", ["var", "x"], ["scale", [-1.0, 0.0], ["var", "y"]]]], '
     '["lit", -0.25]]]]]]'),
]


@pytest.mark.parametrize("build, seeds, text", GOLDEN)
def test_sentence_golden(build, seeds, text):
    sentence = build()
    assert json.dumps(sentence_to_json(sentence)) == text
    assert _quantifier_seeds(sentence) == seeds


def _every_node_evaluable():
    term = Block(((Var("x"), Scale(0.5 - 1j, Sum(Var("y"), Unit(2j)))),
                  (Adj(Prod(Var("x"), Const(np.array([[1, 2j], [0, -1]])))), Unit())))
    body = Max(
        Min(Norm(term), NormSq(Amp(Var("z"), 2))),
        Plus(Times(0.5, AbsDiff(PsdDist(Sum(Var("x"), Adj(Var("x"))), "B"), NormSq(Var("y")))),
             DotMinus(Norm(Sum(Var("x"), Scale(-1.0, Var("z")))), Lit(-0.25))),
    )
    quantified = Sup((("x", Ball("A", 2.0)), ("y", Ball("B", unitary=True))),
                     Inf((("z", Ball("B")),), body))
    return Plus(quantified, SpanDist(Const(np.array([[0, 1], [1, 0]])), "A"))


def test_every_node_evaluation_golden():
    # one sentence reaching every term and formula node; the root is not a
    # quantifier, so the witnesses come from the outer Sup under the root Plus
    r = evaluate(_every_node_evaluable(), {"A": diagonal_algebra(2), "B": full_matrix_algebra(2)},
                 EvalConfig(4, 100, rng_seed=7))
    assert r.value == 2.98670345914069
    assert sorted(r.witnesses) == ["x", "y", "z"]
    assert r.converged and r.bound_kind == "heuristic"


def test_alternating_witnesses_reproduce_value():
    from opsyslab import closure_gap, closure_sentence

    system = canonicalize([E12], 2)
    ambient = full_matrix_algebra(2)
    r = evaluate(closure_sentence(), {"A": system, "B": ambient}, FAST)
    w = r.witnesses
    replayed = closure_gap(w["x"], w["y"], w["z"], w["b"])
    assert replayed == pytest.approx(r.value, abs=OPT_TOL)
    # Powell re-scores the start of every local search of the leaf sup_b
    assert r.stats[-1].repeats > 0


def test_hints_are_used():
    system = full_matrix_algebra(2)
    target = np.array([[0, 1], [1, 0]], dtype=complex)
    f = Inf((("x", Ball("A", 1.0)),), Norm(Sum(Var("x"), Const(-target))))
    tiny = EvalConfig(multistart=1, max_iter=2, rng_seed=1)
    hinted = evaluate(f, {"A": system}, tiny, hints=[{"x": target}])
    assert hinted.value <= 1e-9
