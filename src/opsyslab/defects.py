"""Structure-detection formulas paired with exact algebraic oracles.

Every quantity here is a nonnegative defect: zero (within tolerance)
certifies a property of the structure.  The quantified defects run through
the sentence evaluator with analytic witnesses attached as optimizer
starts, so whenever the property actually holds the reported value is a
tight upper bound rather than a heuristic.  Where a witness provably
attains its quantifier's optimum (the closure sentence's innermost sup over
b, at the completion witness) it is marked Exact and replaces that search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logic import (
    AbsDiff,
    Adj,
    Amp,
    Ball,
    Block,
    Const,
    DotMinus,
    EvalConfig,
    Exact,
    Formula,
    Inf,
    Min,
    Norm,
    NormSq,
    OPT_TOL,
    PsdDist,
    Scale,
    Sum,
    Sup,
    Term,
    Unit,
    Var,
    evaluate,
)
from .matrices import (
    _count,
    _require_contraction,
    _square,
    amplify,
    block,
    hermitian_part,
    op_norm,
)
from .systems import OperatorSystem, full_matrix_algebra

__all__ = [
    "closure_gap",
    "completion_witness",
    "multiplication_predicate",
    "ClosureReport",
    "closure_sentence",
    "product_closure_defect",
    "UNITARY_PLATEAU",
    "unitarity_score",
    "unitarity_score_formula",
    "unitary_detect",
    "walter_matrix",
    "product_certificate_sentence",
    "four_unitary_sentence",
    "unitary_span_defect",
    "unitary_average_decompose",
    "unitary_product_gap",
    "product_distance",
]


def _common_square(*mats) -> list[np.ndarray]:
    out = [_square(m) for m in mats]
    shapes = {m.shape for m in out}
    if len(shapes) != 1:
        raise ValueError(f"expected equal square shapes, got {sorted(shapes)}")
    return out


# ---------------------------------------------------------------------------
# Product closure
# ---------------------------------------------------------------------------

def closure_gap(x, y, z, b) -> float:
    """| ||[[0,y,1,0],[2,x,z,b]]||^2 - ||[2,x,z,b]||^2 |, scalars read as identity multiples.

    Vanishes for every b exactly when z = -xy*; choosing b = completion_witness(x, z)
    makes the single-row norm constant, which turns the gap into a lower bound on
    a fixed power of ||xy* + z||.
    """
    x, y, z, b = _common_square(x, y, z, b)
    d = x.shape[0]
    one = np.eye(d)
    zero = np.zeros((d, d))
    wide = block([[zero, y, one, zero], [2 * one, x, z, b]])
    row = block([[2 * one, x, z, b]])
    return abs(op_norm(wide) ** 2 - op_norm(row) ** 2)


def completion_witness(x, z) -> np.ndarray:
    """PSD b with [2,x,z,b] of constant squared row norm 4 + ||xx*+zz*||.

    b is the square root of m.1 - xx* - zz*, with m = lambda_max(xx*+zz*); one
    eigendecomposition of xx*+zz* gives both m and the roots sqrt(m - lambda_i).
    eigh sorts the lambda_i ascending, so each m - lambda_i >= 0 exactly, and
    ||b||^2 <= m.

    This b attains sup_b closure_gap(x, y, z, b) for every y.  Write
    Q = 1+yy*, W = xy*+z, S = 4+xx*+zz*, c = lambda_max(S) = 4+m and P = bb*.  The
    wide block's Gram matrix is [[Q, W*], [W, S+P]] and the row's is S+P, so
    the gap is lambda_max([[Q, W*], [W, S+P]]) - lambda_max(S+P); it is never
    negative, as a compression does not raise lambda_max.  With
    L = lambda_max(S+P) we have S+P <= L.1, so by Loewner monotonicity
    gap <= h(L) := lambda_max([[Q, W*], [W, L.1]]) - L.  h is nonincreasing:
    raising L by t raises the lambda_max by at most t (Weyl).  As P >= 0,
    L >= c, so gap <= h(c) for every b.  Equality holds at b = sqrt(c.1 - S),
    which is this b: there S+P = c.1 and L = c.  It lies in B whenever B is a
    C*-algebra containing x and z (a continuous function of xx*+zz*), and
    ||b||^2 <= ||x||^2 + ||z||^2 <= 2 for x, z in A_1, so ||b|| <= sqrt(2) and b
    lies in the closure sentence's ball B_2.
    """
    x, z = _common_square(x, z)
    w, v = np.linalg.eigh(x @ x.conj().T + z @ z.conj().T)
    return (v * np.sqrt(w[-1] - w)) @ v.conj().T


def multiplication_predicate(x: Term, y: Term, z: Term) -> Formula:
    """sup_{b in B_2} closure_gap(x, y, z, b): the paper's definable predicate.

    In the language of operator systems it defines multiplication: for x and
    z in a C*-algebra B it vanishes exactly when z = -xy*.  The sup is then
    attained at b = completion_witness(x, z); the proof is there.  The
    predicate binds b, so a free b in x, y or z would be captured.
    """
    body = AbsDiff(
        NormSq(Block(((Unit(0), y, Unit(1), Unit(0)),
                      (Unit(2), x, z, Var("b"))))),
        NormSq(Block(((Unit(2), x, z, Var("b")),))),
    )
    return Sup((("b", Ball("B", 2.0)),), body)


def closure_sentence() -> Formula:
    """sup_{x,y in A_1} inf_{z in A_1} sup_{b in B_2} closure_gap(x, y, z, b)."""
    inner = multiplication_predicate(Var("x"), Var("y"), Var("z"))
    mid = Inf((("z", Ball("A", 1.0)),), inner)
    return Sup((("x", Ball("A", 1.0)), ("y", Ball("A", 1.0))), mid)


@dataclass
class ClosureReport:
    """Outcome of the triple-quantified closure sentence."""

    defect: float
    worst_pair: tuple[np.ndarray, np.ndarray]
    best_z: np.ndarray
    bound_check: float  # ||x y* + z|| at the reported witnesses


def _closure_hints(A: OperatorSystem):
    """Witness starts for the closure sentence.

    The four outer pairs are the unit-norm basis directions whose product lies
    farthest from the span in the Hilbert-Schmidt norm: membership_residual,
    which needs no SDP and lies between the operator-norm distance and sqrt(d)
    times it.  Products already in the span score at rounding level, so the
    order among them is deterministic but arbitrary.  The z hint is -xy*
    projected onto the span and scaled into the unit ball.  The b hint is the
    completion witness, marked Exact: it attains the sup over b (see
    completion_witness), so that search scores it alone.
    """
    cands = [b / op_norm(b) for b in A.basis]
    scored = []
    for i, ci in enumerate(cands):
        for j, cj in enumerate(cands):
            scored.append((A.membership_residual(ci @ cj.conj().T), i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    hints = [{"x": cands[i], "y": cands[j]} for _, i, j in scored[:4]]

    def z_hint(env):
        z = -env["x"] @ env["y"].conj().T
        z = A.project(z)
        nrm = op_norm(z)
        if nrm > 1.0:
            z /= nrm
        return z

    def b_hint(env):
        return completion_witness(env["x"], env["z"])

    hints.append({"z": z_hint})
    hints.append({"b": Exact(b_hint)})
    return hints


def product_closure_defect(A: OperatorSystem, B: OperatorSystem,
                           config: EvalConfig | None = None, *,
                           probe=None) -> ClosureReport:
    """Evaluate the closure sentence for the subsystem A inside the algebra B.

    Requires span(A) contained in span(B) and B product-closed.  The
    innermost sup over b is answered exactly at the completion witness, so the
    defect is that closed form at the reported x, y and z.  The report's
    bound_check records w = ||x y* + z|| there, and it stays under
    4*sqrt(defect) up to rounding: a test vector along W's top singular pair,
    with Q >= 1, c <= 6 and w <= 2, bounds the closed form below by w^2/6.
    """
    if not B.contains_span_of(A):
        raise ValueError("span(A) must be contained in span(B)")
    B.require_cstar()
    result = evaluate(
        closure_sentence(),
        {"A": A, "B": B},
        config,
        hints=_closure_hints(A),
        probe=probe,
    )
    x = result.witnesses["x"]
    y = result.witnesses["y"]
    z = result.witnesses["z"]
    bound_check = op_norm(x @ y.conj().T + z)
    return ClosureReport(
        defect=result.value,
        worst_pair=(x, y),
        best_z=z,
        bound_check=bound_check,
    )


# ---------------------------------------------------------------------------
# Unitarity scores
# ---------------------------------------------------------------------------

UNITARY_PLATEAU = 1.0
"""Value of the unitarity score at every unitary u and level n.

At a unitary u (x) 1_n, ||[u (x) 1_n, x]||^2 = ||1 + xx*|| = 1 + ||x||^2, and the
column form gives 1 + ||x*x|| = 1 + ||x||^2 as well, so the score body equals 1
for every x.
"""


def _unitarity_sentence(amped, ball_structure: str) -> Formula:
    body = DotMinus(
        Min(
            NormSq(Block(((amped, Var("x")),))),
            NormSq(Block(((amped,), (Var("x"),)))),
        ),
        NormSq(Var("x")),
    )
    return Inf((("x", Ball(ball_structure, 1.0)),), body)


def unitarity_score_formula(u_var: str, n: int, ball_structure: str) -> Formula:
    """inf_{||x|| <= 1} (min(||[u(x)1_n, x]||^2, ||[u(x)1_n; x]||^2) - ||x||^2).

    The inner variable x ranges over the radius-1 ball of the named structure,
    which must be the full algebra at the amplified dimension.
    """
    return _unitarity_sentence(Amp(Var(u_var), n), ball_structure)


def unitarity_score(u, n: int = 1, config: EvalConfig | None = None) -> float:
    """Upper estimate of the unitarity score of a contraction u at level n.

    Constantly UNITARY_PLATEAU at unitaries; strictly smaller for strict
    contractions (the minimal singular pair of u (x) 1_n is always among the
    starts, giving a value at most sigma_min(u)^2).
    """
    a = _require_contraction(u, "unitarity score")
    amped = amplify(a, n)
    full = full_matrix_algebra(amped.shape[0])
    uu, _, vh = np.linalg.svd(amped)
    min_pair = np.outer(uu[:, -1], vh[-1, :])
    result = evaluate(_unitarity_sentence(Const(amped), "X"), {"X": full}, config,
                      hints=[{"x": min_pair}])
    return result.value


def unitary_detect(u, n_max: int = 2, config: EvalConfig | None = None) -> bool:
    """True when the unitarity score sits on the plateau for all levels <= n_max."""
    return all(
        unitarity_score(u, n, config) >= UNITARY_PLATEAU - OPT_TOL
        for n in range(1, _count(n_max, "n_max") + 1)
    )


# ---------------------------------------------------------------------------
# Positivity certificate for products of unitaries
# ---------------------------------------------------------------------------

def walter_matrix(u, v, x) -> np.ndarray:
    """3x3 block certificate [[1,u,x],[u*,1,v],[x*,v*,1]].

    For unitaries u, v the matrix is PSD exactly when x = uv (it is then the
    rank-one square w w* with w = (1, u*, (uv)*)^T).
    """
    u, v, x = _common_square(u, v, x)
    one = np.eye(u.shape[0])
    return block([
        [one, u, x],
        [u.conj().T, one, v],
        [x.conj().T, v.conj().T, one],
    ])


def product_certificate_sentence() -> Formula:
    """sup_{u,v in U(A)} inf_{x in A_1} d(walter_matrix(u,v,x), PSD cone of M_3(A))."""
    grid = (
        (Unit(1), Var("u"), Var("x")),
        (Adj(Var("u")), Unit(1), Var("v")),
        (Adj(Var("x")), Adj(Var("v")), Unit(1)),
    )
    body = PsdDist(Block(grid), "A")
    inner = Inf((("x", Ball("A", 1.0)),), body)
    return Sup((("u", Ball("A", unitary=True)), ("v", Ball("A", unitary=True))), inner)


# ---------------------------------------------------------------------------
# Averages of four unitaries
# ---------------------------------------------------------------------------

def unitary_average_decompose(x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Four unitaries averaging to a given contraction: x = (u1+u2+u3+u4)/2.

    Split x = h + ik into Hermitian parts; each Hermitian contraction h is the
    average of the two unitaries h +- i sqrt(1 - h^2), built here through the
    eigendecomposition so the outputs are unitary to machine precision.
    """
    a = _require_contraction(x, "decomposition")

    def halves(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, vec = np.linalg.eigh(h)
        w = np.clip(w, -1.0, 1.0)
        phase = w + 1j * np.sqrt(1.0 - w ** 2)
        plus = (vec * phase) @ vec.conj().T
        minus = (vec * phase.conj()) @ vec.conj().T
        return plus, minus

    h = hermitian_part(a)
    k = (a - a.conj().T) / 2j
    hp, hm = halves(h)
    kp, km = halves(k)
    return hp, hm, 1j * kp, 1j * km


def four_unitary_sentence() -> Formula:
    """sup_{x in A_1} inf_{u1..u4 in U(A)} ||x - (u1+u2+u3+u4)/2||."""
    avg = Scale(-0.5, Sum(Sum(Var("u1"), Var("u2")), Sum(Var("u3"), Var("u4"))))
    body = Norm(Sum(Var("x"), avg))
    inner = Inf(
        (("u1", Ball("A", unitary=True)), ("u2", Ball("A", unitary=True)),
         ("u3", Ball("A", unitary=True)), ("u4", Ball("A", unitary=True))),
        body,
    )
    return Sup((("x", Ball("A", 1.0)),), inner)


def unitary_span_defect(A: OperatorSystem, config: EvalConfig | None = None) -> float:
    """Defect of "every contraction is an average of four unitaries" over A.

    Requires a product-closed structure (unitaries are parametrized as exp(iH)
    with H Hermitian in the span).  The analytic decomposition of the current
    outer point is always among the inner starts, so the value is a genuine
    upper bound.
    """
    A.require_cstar()

    def u_hint(i):
        def fn(env):
            return unitary_average_decompose(env["x"])[i]
        return fn

    hints = [{"u1": u_hint(0), "u2": u_hint(1), "u3": u_hint(2), "u4": u_hint(3)}]
    result = evaluate(four_unitary_sentence(), {"A": A}, config, hints=hints)
    return result.value


# ---------------------------------------------------------------------------
# Unitary products and the exact product distance
# ---------------------------------------------------------------------------

def unitary_product_gap(u, v, w) -> float:
    """||[[u,w],[1,-v*]]||^2 - 2.

    For unitaries u, w and an isometry v this equals ||u - wv|| exactly, since
    the squared norm is ||[[2, u-wv],[(u-wv)*, 2]]|| = 2 + ||u - wv||.
    """
    u, v, w = _common_square(u, v, w)
    one = np.eye(u.shape[0])
    m = block([[u, w], [one, -v.conj().T]])
    return op_norm(m) ** 2 - 2.0


def product_distance(x, y, z, A: OperatorSystem) -> float:
    """Ground truth ||x y - z|| for elements of a product-closed structure."""
    A.require_cstar()
    x, y, z = _common_square(x, y, z)
    for name, m in (("x", x), ("y", y), ("z", z)):
        if A.membership_residual(m) > 1e-6:
            raise ValueError(f"{name} is not in the span of the structure")
    return op_norm(x @ y - z)
