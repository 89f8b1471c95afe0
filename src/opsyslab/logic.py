"""Real-valued sentences over matrix operator systems.

Terms are matrix expressions built from variables, constants and identity
multiples; formulas combine real values through the monotone connective
repertoire (max, min, +, nonnegative scaling, truncated subtraction) plus
absolute differences, norms, distances, and sup/inf quantifiers over norm
balls of a named structure.

Quantifiers evaluate by seeded multistart local search over the real ball
coordinates, so a sup result is a lower estimate of the true supremum, an
inf result an upper estimate, and alternating sentences are heuristic
unless witness hints pin them down.  Identical subformulas receive
identical search seeds, and the whole evaluation is deterministic for a
fixed EvalConfig.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, field, fields
from itertools import accumulate
from operator import add, itemgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from ._powell import minimize
from .matrices import (
    _array,
    _complex,
    _count,
    _finite,
    _number,
    _string,
    as_matrix,
    dist_to_psd,
    exp_i_hermitian,
    matrix_from_json,
    matrix_to_json,
    unitary_log,
)
from .systems import OperatorSystem, _combine, _draw_ball_coords, dist_to_system

__all__ = [
    "Term", "Var", "Const", "Unit", "Adj", "Scale", "Sum", "Block", "Amp", "Prod",
    "Formula", "Norm", "NormSq", "SpanDist", "PsdDist", "AbsDiff", "DotMinus",
    "Max", "Min", "Plus", "Times", "Lit", "Sup", "Inf",
    "Ball",
    "Exact", "OPT_TOL", "EvalConfig", "EvalResult", "SearchStats", "evaluate",
    "free_variables", "NestingDepthError",
    "sentence_to_json", "sentence_from_json",
]


class NestingDepthError(ValueError):
    """Quantifier alternation depth above the supported cap."""


_MAX_ALTERNATION = 3


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Term:
    pass


class Formula:
    pass


def _as_term(x) -> Term:
    if isinstance(x, Term):
        return x
    if isinstance(x, (int, float, complex)):
        return Unit(complex(x))
    return Const(x)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False)
class Const(Term):
    value: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.value)
        a.setflags(write=False)
        object.__setattr__(self, "value", a)


@dataclass(frozen=True)
class Unit(Term):
    """Multiple of the ambient identity; the dimension is inferred in context."""

    coeff: complex = 1.0

    def __post_init__(self):
        _finite(self.coeff)


@dataclass(frozen=True, eq=False)
class Adj(Term):
    arg: Term


@dataclass(frozen=True, eq=False)
class Scale(Term):
    coeff: complex
    arg: Term

    def __post_init__(self):
        _finite(self.coeff)


@dataclass(frozen=True, eq=False)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Block(Term):
    grid: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_as_term(cell) for cell in row) for row in self.grid)
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("block grid must be rectangular and non-empty")
        object.__setattr__(self, "grid", rows)


@dataclass(frozen=True, eq=False)
class Amp(Term):
    arg: Term
    copies: int

    def __post_init__(self):
        object.__setattr__(self, "copies", _count(self.copies, "amplification count"))


@dataclass(frozen=True, eq=False)
class Prod(Term):
    """Product term; only evaluable over product-closed (C*) structures."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Ball:
    """Radius-r operator-norm ball of the named structure's span.

    unitary=True binds the unitaries U(A) = {exp(iH) : H = H* in the span,
    ||H|| <= pi} instead; U(A) has no radius, so the radius must stay 1.0.
    """

    structure: str
    radius: float = 1.0
    unitary: bool = False

    def __post_init__(self):
        if not _number(self.radius) > 0:
            raise ValueError("ball radius must be positive")
        if not isinstance(self.unitary, bool):
            raise ValueError(f"ball's unitary flag must be a bool, got {self.unitary!r}")
        if self.unitary and self.radius != 1.0:
            raise ValueError("a unitary ball has no radius")


@dataclass(frozen=True, eq=False)
class Norm(Formula):
    arg: Term


@dataclass(frozen=True, eq=False)
class NormSq(Formula):
    arg: Term


@dataclass(frozen=True, eq=False)
class SpanDist(Formula):
    """Operator-norm distance of the term's value to the named structure's span."""

    arg: Term
    structure: str


@dataclass(frozen=True, eq=False)
class PsdDist(Formula):
    """Distance of a Hermitian term to the PSD cone of M_k(structure).

    The term must evaluate inside M_k(span); there the cone contains the
    value shifted by multiples of the identity, so the distance is
    max(0, -lambda_min).
    """

    arg: Term
    structure: str


@dataclass(frozen=True, eq=False)
class _Connective(Formula):
    left: Formula
    right: Formula


class AbsDiff(_Connective):
    """|left - right|."""


class DotMinus(_Connective):
    """max(0, left - right)."""


class Max(_Connective):
    """max(left, right)."""


class Min(_Connective):
    """min(left, right)."""


class Plus(_Connective):
    """left + right."""


@dataclass(frozen=True, eq=False)
class Times(Formula):
    coeff: float
    arg: Formula

    def __post_init__(self):
        if _number(self.coeff) < 0:
            raise ValueError("formula scaling must be nonnegative")


@dataclass(frozen=True)
class Lit(Formula):
    value: float

    def __post_init__(self):
        _number(self.value)


@dataclass(frozen=True, eq=False)
class _Quantified(Formula):
    bindings: tuple[tuple[str, Ball], ...]
    body: Formula

    def __post_init__(self):
        out = tuple((str(name), ball) for name, ball in self.bindings)
        if not out:
            raise ValueError("quantifier needs at least one bound variable")
        names = [name for name, _ in out]
        if len(set(names)) != len(names):
            raise ValueError("quantifier binds a variable name twice")
        for _, ball in out:
            if not isinstance(ball, Ball):
                raise ValueError(f"expected a ball specification, got {ball!r}")
        object.__setattr__(self, "bindings", out)


class Sup(_Quantified):
    """Supremum of the body over the bound balls; searched, so a lower estimate."""


class Inf(_Quantified):
    """Infimum of the body over the bound balls; searched, so an upper estimate."""


# ---------------------------------------------------------------------------
# Field table and traversal
# ---------------------------------------------------------------------------

# Each node class is a dataclass.  Its fields, in declaration order, give its
# JSON array after the tag, its children in traversal order and, parameters
# before children, the bytes of its search seed.  A field's codec is looked up
# from its annotation string (this module postpones annotations).

@dataclass(frozen=True)
class _Codec:
    encode: Callable
    decode: Callable
    seed: Callable = lambda value: ()             # parameter bytes of the search seed
    children: Callable = lambda value: ()         # child nodes, in order


def _bindings_to_json(bindings) -> list:
    return [[name, ball.structure, "U" if ball.unitary else float(ball.radius)]
            for name, ball in bindings]


def _bindings_from_json(value) -> tuple:
    out = []
    for item in _array(value):
        name, structure, spec = _array(item, 3)
        if spec == "U":
            ball = Ball(_string(structure), unitary=True)
        else:
            ball = Ball(_string(structure), _number(spec))
        out.append((_string(name), ball))
    return tuple(out)


def _bindings_seed(bindings):
    for name, ball in bindings:
        yield name.encode()
        yield b"Ball"
        yield ball.structure.encode()
        yield np.float64(ball.radius).tobytes()
        if ball.unitary:
            yield b"U"


def _child_codec(kind: type) -> _Codec:
    return _Codec(lambda node: _to_json(node, kind), lambda value: _from_json(value, kind),
                  children=lambda node: (node,))


_CODECS = {
    "str": _Codec(str, _string, seed=lambda s: (s.encode(),)),
    "int": _Codec(int, _count, seed=lambda n: (str(n).encode(),)),
    "float": _Codec(float, _number, seed=lambda x: (np.float64(x).tobytes(),)),
    "complex": _Codec(lambda c: [float(c.real), float(c.imag)], _complex,
                      seed=lambda c: (np.complex128(c).tobytes(),)),
    "np.ndarray": _Codec(matrix_to_json, matrix_from_json,
                         seed=lambda a: (np.ascontiguousarray(a).tobytes(),
                                         repr(a.shape).encode())),
    "tuple[tuple[str, Ball], ...]": _Codec(
        _bindings_to_json, _bindings_from_json, seed=_bindings_seed),
    "Term": _child_codec(Term),
    "Formula": _child_codec(Formula),
    "tuple[tuple[Term, ...], ...]": _Codec(
        lambda grid: [[_to_json(t, Term) for t in row] for row in grid],
        lambda v: tuple(tuple(_from_json(t, Term) for t in _array(row)) for row in _array(v)),
        children=lambda grid: tuple(t for row in grid for t in row)),
}

_TAGS = {
    Var: "var", Const: "const", Unit: "unit", Adj: "adj", Scale: "scale",
    Sum: "sum", Prod: "prod", Amp: "amp", Block: "block",
    Norm: "norm", NormSq: "norm_sq", SpanDist: "span_dist", PsdDist: "psd_dist",
    AbsDiff: "abs_diff", DotMinus: "dotminus", Max: "max", Min: "min", Plus: "plus",
    Times: "times", Lit: "lit", Sup: "sup", Inf: "inf",
}
_CLASSES = {tag: cls for cls, tag in _TAGS.items()}
_FIELDS = {cls: tuple((f.name, _CODECS[f.type]) for f in fields(cls)) for cls in _TAGS}


def _fields_of(node) -> tuple:
    try:
        return _FIELDS[type(node)]
    except KeyError:
        raise TypeError(f"not a sentence node: {type(node).__name__}") from None


def _children(node) -> tuple:
    return tuple(child for name, codec in _fields_of(node)
                 for child in codec.children(getattr(node, name)))


def free_variables(node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, _Quantified):
        bound = {name for name, _ in node.bindings}
        return free_variables(node.body) - bound
    out: set[str] = set()
    for child in _children(node):
        out |= free_variables(child)
    return out


def _structure_bytes(node) -> bytes:
    parts: list[bytes] = [type(node).__name__.encode()]
    for name, codec in _fields_of(node):
        parts.extend(codec.seed(getattr(node, name)))
    parts.extend(_structure_bytes(child) for child in _children(node))
    return b"(" + b"|".join(parts) + b")"


def _structure_seed(node) -> int:
    return zlib.crc32(_structure_bytes(node))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

OPT_TOL = 1e-3
"""Accuracy a quantifier search aims at; the plateau test of `unitary_detect` allows this much."""


@dataclass(frozen=True)
class EvalConfig:
    multistart: int = 16
    max_iter: int = 2000
    rng_seed: int = 0xC5A1

    def __post_init__(self):
        _count(self.multistart, "multistart")
        _count(self.max_iter, "max_iter")
        _count(self.rng_seed, "rng_seed", least=0)


@dataclass(frozen=True, eq=False)
class Exact:
    """A hint value, matrix or callable, at which its quantifier attains its optimum.

    A quantifier whose hint entry marks each of its variables Exact scores
    that one point at each search and nothing else: no zero start, no samples,
    no local search.  Its witnesses, probe calls and SearchStats are those of
    a search with one start.
    """

    value: object


@dataclass
class SearchStats:
    """Deterministic counters of one quantifier, summed over its searches.

    evaluations counts scored points as the search budgets count them; repeats
    are the points a search had already scored, answered without evaluating
    the body again.  polish_runs counts local searches, early_stops the
    searches of an inf that reached its static floor, budget_exhausted the
    local searches that ended at their evaluation cap (Powell's maxfev, the
    search budget) rather than at their tolerances.
    """

    searches: int = 0
    evaluations: int = 0
    repeats: int = 0
    polish_runs: int = 0
    early_stops: int = 0
    budget_exhausted: int = 0


@dataclass
class EvalResult:
    """Value, witnesses and search counters of one evaluation.

    converged is True on every run: no search sets it.  Deriving it from the
    counters in stats, such as budget_exhausted, is open observability work
    (see ROADMAP).
    """

    value: float
    witnesses: dict[str, np.ndarray] = field(default_factory=dict)
    converged: bool = True
    bound_kind: str = "heuristic"
    stats: list[SearchStats] = field(default_factory=list)  # per quantifier, outermost first


class _EarlyStop(Exception):
    pass


class _VarFrame:
    """Maps real coordinates to a ball element of one structure, bound to one name.

    A span ball's coordinates are the real and imaginary parts, interleaved, of
    a span element; a unitary ball's are the real coordinates of a generator H
    over the Hermitian basis, and its element is exp(iH).  Either way the
    combination is clamped to the operator-norm radius (pi for H).  cut is the
    slice of the coordinates of its quantifier that it reads.
    """

    def __init__(self, name: str, ball, system: OperatorSystem):
        self.name = name
        self.system = system
        self.cut: slice = None
        self.unitary = ball.unitary
        if self.unitary:
            self.radius = float(np.pi)
            self._stack = system.hermitian_basis
            self.ncoords = len(self._stack)
        else:
            self.radius = ball.radius
            self._stack = system._stack
            self.ncoords = 2 * system.dim

    def to_matrix(self, coords: np.ndarray) -> np.ndarray:
        if not self.unitary:
            coords = coords[0::2] + 1j * coords[1::2]
        a = _combine(coords, self._stack)
        nrm = _spec_norm(a)
        if nrm > self.radius:
            a *= self.radius / nrm
        return exp_i_hermitian(a) if self.unitary else a

    def coords_of(self, matrix) -> np.ndarray:
        if not self.unitary:
            return self.system.coords(matrix).view(float)  # interleaved re/im
        h = unitary_log(self.system._check_ambient(matrix))
        return np.einsum("kij,ij->k", self._stack.conj(), h).real

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if not self.unitary:
            return _draw_ball_coords(rng, self.system, self.radius, count).view(float)
        out = np.empty((count, self.ncoords))
        for i in range(count):
            c = rng.standard_normal(self.ncoords)
            nrm = _spec_norm(_combine(c, self._stack))
            target = rng.uniform(0.0, np.pi)
            if nrm > 0:
                c *= target / nrm
            out[i] = c
        return out


class _Quantifier:
    """One compiled Sup/Inf: its ball frames, hints, compiled body and search budget.

    hints holds one list of parts (frame, value) per hint entry naming its
    variables; a value is charted coordinates, or a callable of the outer
    variables charted at each search.  exact is True when an Exact hint entry
    attains the optimum; hints then holds that entry alone.  found holds the
    witnesses of its latest search's best point: its own variables, then those
    its inner quantifiers found there.
    """

    def __init__(self, node, frames: list[_VarFrame]):
        self.node = node
        self.is_sup = isinstance(node, Sup)
        self.frames = frames
        offsets = _offsets(f.ncoords for f in frames)
        for frame, lo, hi in zip(frames, offsets, offsets[1:]):
            frame.cut = slice(lo, hi)
        self.ncoords = offsets[-1]
        self.hints: list[list[tuple]] = []
        self.exact = False
        # fn(env) and its static lower bound, set once the body is compiled
        self.body: Callable = None
        self.floor = 0.0
        self.inner: list[_Quantifier] = []  # the quantifiers directly inside the body
        self.found: dict[str, np.ndarray] = {}
        self.samples: np.ndarray = None
        self.budget = self.polish = 0
        self.stats = SearchStats()


def _spec_norm(a: np.ndarray) -> float:
    # the LAPACK call np.linalg.norm(a, 2) makes, without its wrapper; bitwise
    # equal to it for the evaluator's internal 2-D values
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _offsets(sizes) -> list[int]:
    return list(accumulate(sizes, initial=0))


def _constant(value):
    return lambda env: value


def _identity(c: complex, shape) -> np.ndarray:
    """c.1 in a slot of the given shape; a non-square slot only takes c = 0."""
    if shape[0] != shape[1]:
        if c != 0:
            raise ValueError("identity multiple used in a non-square slot")
        out = np.zeros(shape, dtype=complex)
    else:
        out = c * np.eye(shape[0], dtype=complex)
    out.setflags(write=False)
    return out


# each binary connective: its value, and its static floor from its operands' floors
_CONNECTIVES = {
    AbsDiff: (lambda a, b: abs(a - b), lambda a, b: 0.0),
    DotMinus: (lambda a, b: max(0.0, a - b), lambda a, b: 0.0),
    Max: (max, max),
    Min: (min, min),
    Plus: (add, add),
}


class _Evaluator:
    """Compiles a sentence once into closures, then runs its quantifier searches.

    A term compiles to fn(env) with a static shape, a formula to
    fn(env) -> float with a static floor; env maps bound variable names to
    matrices.  Every shape, structure, product-closure and constant-hint error
    is raised while compiling, before the first body evaluation.
    """

    def __init__(self, sentence: Formula, structures: Mapping[str, OperatorSystem],
                 config: EvalConfig, hints, probe):
        self.structures = dict(structures)
        self.hints = list(hints or ())
        self.probe = probe
        # bare identity multiples materialize at the smallest ambient dimension;
        # amplified balls carry their own larger full algebras
        self.ambient = min((s.ambient_dim for s in self.structures.values()), default=1)
        self.quantifiers: list[_Quantifier] = []
        self.top: list[_Quantifier] = []  # the quantifiers outside every other one
        self.root, _ = self._formula(sentence, {})
        bound = {f.name for q in self.quantifiers for f in q.frames}
        for entry in self.hints:
            for name in entry:
                if name not in bound:
                    raise ValueError(f"hint for {name!r}, which no quantifier binds")
        single_block = len(self.quantifiers) == 1
        for q in self.quantifiers:
            if q.exact:
                continue  # its one hinted point is its whole search
            # nested quantifiers get drastically smaller search budgets: the
            # analytic hints carry the accuracy, the samples the exploration
            if single_block:
                nstarts, q.budget, q.polish = config.multistart, config.max_iter, 2
            elif not q.inner:
                nstarts = max(4, config.multistart // 4)
                q.budget, q.polish = max(24, config.max_iter // 80), 1
            else:
                nstarts = max(6, config.multistart // 2)
                q.budget, q.polish = max(32, config.max_iter // 50), 1
            rng = np.random.default_rng([config.rng_seed, _structure_seed(q.node)])
            q.samples = np.hstack([f.sample(rng, nstarts) for f in q.frames])

    def _system(self, name: str) -> OperatorSystem:
        if name not in self.structures:
            raise ValueError(f"unresolved structure slot {name!r}")
        return self.structures[name]

    # -- compiling terms ------------------------------------------------------

    def _term(self, t: Term, scope) -> tuple:
        """Compile a term into (shape, fn(env)).

        A term built from identity multiples alone compiles to (None, c): the
        coefficient of c.1, sized by the context that uses it.
        """
        if isinstance(t, Var):
            if t.name not in scope:
                raise ValueError(f"sentence is not closed; free variable {t.name!r}")
            d = self._system(scope[t.name].structure).ambient_dim
            return (d, d), itemgetter(t.name)
        if isinstance(t, Const):
            return t.value.shape, _constant(t.value)
        if isinstance(t, Unit):
            return None, complex(t.coeff)
        if isinstance(t, (Adj, Scale, Amp)):
            shape, fn = self._term(t.arg, scope)
            if isinstance(t, Adj):
                if shape is None:
                    return None, fn.conjugate()
                return shape[::-1], lambda env: fn(env).conj().T
            if isinstance(t, Scale):
                coeff = complex(t.coeff)
                if shape is None:
                    return None, coeff * fn
                return shape, lambda env: coeff * fn(env)
            if shape is None:
                return None, fn
            n = t.copies
            eye = np.eye(n)
            return (shape[0] * n, shape[1] * n), lambda env: np.kron(fn(env), eye)
        if isinstance(t, Sum):
            return self._sum(t, scope)
        if isinstance(t, Prod):
            return self._prod(t, scope)
        if isinstance(t, Block):
            return self._block(t, scope)
        raise TypeError(f"unknown term node {type(t).__name__}")

    def _sum(self, t: Sum, scope):
        (ls, lf), (rs, rf) = self._term(t.left, scope), self._term(t.right, scope)
        if ls is None and rs is None:
            return None, lf + rf
        if ls is None:
            eye = _identity(lf, rs)
            return rs, lambda env: eye + rf(env)
        if rs is None:
            eye = _identity(rf, ls)
            return ls, lambda env: lf(env) + eye
        if ls != rs:
            raise ValueError(f"sum of incompatible shapes {ls} and {rs}")
        return ls, lambda env: lf(env) + rf(env)

    def _prod(self, t: Prod, scope):
        (ls, lf), (rs, rf) = self._term(t.left, scope), self._term(t.right, scope)
        for name in free_variables(t.left) | free_variables(t.right):
            structure = scope[name].structure
            if not self._system(structure).is_cstar:
                raise ValueError(f"product term over variable {name!r} requires structure "
                                 f"{structure!r} to be product-closed")
        if ls is None and rs is None:
            return None, lf * rf
        if ls is None:
            return rs, lambda env: lf * rf(env)
        if rs is None:
            return ls, lambda env: lf(env) * rf
        if ls[1] != rs[0]:
            raise ValueError(f"product of incompatible shapes {ls} and {rs}")
        return (ls[0], rs[1]), lambda env: lf(env) @ rf(env)

    def _block(self, t: Block, scope):
        """Compile a block into a constant template plus slots for its matrix cells."""
        cells = [[self._term(cell, scope) for cell in row] for row in t.grid]
        heights = [self._side({s[0] for s, _ in row if s is not None},
                              f"grid row {i} mixes row-counts")
                   for i, row in enumerate(cells)]
        widths = [self._side({row[j][0][1] for row in cells if row[j][0] is not None},
                             f"grid column {j} mixes column-counts")
                  for j in range(len(cells[0]))]
        tops, lefts = _offsets(heights), _offsets(widths)
        template = np.zeros((tops[-1], lefts[-1]), dtype=complex)
        slots = []
        for i, row in enumerate(cells):
            for j, (shape, fn) in enumerate(row):
                if shape is not None:
                    slots.append((slice(tops[i], tops[i + 1]), slice(lefts[j], lefts[j + 1]), fn))
                elif fn != 0:
                    if heights[i] != widths[j]:
                        raise ValueError("identity multiple used in a non-square slot")
                    idx = np.arange(heights[i])
                    template[tops[i] + idx, lefts[j] + idx] = fn
        template.setflags(write=False)

        def value(env):
            out = template.copy()
            for rows, cols, fn in slots:
                out[rows, cols] = fn(env)
            return out

        return template.shape, value

    def _side(self, sizes: set, message: str) -> int:
        if len(sizes) > 1:
            raise ValueError(message)
        return sizes.pop() if sizes else self.ambient

    # -- compiling formulas ---------------------------------------------------

    def _formula(self, f: Formula, scope, outer: _Quantifier | None = None, depth: int = 0):
        """Compile a formula into (fn(env) -> float, floor).

        floor is a static lower bound of the value, for the early stop of an
        inf.  outer is the innermost enclosing quantifier and depth its
        alternation depth, for the alternation cap.
        """
        if isinstance(f, _Quantified):
            return self._quantifier(f, scope, outer, depth)
        if type(f) in _CONNECTIVES:
            op, floor = _CONNECTIVES[type(f)]
            left, lo = self._formula(f.left, scope, outer, depth)
            right, ro = self._formula(f.right, scope, outer, depth)
            return (lambda env: op(left(env), right(env))), floor(lo, ro)
        if isinstance(f, Times):
            coeff = f.coeff
            arg, floor = self._formula(f.arg, scope, outer, depth)
            return (lambda env: coeff * arg(env)), coeff * floor
        if isinstance(f, Lit):
            value = float(f.value)
            return _constant(value), value
        if not isinstance(f, (Norm, NormSq, SpanDist, PsdDist)):
            raise TypeError(f"unknown formula node {type(f).__name__}")
        shape, arg = self._term(f.arg, scope)
        if shape is None:
            shape = (self.ambient, self.ambient)
            arg = _constant(_identity(arg, shape))
        if isinstance(f, Norm):
            return (lambda env: _spec_norm(arg(env))), 0.0
        if isinstance(f, NormSq):
            def norm_sq(env):
                v = _spec_norm(arg(env))
                return v * v
            return norm_sq, 0.0
        system = self._system(f.structure)
        if isinstance(f, SpanDist):
            d = system.ambient_dim
            if shape != (d, d):
                raise ValueError(f"span distance needs a {d} x {d} matrix, got {shape}")
            return (lambda env: dist_to_system(arg(env), system)), 0.0
        return self._psd_dist(shape, arg, system), 0.0

    @staticmethod
    def _psd_dist(shape, arg, system: OperatorSystem):
        d = system.ambient_dim
        if shape[0] != shape[1] or shape[0] % d != 0:
            raise ValueError(f"PSD-cone distance needs a square matrix of block dimension {d}")
        cuts = [slice(i, i + d) for i in range(0, shape[0], d)]

        def value(env):
            w = arg(env)
            for rows in cuts:
                for cols in cuts:
                    if system.membership_residual(w[rows, cols]) > 1e-6:
                        raise ValueError("PSD-cone distance evaluated outside M_k(structure)")
            return dist_to_psd(w)

        return value

    def _quantifier(self, f, scope, outer: _Quantifier | None, depth):
        depth += outer is None or type(f) is not type(outer.node)
        if depth > _MAX_ALTERNATION:
            raise NestingDepthError(
                f"alternation depth {depth} exceeds the supported cap {_MAX_ALTERNATION}"
            )
        frames = []
        for name, ball in f.bindings:
            system = self._system(ball.structure)
            if ball.unitary and not system.is_cstar:
                raise ValueError(f"unitary quantification over {ball.structure!r} needs a "
                                 "product-closed structure")
            frames.append(_VarFrame(name, ball, system))
        q = _Quantifier(f, frames)
        names = [name for name, _ in f.bindings]
        for entry in self.hints:
            named = [(frame, entry[frame.name]) for frame in frames if frame.name in entry]
            marked = sum(isinstance(value, Exact) for _, value in named)
            if marked and marked < len(frames):
                raise ValueError(f"an exact hint must mark every variable of its quantifier {names}")
            if marked and q.exact:
                raise ValueError(f"two exact hint entries for the quantifier over {names}")
            parts = []
            for frame, value in named:
                value = value.value if marked else value
                parts.append((frame, value if callable(value) else frame.coords_of(value)))
            if marked:
                q.exact, q.hints = True, [parts]
            elif parts and not q.exact:
                q.hints.append(parts)
        self.quantifiers.append(q)
        (outer.inner if outer else self.top).append(q)
        q.body, q.floor = self._formula(f.body, {**scope, **dict(f.bindings)}, q, depth)
        return (lambda env: self._quant(q, env)), q.floor

    # -- quantifier optimization --------------------------------------------

    def _starts_for(self, q: _Quantifier, env):
        # hints first: for an inf they can trigger the floor early-stop before
        # any sampled start is even evaluated
        starts = []
        for parts in q.hints:
            coords = np.zeros(q.ncoords)
            for frame, value in parts:
                if callable(value):
                    value = frame.coords_of(value(dict(env)))
                coords[frame.cut] = value
            starts.append(coords)
        if not q.exact:
            starts.append(np.zeros(q.ncoords))
            starts.extend(q.samples)
        return starts

    def _quant(self, q: _Quantifier, env) -> float:
        """One search: score every start, then polish the best with Powell.

        Powell (`minimize`, looked up at each call) minimizes the signed value
        (the value for an inf, its negative for a sup) and stops at its
        tolerances or at its evaluation cap, q.budget.  It returns only its
        evaluation count: raw tracks the best point and its witnesses itself.
        An inf stops at the first fresh point at or below its static floor,
        with an _EarlyStop that passes through Powell unchanged.  An exact
        quantifier's one start is its whole search.
        """
        is_sup = q.is_sup
        sign = -1.0 if is_sup else 1.0
        stats = q.stats
        stats.searches += 1
        best = -np.inf if is_sup else np.inf
        found: dict[str, np.ndarray] = {}
        evals = 0
        # env is fixed for this search, so a point's value depends on its exact
        # coordinates alone; Powell re-scores its start and line-search points
        seen: dict[bytes, float] = {}

        def raw(coords) -> float:
            nonlocal best, found, evals
            evals += 1
            key = coords.tobytes()
            value = seen.get(key)
            if value is not None:
                # a repeat never strictly improves, so it needs no witnesses
                stats.repeats += 1
                return sign * value
            bound = dict(env)
            for frame in q.frames:
                bound[frame.name] = frame.to_matrix(coords[frame.cut])
            value = seen[key] = q.body(bound)
            if value > best if is_sup else value < best:
                # the inner searches just ran at this point
                found = {frame.name: bound[frame.name] for frame in q.frames}
                for inner in q.inner:
                    found.update(inner.found)
                best = value
                if not is_sup and value <= q.floor + 1e-11:
                    raise _EarlyStop
            return sign * value

        starts = self._starts_for(q, env)
        try:
            signed = [raw(c) for c in starts]
            # a stable sort: ties go to the earlier start
            for idx in sorted(range(len(starts)), key=signed.__getitem__)[:q.polish]:
                stats.polish_runs += 1
                # the line search's bracket overflows along a direction in which
                # the body is unbounded
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    nfev = minimize(raw, starts[idx], q.budget, xtol=1e-5, ftol=1e-8)
                stats.budget_exhausted += nfev >= q.budget
        except _EarlyStop:
            stats.early_stops += 1

        stats.evaluations += evals
        q.found = found
        if self.probe is not None:
            self.probe(q.node, dict(env), best)
        return best

    def run(self) -> EvalResult:
        value = self.root({})
        witnesses: dict[str, np.ndarray] = {}
        for q in self.top:
            witnesses.update(q.found)
        kinds = {q.is_sup for q in self.quantifiers}
        bound_kind = ("exact" if not kinds else "heuristic" if len(kinds) == 2
                      else "lower-estimate" if True in kinds else "upper-estimate")
        return EvalResult(value, witnesses, True, bound_kind,
                          [q.stats for q in self.quantifiers])


def evaluate(sentence: Formula, structures: Mapping[str, OperatorSystem],
             config: EvalConfig | None = None, *,
             hints: Sequence[Mapping[str, object]] | None = None,
             probe: Callable | None = None) -> EvalResult:
    """Evaluate a closed sentence over named structures.

    hints: optional list of partial witness assignments {var: matrix-or-callable};
    callables receive the environment of already-bound outer variables.  Hinted
    points are always among the optimizer starts.  A matrix is charted into its
    ball's coordinates once, while compiling; a callable's value is charted at
    each search.  A hint that does not fit its ball (of the wrong size, or off
    the unitary group for a unitary ball) is an error: ValueError, raised for a
    matrix before the first body evaluation.  So is a hint for a name that no
    quantifier binds.

    A hint value wrapped in Exact(value) says that the point attains its
    quantifier's optimum: each search of that quantifier scores just the
    hinted point, with no zero start, samples or local search.  An exact
    entry must mark every variable of its quantifier, and a quantifier takes
    at most one; either mistake is a ValueError raised before the first body
    evaluation.  The caller vouches for the optimum: a sup scored at a wrong
    exact point is still a lower estimate, and an inf an upper one, but only
    as tight as that point.

    probe: optional callable probe(node, env, value), called with the result of
    every quantifier search; node is that quantifier's own Sup or Inf object in
    the sentence passed in, not a copy.  Each search remembers the points it
    has scored, so a nested quantifier is searched, and probed, once per
    distinct point of its enclosing search, not once per request for that
    point.

    The witnesses are those of each search's best point: the outermost
    search's variables, then those of the searches nested in it, run at that
    point; an inner variable that shadows an outer one wins.
    """
    config = config or EvalConfig()
    return _Evaluator(sentence, structures, config, hints, probe).run()


# ---------------------------------------------------------------------------
# JSON sentence format: tagged nested arrays
# ---------------------------------------------------------------------------

def _to_json(node, kind: type) -> list:
    if not isinstance(node, kind):
        raise TypeError(f"cannot serialize {type(node).__name__} as a {kind.__name__.lower()}")
    return [_TAGS[type(node)],
            *(codec.encode(getattr(node, name)) for name, codec in _fields_of(node))]


def _from_json(obj, kind: type):
    what = kind.__name__.lower()
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{what} JSON must be a non-empty array")
    tag, *values = obj
    cls = _CLASSES.get(tag) if isinstance(tag, str) else None
    if cls is None or not issubclass(cls, kind):
        raise ValueError(f"unknown {what} tag {tag!r}")
    spec = _FIELDS[cls]
    if len(values) != len(spec):
        raise ValueError(f"{tag!r} takes {len(spec)} fields, got {len(values)}")
    return cls(*[codec.decode(value) for (_, codec), value in zip(spec, values)])


def sentence_to_json(f: Formula):
    return _to_json(f, Formula)


def sentence_from_json(obj) -> Formula:
    try:
        return _from_json(obj, Formula)
    except ValueError as exc:
        raise ValueError(f"malformed sentence JSON: {exc}") from exc
