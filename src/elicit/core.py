"""Convex-function engine and shared domain types.

Everything downstream (truthfulness checks, payment synthesis, scoring
rules, power diagrams) is driven by a convex function together with a
selection of subgradients.  This module provides the three supported
representations of a convex function -- a max of affine pieces, the
squared Euclidean norm, and negative entropy on the probability simplex
-- plus evaluation, subgradient selection and discrete Legendre
conjugation.  The pairwise verifiers read their one matrix over pairs
(payoffs, gains or weights) through :func:`_scan_pairs`, a block of
rows of ``_BLOCK_CELLS`` cells at a time, and the truthfulness checks
of an affine score share one deviation-gains pass, :func:`_gain_scan`.
A scoring rule's properness (``scoring.check_proper``) is the same
pass over beliefs x reports, each belief's own column that of its
truthful report.

Public constructors and functions read the numbers a caller passes with
:func:`_numbers`, :func:`_as_matrix`, :func:`_as_vector` or
:func:`_as_distribution`, a scalar with :func:`_number`, index lists
with :func:`_indices`, a scalar count with :func:`_whole_number` and a
position in a sequence with :func:`_index`; each names what it refuses.

Vectors are numpy float64 arrays.  Score constants and payoffs are
extended reals, read by ``_numbers(..., extended=True)``: ``-inf``, or the
JSON string ``"-inf"``, is legal (log-score style); ``+inf`` and ``nan``
are rejected at every public boundary, and finite inputs whose
arithmetic leaves the float range raise ValueError.  The
multiplication convention ``0 * (-inf) == 0``, also for a probability
within ``SIMPLEX_TOL`` below 0, is applied by
``scoring.OutcomeScoreTable.payoff_matrix``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "INTERIOR_EPS",
    "SIMPLEX_TOL",
    "MAX_MATRIX_CELLS",
    "ElicitError",
    "DomainError",
    "DimensionMismatchError",
    "NotImplementableError",
    "NotMonotoneError",
    "InconsistentAnchorsError",
    "UnreachableActionError",
    "NonPositiveScaleError",
    "Witness",
    "CheckReport",
    "WitnessColumns",
    "TypeSpace",
    "LinearFamily",
    "MaxAffine",
    "SquaredNorm",
    "NegEntropy",
    "ConvexSpec",
    "ScoreTable",
    "require_positive",
    "eval_convex",
    "subgradient",
    "conjugate",
    "deviation_gains",
    "check_subgradient_selection",
]

#: Absolute tolerance for equality/inequality checks.
DEFAULT_TOL = 1e-9
#: Coordinates below this are treated as on the simplex boundary.
INTERIOR_EPS = 1e-12
#: Tolerance for simplex membership (sum to one, nonnegativity).
SIMPLEX_TOL = 1e-9
#: The most cells of a matrix over pairs, such as the cmon weights of m
#: types or a payoff matrix: 2^26 floats, 512 MiB.  A larger one is
#: refused before it is allocated, so whether an input is accepted does
#: not depend on the memory of the machine.
MAX_MATRIX_CELLS = 1 << 26
#: Work arrays over pairs are formed this many floats (256 KiB) at a
#: time, a block of rows at once, so they stay in a core's cache: the
#: candidates of a Bellman-Ford round (``monotone.longest_paths``) and
#: the blocks of :func:`_scan_pairs`.  A whole m x m float array
#: outgrows a 2 MiB L2 cache from about 500 nodes, and with the weights
#: beside it from 360.
_BLOCK_CELLS = 1 << 15


class ElicitError(Exception):
    """Base class for all library errors."""


class DomainError(ElicitError):
    """Input lies outside the valid domain of a convex function."""


class DimensionMismatchError(ElicitError):
    """Vector dimensions or collection lengths do not line up."""


class NotImplementableError(ElicitError):
    """No payment rule can make the given allocation truthful.

    Carries the violating cycle as ``.cycle`` (type indices) and its
    total weight as ``.weight``.
    """

    def __init__(self, cycle: Sequence[int], weight: float):
        self.cycle = list(cycle)
        self.weight = float(weight)
        super().__init__(
            f"positive cycle {self.cycle} with weight {self.weight:.6g}"
        )


class NotMonotoneError(ElicitError):
    """A 1-D allocation decreases; carries the first offending pair."""

    def __init__(self, index: int, left: float, right: float):
        self.index = index
        self.left = float(left)
        self.right = float(right)
        super().__init__(
            f"allocation decreases at breakpoint {index}: "
            f"{self.left:.6g} -> {self.right:.6g}"
        )


class InconsistentAnchorsError(ElicitError):
    """Anchored surplus values cannot all belong to one convex function."""


class UnreachableActionError(ElicitError):
    """A subgradient puts weight on an action the decision rule never takes."""


class NonPositiveScaleError(ElicitError):
    """Homothet scale factors must be positive and finite."""


# ---------------------------------------------------------------------------
# tolerances and size limits


def require_positive(x: float, what: str = "tolerance") -> float:
    """Read a tolerance or radius as positive and finite.  Against a nan
    or infinite tolerance no comparison fails, so no check could."""
    return _number(x, what, "positive and finite")


def _require_cells(rows: int, cols: int, what: str) -> None:
    """``ValueError`` naming ``what`` when a rows x cols float matrix would
    have more than ``MAX_MATRIX_CELLS`` cells; call it before allocating."""
    if rows * cols > MAX_MATRIX_CELLS:
        raise ValueError(
            f"{what} would take {rows} x {cols} floats, {8 * rows * cols} bytes, "
            f"above the limit of {8 * MAX_MATRIX_CELLS} bytes"
        )


def _require_summable(values: np.ndarray, count: int, what: str) -> None:
    """``ValueError`` "``what`` overflow the float range" when a sum of up
    to ``count`` of ``values`` could leave the float range, or one is nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = count * np.maximum(values.max(initial=0.0), -values.min(initial=0.0))
    if not bound < np.inf:
        raise ValueError(f"{what} overflow the float range")


# ---------------------------------------------------------------------------
# check reports


@dataclass
class Witness:
    """One violation record: which indices, and by how much."""

    kind: str
    indices: tuple
    slack: float
    detail: str = ""

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "indices": list(self.indices),
            "slack": self.slack,
            "detail": self.detail,
        }


class WitnessColumns(Sequence):
    """Witnesses kept as columns, in blocks; a :class:`Witness` is built
    only when one is read.  A block is ``(kind, index, slack, detail)``:
    an int array of shape (n, k) whose rows are the witnesses' indices,
    an array of their n slacks, each a finite amount, and a kind and a
    detail that are each a *text*.  A text is one str for the whole block, or a
    ``%``-template with its argument columns, ``(template, args)``:
    witness i's text is ``template % (args[0][i], args[1][i], ...)``,
    filled in only when the witness is read or written.  The args are
    numeric arrays of n.  ``template`` is one str, or ``(options,
    choice)``: a tuple of str and an int or bool array of n, witness i
    taking ``options[choice[i]]``; every option takes every argument
    (``%.0s`` takes one and writes nothing).  ``+`` concatenates.  A
    verifier gathers a block's columns at the pairs of :func:`_scan_pairs`
    or at ``np.nonzero`` of its own mask, both in row-major order."""

    def __init__(self, blocks=()):
        self.blocks = [block for block in blocks if len(block[2])]

    def __len__(self) -> int:
        return sum(len(block[2]) for block in self.blocks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]  # an IndexError out of range; from the end if negative
        for kind, index, slack, detail in self.blocks:
            if i < len(slack):
                row = lambda column: column[i : i + 1]
                one = (_text_columns(kind, row), row(index), row(slack), _text_columns(detail, row))
                return next(iter(WitnessColumns([one])))
            i -= len(slack)

    def __iter__(self):
        for kind, index, slack, detail in self.blocks:
            n, indices = len(slack), map(tuple, index.tolist())
            yield from map(Witness, _fill(kind, n), indices, slack.tolist(), _fill(detail, n))

    def __add__(self, other: "WitnessColumns") -> "WitnessColumns":
        return WitnessColumns(self.blocks + other.blocks)


def _text_columns(text, f):
    """A text of a :class:`WitnessColumns` block with ``f`` applied to
    each of its columns: its args and its choice, if any."""
    if isinstance(text, str):
        return text
    template, args = text
    if not isinstance(template, str):
        template = (template[0], f(template[1]))
    return template, tuple(map(f, args))


def _fill(text, n: int):
    """The n strings of a text of a :class:`WitnessColumns` block."""
    if isinstance(text, str):
        return itertools.repeat(text, n)
    template, args = text
    rows = zip(*(arg.tolist() for arg in args)) if args else itertools.repeat((), n)
    if isinstance(template, str):
        return map(template.__mod__, rows)
    options, choice = template
    return map(str.__mod__, map(options.__getitem__, choice.tolist()), rows)


@dataclass
class CheckReport:
    """Outcome of a verification: its certificate, a :class:`WitnessColumns`
    (empty when the check passed), and the work it did in ``info``."""

    witnesses: WitnessColumns
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_obj(self) -> dict:
        """The document ``jsonio.dumps`` writes for this report.  Its
        ``witnesses`` entry is the report's own sequence, which dumps
        writes as the list of each witness's :meth:`Witness.to_obj`."""
        return {"passed": self.passed, "witnesses": self.witnesses, "info": dict(self.info)}


def deviation_gains(values, truth, axis: int, out=None) -> np.ndarray:
    """What every report gains over each agent's truthful one: ``values``
    minus the agent's own score, in the layout of ``values``.  Reports
    run along ``axis``, agents (types or beliefs) along the other, and
    agent a's truthful report is ``truth[a]``.  ``out``, which may be
    ``values`` itself, takes the gains in place of a new array.  A
    non-finite own score raises ``ValueError``; so does a ``+inf`` or nan
    gain (an overflow), naming the first such agent and its report.
    ``-inf`` gains are legal."""
    by_agent = values.T if axis == 0 else values  # by_agent[agent, report]
    own = by_agent[np.arange(len(by_agent)), truth]
    if not np.isfinite(own).all():
        raise ValueError("truthful reports must score finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        gains = np.subtract(values, np.expand_dims(own, axis), out=out)
    if not gains.max(initial=-np.inf) < np.inf:  # one pass finds a +inf or nan
        by_agent = gains.T if axis == 0 else gains
        a, r = np.argwhere(~(by_agent < np.inf))[0].tolist()
        raise ValueError(
            f"agent {a} gains {by_agent[a, r]} by report {r}: "
            "deviation gains must be finite or -inf"
        )
    return gains


class _PairScan(NamedTuple):
    """What :func:`_scan_pairs` found: the pairs (rows[k], cols[k]) whose
    value exceeds the bound, in row-major order, and their values; the
    largest value over every pair scanned, -inf when there is none; and
    how many pairs the blocks' ``keep`` masks admitted."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    best: float
    kept: int


def _scan_pairs(shape, block, tol: float, own=None, upper=False) -> _PairScan:
    """Scan the pairs (i, j), j != ``own[i]`` (by default i), of a matrix
    over pairs of the given ``shape``, or only those with i < j when
    ``upper`` (a symmetric check), a block of rows at a time, so the scan
    forms no such matrix of its own.

    ``block(lo, hi)`` returns ``(values, keep)``: rows lo:hi of the
    matrix as a writable array, over every column or with ``upper`` over
    the columns lo:, and None or a bool array of the same shape that
    admits the pairs which may be witnesses.  The scan writes ``-inf``
    into the block's cells that are no pair (the own columns, and with
    ``upper`` the cells below them) and False into ``keep`` there.  A
    block has at least one row and at most ``_BLOCK_CELLS`` cells beyond
    it in any dimension, as ``monotone._gaps`` sums one coordinate at a
    time."""
    n, width = shape
    own = np.arange(n) if own is None else own
    step = max(1, _BLOCK_CELLS // max(1, width))
    found = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
    best, kept = -np.inf, 0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        first = lo if upper else 0
        values, keep = block(lo, hi)
        view = np.s_[:, : hi - lo] if upper else np.s_[:]  # a triangle on the columns lo:hi
        off = np.tri(hi - lo, dtype=bool) if upper else (np.arange(hi - lo), own[lo:hi])
        values[view][off] = -np.inf
        top = values.max(initial=-np.inf)
        best = max(best, top)
        if keep is not None:
            keep[view][off] = False
            kept += int(np.count_nonzero(keep))
        if top > tol:  # a passing block forms no mask
            hit = values > tol
            if keep is not None:
                hit &= keep
            r, c = np.nonzero(hit)  # row-major
            found.append((r + lo, c + first, values[r, c]))
    rows, cols, values = map(np.concatenate, zip(*found))
    return _PairScan(rows, cols, values, float(best), kept)


def _gain_scan(score: ScoreTable, ts: TypeSpace, tol: float, out=None) -> _PairScan:
    """The deviation-gains pass of the truthfulness checks of an affine
    score with one report per type: gains[r, i], what type i gains by
    report r, formed in place in the payoff matrix, scanned for the pairs
    r != i whose gain exceeds ``tol``.  ``out``, an m x m float array,
    takes the payoff matrix in place of a new array."""
    gains = score.payoff_matrix(ts, out=out)
    deviation_gains(gains, np.arange(len(ts)), axis=0, out=gains)
    return _scan_pairs(gains.shape, lambda lo, hi: (gains[lo:hi], None), tol)


# ---------------------------------------------------------------------------
# domain types


#: How :func:`_numbers` names what is no number.
_NOT_NUMBERS = {
    str: "strings",
    np.str_: "strings",
    bool: "booleans",
    np.bool_: "booleans",
    type(None): "null",
    dict: "objects",
}
#: The types of the numbers and of the arrays in a JSON document.
_JSON_NUMBERS = frozenset({float, int})
_ROWS = frozenset({list, tuple})
_ARRAYS = _ROWS | {np.ndarray}
#: The one string an extended real (a score constant or payoff) may be.
_EXTENDED = {"-inf": -math.inf}


def _require_numbers(kinds, what: str) -> None:
    """``ValueError`` naming ``what`` unless every type in ``kinds`` is a
    number type, bool excepted."""
    bad = {
        _NOT_NUMBERS.get(kind, kind.__name__)
        for kind in kinds
        if kind is bool or not issubclass(kind, (int, float, np.number))
    }
    if bad:
        raise ValueError(f"{what} must hold numbers, not {' or '.join(sorted(bad))}")


def _numbers(x, what: str, extended: bool = False) -> np.ndarray:
    """``x``, a number, an array or nested lists of numbers, as a float
    array.  A string, a boolean, null or an int beyond the float range
    raises ``ValueError`` naming ``what``, and rows of unequal length
    raise ``DimensionMismatchError``.  ``extended`` reals, score constants
    or payoffs, may also be list entries ``"-inf"``, read as -inf, and are
    refused by name when +inf or nan."""
    try:
        shape = None
        if type(x) in _ROWS:  # check the type of each entry, a level of rows at a time
            shape, flat = [len(x)], x
            while (kinds := set(map(type, flat))) and kinds <= _ROWS:
                if len(set(map(len, flat))) > 1:
                    raise DimensionMismatchError(f"{what} has rows of unequal length")
                shape.append(len(flat[0]))
                flat = list(itertools.chain.from_iterable(flat))
            if extended and str in kinds:  # other strings stay, to be refused
                flat = [_EXTENDED.get(v, v) if type(v) is str else v for v in flat]
                kinds = set(map(type, flat))
            if kinds <= _JSON_NUMBERS:  # numpy need not find the shape
                flat = np.array(flat, dtype=float)
            else:  # numpy reads the arrays among the entries, which must hold numbers too
                _require_numbers(kinds - _ARRAYS, what)
                _require_numbers({a.dtype.type for a in flat if isinstance(a, np.ndarray)}, what)
            x = flat  # the entries below the rows of shape
        try:
            arr = np.asarray(x)
        except ValueError:  # rows of unequal length
            raise DimensionMismatchError(f"{what} has rows of unequal length") from None
        if arr.dtype.kind == "O":
            _require_numbers(set(map(type, arr.ravel().tolist())), what)
        elif arr.dtype.kind not in "iuf":
            _require_numbers({arr.dtype.type}, what)
        arr = arr.astype(float, copy=False)
        if shape:
            arr = arr.reshape(shape + list(arr.shape[1:]))
    except OverflowError:  # from float(int)
        raise ValueError(f"{what} holds an integer beyond the float range") from None
    if extended and not arr.max(initial=-np.inf) < np.inf:  # one pass finds a +inf or nan
        raise ValueError(f"{what} must be finite or -inf, got {arr[~(arr < np.inf)][0]}")
    return arr


def _number(x, what: str, must: Optional[str] = "finite") -> float:
    """``x``, one number, read by :func:`_numbers` as a float that is
    ``must`` (None: any float); a refusal is a ``ValueError`` naming ``what``."""
    value = _numbers(x, what)
    if value.ndim:
        raise ValueError(f"{what} must be one number, got shape {value.shape}")
    x = float(value)
    holds = {
        "finite": -math.inf < x < math.inf,
        "nonnegative and finite": 0.0 <= x < math.inf,
        "positive and finite": 0.0 < x < math.inf,
    }
    if must and not holds[must]:
        raise ValueError(f"{what} must be {must}, got {x}")
    return x


def _as_matrix(points, what: str) -> np.ndarray:
    pts = _numbers(points, what)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise DimensionMismatchError(f"{what} must be a 2-D array of row vectors")
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} must be finite, got {pts[~np.isfinite(pts)][0]}")
    return pts


def _as_vector(v, what: str = "vector", extended: bool = False) -> np.ndarray:
    vec = np.atleast_1d(_numbers(v, what, extended))
    if vec.ndim != 1:
        raise DimensionMismatchError(f"{what} must be 1-D")
    if not extended and not np.isfinite(vec).all():
        raise ValueError(f"{what} must be finite, got {vec[~np.isfinite(vec)][0]}")
    return vec


def _whole_number(x, what: str) -> int:
    """``x`` as an int; ``ValueError`` naming ``what`` unless it is a whole
    number in the int64 range, of Python or numpy, and no boolean."""
    number = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    if number and -(2**63) <= x < 2**63 and x == int(x):  # nan is out of range
        return int(x)
    raise ValueError(f"{what} {x!r} is not an integer in the int64 range")


def _index(x, size: int, what: str) -> int:
    """``x`` read by :func:`_whole_number` as a position among ``size``
    items; ``ValueError`` naming ``what`` outside ``[0, size)``."""
    i = _whole_number(x, what)
    if not 0 <= i < size:
        raise ValueError(f"{what} must be in [0, {size}), got {i}")
    return i


def _indices(x, what: str, size: float = math.inf) -> np.ndarray:
    """The entries of ``x`` as an int64 array, each read by
    :func:`_whole_number` and refused, as by :func:`_index`, outside
    ``[0, size)``."""
    if isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind == "i":
        indices = x.astype(np.int64)  # a copy; every entry is whole
    else:
        entries = list(x) if np.iterable(x) else [x]
        indices = None
        if set(map(type, entries)) <= {int, np.int64}:  # no test per entry, unless beyond int64
            try:
                indices = np.array(entries, dtype=np.int64)
            except OverflowError:
                pass
        if indices is None:
            entries = [_whole_number(e, f"{what} entry") for e in entries]
            indices = np.array(entries, dtype=np.int64)
    for i in indices[(indices < 0) | (indices >= size)][:1].tolist():  # the first outside
        _index(i, size, f"{what} entry")
    return indices


#: The odd multiplier of the row hash of :func:`_require_distinct`.
_HASH_FACTOR = np.uint64(0x9E3779B97F4A7C15)


def _require_distinct(rows: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first row of ``rows`` that repeats
    an earlier one; -0.0 and 0.0 are the same coordinate.

    Equal rows have equal bits and so one 64-bit hash of them: when no
    two hashes agree, which one sort shows, no row repeats.  Otherwise a
    stable sort of the rows' bits puts equal rows next to each other in
    index order, and the first repeat is the least index that follows an
    equal row."""
    bits = (rows + 0.0).view(np.uint64)  # + 0.0 turns -0.0 into 0.0
    key = np.zeros(len(bits), dtype=np.uint64)
    for column in bits.T:  # modulo 2^64
        key *= _HASH_FACTOR
        key += column
    key.sort()
    if not np.count_nonzero(key[1:] == key[:-1]):
        return
    order = np.lexsort(bits.T) if bits.shape[1] else np.arange(len(bits))
    bits = bits[order]
    repeats = order[1:][(bits[1:] == bits[:-1]).all(axis=1)]
    if len(repeats):
        raise ValueError(f"duplicate {what} at index {repeats.min()}")


@dataclass
class TypeSpace:
    """A finite list of type vectors in R^n, pairwise distinct."""

    points: np.ndarray

    def __post_init__(self):
        self.points = _as_matrix(self.points, "points")
        if len(self.points) == 0:
            raise ValueError("type space must be nonempty")
        _require_distinct(self.points, "type")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class LinearFamily:
    """One linear functional per type: allocation rules and subgradient
    selections, indexed positionally against a :class:`TypeSpace`."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = _as_matrix(self.vectors, "family")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.vectors)

    def check_aligned(self, ts: TypeSpace) -> None:
        if len(self) != len(ts) or self.dim != ts.dim:
            raise DimensionMismatchError(
                f"family ({len(self)} x {self.dim}) not aligned with "
                f"type space ({len(ts)} x {ts.dim})"
            )


@dataclass
class MaxAffine:
    """G(t) = max_k <slopes[k], t> + intercepts[k]; finite everywhere."""

    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        self.slopes = _as_matrix(self.slopes, "slopes")
        self.intercepts = _as_vector(self.intercepts, "intercepts")
        if len(self.slopes) == 0:
            raise ValueError("max-affine spec needs at least one piece")
        if len(self.slopes) != len(self.intercepts):
            raise DimensionMismatchError("one intercept per slope required")

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]


@dataclass
class SquaredNorm:
    """G(t) = <t, t>."""


@dataclass
class NegEntropy:
    """G(t) = sum_i t_i ln t_i on the probability simplex, 0 ln 0 = 0."""


ConvexSpec = Union[MaxAffine, SquaredNorm, NegEntropy]


@dataclass
class ScoreTable:
    """Affine score on a finite report set.

    Row r is the affine function t -> <linear[r], t> + constant[r].
    Linear parts are finite; constants may be -inf but never +inf.
    """

    reports: list
    linear: np.ndarray
    constant: np.ndarray

    def __post_init__(self):
        if isinstance(self.reports, (str, bytes, Mapping)) or not np.iterable(self.reports):
            raise ValueError(f"reports must be a list of labels, not {type(self.reports).__name__}")
        self.reports = list(self.reports)
        self.linear = _as_matrix(self.linear, "linear")
        self.constant = _as_vector(self.constant, "constant", extended=True)
        if not (len(self.reports) == len(self.linear) == len(self.constant)):
            raise DimensionMismatchError("reports, linear, constant must align")

    @property
    def dim(self) -> int:
        return self.linear.shape[1]

    def __len__(self) -> int:
        return len(self.reports)

    def payoff_matrix(self, ts: TypeSpace, out=None) -> np.ndarray:
        """Matrix V[r, i] = score of report r at type i, written into
        ``out`` if given; ``ValueError``, before anything is allocated,
        when it would have more than ``MAX_MATRIX_CELLS`` entries."""
        if ts.dim != self.dim:
            raise DimensionMismatchError("score table dimension != type space")
        _require_cells(len(self), len(ts), f"the payoffs of {len(self)} reports at {len(ts)} types")
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            values = np.matmul(self.linear, ts.points.T, out=out)
            values += self.constant[:, None]
        return values


# ---------------------------------------------------------------------------
# convex-function operations


def _off_simplex(rows: np.ndarray) -> np.ndarray:
    """True for each row (along the last axis) that is not on the
    probability simplex within SIMPLEX_TOL; a row with a nan is not."""
    nonneg = (rows >= -SIMPLEX_TOL).all(axis=-1)
    with np.errstate(over="ignore"):  # a sum beyond the float range is off the simplex
        return ~(nonneg & (abs(rows.sum(axis=-1) - 1.0) <= SIMPLEX_TOL))


def _as_distribution(p, what: str = "distribution", error=ValueError) -> np.ndarray:
    """``p`` read as numbers whose rows (along the last axis) each lie on
    the probability simplex; ``error`` names ``what`` and the first row
    that does not."""
    p = np.atleast_1d(_numbers(p, what))
    off = _off_simplex(p)
    if off.any():
        bad = p.reshape(off.size, -1)[off.argmax()].tolist()
        raise error(f"{what} {bad} is not on the probability simplex (tolerance {SIMPLEX_TOL})")
    return p


def _overflow(values: np.ndarray, what: str, points: np.ndarray) -> np.ndarray:
    """``values``, one (row) per row of ``points``, computed with overflow
    warnings off; a row not finite raises ``ValueError`` naming its point."""
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values).reshape(len(points), -1).all(axis=1)
        raise ValueError(f"{what} overflows the float range at {points[bad.argmax()].tolist()}")
    return values


def _eval_rows(g: ConvexSpec, pts: np.ndarray) -> np.ndarray:
    """G at every row of the 2-D array ``pts``, each value bitwise as
    for that row alone: an entropy row sums its positive terms only."""
    if isinstance(g, MaxAffine):
        return _overflow(_pieces(g, pts).max(axis=1), "G", pts)
    if isinstance(g, SquaredNorm):
        with np.errstate(over="ignore"):
            return _overflow(np.vecdot(pts, pts), "G", pts)
    if isinstance(g, NegEntropy):
        _as_distribution(pts, "point", DomainError)
        pos = pts > 0.0
        terms = pts * np.log(pts, out=np.zeros_like(pts), where=pos)
        sizes = pos.sum(axis=1)  # >= 1 on the simplex
        out = np.empty(len(pts))
        for size in set(sizes.tolist()):  # one pairwise sum per row length
            rows = sizes == size
            out[rows] = terms[rows][pos[rows]].reshape(-1, size).sum(axis=1)
        return out
    raise TypeError(f"unknown convex spec {type(g).__name__}")


def eval_convex(g: ConvexSpec, t):
    """Evaluate the convex function at ``t``: one point (float result) or
    each row of a 2-D array (array result, bitwise as row by row).

    Raises :class:`DomainError` for negative-entropy inputs off the
    simplex beyond tolerance, naming the first such row.
    """
    t = _numbers(t, "point")
    values = _eval_rows(g, _as_matrix(np.atleast_2d(t), "point"))
    return float(values[0]) if t.ndim < 2 else values


def _pieces(g: MaxAffine, pts: np.ndarray) -> np.ndarray:
    """pieces[k, p] = <slopes[p], pts[k]> + intercepts[p], inf or nan on overflow."""
    if g.dim != pts.shape[1]:
        raise DimensionMismatchError(f"expected dimension {g.dim}, got {pts.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(g.slopes[None], pts[:, :, None])[:, :, 0] + g.intercepts


def _grad_rows(g: ConvexSpec, pts: np.ndarray) -> np.ndarray:
    """One subgradient of G at every row of the 2-D array ``pts``, each
    bitwise as for that row alone; a bad row raises the error of the
    first one in row order."""
    if isinstance(g, MaxAffine):
        pieces = _pieces(g, pts)
        best = pieces.argmax(axis=1)  # a nan piece is its own argmax
        _overflow(pieces[np.arange(len(pts)), best], "G", pts)
        return g.slopes[best]
    if isinstance(g, SquaredNorm):
        with np.errstate(over="ignore"):
            return _overflow(2.0 * pts, "the subgradient of G", pts)
    if isinstance(g, NegEntropy):
        first = int(np.append((pts < INTERIOR_EPS).any(axis=1), True).argmax())
        # an earlier or the same row off the simplex wins
        _as_distribution(pts[: first + 1], "point", DomainError)
        if first < len(pts):
            raise DomainError(
                "negative entropy has no finite subgradient on the simplex "
                f"boundary (coordinates must be >= {INTERIOR_EPS})"
            )
        return 1.0 + np.log(pts)
    raise TypeError(f"unknown convex spec {type(g).__name__}")


def subgradient(g: ConvexSpec, t) -> np.ndarray:
    """Return one subgradient of ``g`` at ``t``.

    Max-affine ties are broken toward the lowest piece index, so the
    selection is deterministic.  Negative entropy requires a strictly
    interior point (all coordinates >= 1e-12).
    """
    return _grad_rows(g, _as_vector(t, "point")[None])[0]


def conjugate(g: ConvexSpec, d, grid: TypeSpace):
    """The conjugate max_v <d, v> - G(v) over the grid, raised to the
    exact value where the maximizer is known inside the grid's range: the
    piece crossings of a 1-D max-affine G, and ||d/2||^2 for the squared
    norm where d/2 lies in the grid's bounding box (within 1e-12).
    Elsewhere a lower bound, exact whenever a maximizer lies on the grid.

    ``d`` is one dual vector (float result) or a 2-D array of them, one
    per row (array result); G is evaluated once, on the whole grid.  A
    value of G or of the conjugate beyond the float range raises
    ``ValueError``.
    """
    d = _numbers(d, "dual vector")
    duals = _as_matrix(np.atleast_2d(d), "dual vector")
    if duals.shape[1] != grid.dim:
        raise DimensionMismatchError("dual vector dimension != grid dimension")
    pts = grid.points
    n, k = len(duals), len(pts)
    _require_cells(n, k, f"the conjugate of {n} duals over {k} grid points")
    evals = _eval_rows(g, pts)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # stacked matrix-vector products: bitwise the per-vector pts @ d
        inner = np.matmul(pts[None], duals[:, :, None])[:, :, 0]
        best = (inner - evals).max(axis=1)
        if isinstance(g, MaxAffine) and grid.dim == 1:
            a, b = g.slopes[:, 0], g.intercepts
            for i in range(len(a)):  # crossings of piece i with later ones; bounds memory
                j = np.arange(i + 1, len(a))[a[i + 1 :] != a[i]]
                x = (b[j] - b[i]) / (a[i] - a[j])
                x = x[(pts.min() <= x) & (x <= pts.max())]
                cand = duals[:, :1] * x - _eval_rows(g, x[:, None])  # d[0] * x keeps -0.0
                best = np.maximum(best, cand.max(axis=1, initial=-np.inf))
    _overflow(best, "the conjugate", duals)
    if isinstance(g, SquaredNorm):
        half = duals / 2.0
        lo, hi = pts.min(axis=0) - 1e-12, pts.max(axis=0) + 1e-12
        inside = np.all((half >= lo) & (half <= hi), axis=1)
        with np.errstate(over="ignore"):  # a row outside the box keeps its grid maximum
            best = _overflow(np.where(inside, np.vecdot(half, half), best), "the conjugate", duals)
    return float(best[0]) if d.ndim < 2 else best


def _tangent_score(g: ConvexSpec, slopes: np.ndarray, points: np.ndarray) -> ScoreTable:
    """The score of tangent planes: report r has linear part d_r and
    constant G(t_r) - <d_r, t_r>, for the rows t_r, d_r of the arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        constant = _eval_rows(g, points) - np.vecdot(slopes, points)
    _overflow(constant, "the score constant G(t) - <d, t>", points)
    return ScoreTable(reports=list(range(len(points))), linear=slopes, constant=constant)


def check_subgradient_selection(
    g: ConvexSpec,
    fam: LinearFamily,
    ts: TypeSpace,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Verify G(t') >= G(t) + d_t(t' - t) - tol over all ordered pairs.

    This is ``scoring.check_truthful`` on the score d_i . t + G(t_i) -
    d_i . t_i: the witness (i, j) is type j's gain from report i.
    """
    require_positive(tol)
    fam.check_aligned(ts)
    scan = _gain_scan(_tangent_score(g, fam.vectors, ts.points), ts, tol)
    pair = np.column_stack((scan.rows, scan.cols))
    witnesses = WitnessColumns([("pair", pair, scan.values, "subgradient inequality violated")])
    return CheckReport(witnesses, {"tol": tol})

