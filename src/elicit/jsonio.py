"""JSON schemas and canonical serialization.

Documents are emitted with sorted keys and floats rendered at 17
significant digits so identical invocations are byte-identical
(golden-file friendly).  Negative infinity is encoded as the JSON
string "-inf"; +inf and nan are rejected.

The writer, :func:`dumps`, dispatches on the exact type of each value.
float, str, int, list, tuple and dicts whose keys are all str are
rendered directly; numpy scalars and arrays, bool, None, subclasses of
the builtin types and dicts with other keys are first turned into the
builtin value they stand for.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .core import (
    ConvexSpec,
    LinearFamily,
    MaxAffine,
    NegEntropy,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    _as_matrix,
)
from .properties import LabeledSample, PowerDiagramSpec
from .scoring import OutcomeScoreTable

__all__ = [
    "dumps",
    "parse_extended",
    "require_object",
    "load_convex",
    "convex_to_obj",
    "load_typespace",
    "typespace_to_obj",
    "load_family_file",
    "load_score_table",
    "score_table_to_obj",
    "load_outcome_table",
    "outcome_table_to_obj",
    "load_diagram",
    "diagram_to_obj",
    "load_sample",
    "load_points",
]


# ---------------------------------------------------------------------------
# canonical writer


#: The string encoder ``json.dumps(str)`` calls: ASCII output, every
#: other character escaped.
_encode_str = json.encoder.encode_basestring_ascii
#: Key types of the dicts the writer renders directly: exactly str.
_STR_ONLY = frozenset([str])


def _format_float(x: float) -> str:
    if x == -math.inf:
        return '"-inf"'
    if math.isnan(x) or x == math.inf:
        raise ValueError(f"cannot serialize {x}")
    return format(x, ".17g")


def _write(obj: Any, emit, plans: dict) -> None:
    """Emit ``obj`` as canonical JSON text; ``plans`` maps the key tuple of
    each dict seen so far in this document to its key order."""
    kind = type(obj)
    if kind is float:
        # x - x is 0.0 for a finite float, nan for inf and nan
        emit(format(obj, ".17g") if obj - obj == 0.0 else _format_float(obj))
    elif kind is str:
        emit(_encode_str(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif kind is list or kind is tuple:
        emit("[")
        first = True
        for item in obj:
            if not first:
                emit(",")
            first = False
            _write(item, emit, plans)
        emit("]")
    elif kind is dict and set(map(type, obj)) <= _STR_ONLY:
        keys = tuple(obj)
        plan = plans.get(keys)
        if plan is None:
            # sorted keys, each with its encoded text, colon and separator
            plan = plans[keys] = [
                (key, ("," if k else "{") + _encode_str(key) + ":")
                for k, key in enumerate(sorted(keys))
            ]
        for key, prefix in plan:
            emit(prefix)
            _write(obj[key], emit, plans)
        emit("}" if plan else "{}")
    else:
        _write_other(obj, emit, plans)


def _write_other(obj: Any, emit, plans: dict) -> None:
    """Numpy values, bool, None, subclasses of the builtin types and dicts
    with a key that is not a str, each rendered as the builtin value it
    stands for."""
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, np.integer):
        obj = int(obj)
    if isinstance(obj, np.bool_):
        obj = bool(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        emit("null")
    elif isinstance(obj, bool):
        emit("true" if obj else "false")
    elif isinstance(obj, int):
        emit(str(obj))
    elif isinstance(obj, float):
        emit(_format_float(obj))
    elif isinstance(obj, str):
        emit(_encode_str(obj))
    elif isinstance(obj, (list, tuple)):
        _write(list(obj), emit, plans)
    elif isinstance(obj, dict):
        # keys are rendered as str(key); of keys with the same str the
        # value of the last one is written, once per key
        lookup = {str(k): v for k, v in obj.items()}
        emit("{")
        for k, key in enumerate(sorted(str(k) for k in obj)):
            emit(("," if k else "") + _encode_str(key) + ":")
            _write(lookup[key], emit, plans)
        emit("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Canonical single-document JSON text (no trailing newline).

    Accepted values and their text:

    - a finite float (numpy floating included): 17 significant digits,
      ``format(x, ".17g")``; -inf: the string ``"-inf"``; +inf and nan
      raise ``ValueError("cannot serialize inf")`` (or ``nan``);
    - an int (numpy integer included): its decimal digits, any size;
    - True/False (numpy bool included): ``true``/``false``; None: ``null``;
    - a str: ASCII text with every other character escaped, as
      ``json.dumps`` writes it;
    - a list, tuple or numpy array: an array of its items;
    - a dict: an object with the keys as ``str(key)`` in sorted order; of
      keys with the same text, each is written with the last one's value.

    Anything else raises ``TypeError("cannot serialize <type name>")``.
    """
    out: list = []
    _write(obj, out.append, {})
    return "".join(out)


# ---------------------------------------------------------------------------
# scalar / array parsing


def parse_extended(v: Any, what: str = "value") -> float:
    """Accept a JSON number or the string "-inf"."""
    if isinstance(v, str):
        if v == "-inf":
            return -math.inf
        raise ValueError(f'{what}: only "-inf" is accepted as a string, got {v!r}')
    x = float(v)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"{what} must be finite or \"-inf\"")
    return x


def require_object(obj: Any, what: str) -> dict:
    """Return ``obj`` if it is a JSON object; raise ValueError otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    return obj


def _finite_matrix(rows: Any, what: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


# ---------------------------------------------------------------------------
# convex functions


def load_convex(obj: dict) -> ConvexSpec:
    """{"maxAffine": [{"a": [...], "b": ...}, ...]} or
    {"analytic": "squaredNorm" | "negEntropy"}."""
    require_object(obj, "convex spec")
    if "maxAffine" in obj:
        pieces = obj["maxAffine"]
        if not isinstance(pieces, list) or not pieces:
            raise ValueError("maxAffine must be a nonempty list of pieces")
        slopes = [_finite_matrix(p["a"], "slope").reshape(-1) for p in pieces]
        intercepts = [parse_extended(p["b"], "intercept") for p in pieces]
        if any(math.isinf(b) for b in intercepts):
            raise ValueError("max-affine intercepts must be finite")
        return MaxAffine(slopes=np.vstack(slopes), intercepts=np.asarray(intercepts))
    if "analytic" in obj:
        kind = obj["analytic"]
        if kind == "squaredNorm":
            return SquaredNorm()
        if kind == "negEntropy":
            return NegEntropy()
        raise ValueError(f"unknown analytic form {kind!r}")
    raise ValueError("convex spec needs 'maxAffine' or 'analytic'")


def convex_to_obj(g: ConvexSpec) -> dict:
    if isinstance(g, MaxAffine):
        return {
            "maxAffine": [
                {"a": a.tolist(), "b": float(b)}
                for a, b in zip(g.slopes, g.intercepts)
            ]
        }
    if isinstance(g, SquaredNorm):
        return {"analytic": "squaredNorm"}
    if isinstance(g, NegEntropy):
        return {"analytic": "negEntropy"}
    raise TypeError(f"unknown convex spec {type(g).__name__}")


# ---------------------------------------------------------------------------
# type spaces and families


def load_typespace(obj: dict) -> TypeSpace:
    """{"dim": n, "points": [[...], ...]}"""
    require_object(obj, "type space")
    ts = TypeSpace(obj["points"])
    if "dim" in obj and int(obj["dim"]) != ts.dim:
        raise ValueError(f"declared dim {obj['dim']} != actual {ts.dim}")
    return ts


def typespace_to_obj(ts: TypeSpace) -> dict:
    return {"dim": ts.dim, "points": ts.points.tolist()}


def load_family_file(obj: dict) -> tuple:
    """{"typeSpace": {...}, "family": [[...], ...]} -> (ts, fam)."""
    require_object(obj, "family file")
    ts = load_typespace(obj["typeSpace"])
    fam = LinearFamily(_finite_matrix(obj["family"], "family"))
    fam.check_aligned(ts)
    return ts, fam


# ---------------------------------------------------------------------------
# score tables


def load_score_table(obj: dict) -> ScoreTable:
    """{"reports": [...], "linear": [[...]], "constant": [...]}"""
    require_object(obj, "score table")
    constants = [parse_extended(c, "constant") for c in obj["constant"]]
    return ScoreTable(
        reports=list(obj["reports"]),
        linear=_finite_matrix(obj["linear"], "linear"),
        constant=np.asarray(constants),
    )


def score_table_to_obj(score: ScoreTable) -> dict:
    return {
        "reports": list(score.reports),
        "linear": score.linear.tolist(),
        "constant": score.constant.tolist(),
    }


def load_outcome_table(obj: dict) -> OutcomeScoreTable:
    """{"nOutcomes": n, "reports": [[...]], "payoffs": [[...]]}"""
    require_object(obj, "outcome table")
    payoffs = [
        [parse_extended(s, "payoff") for s in row] for row in obj["payoffs"]
    ]
    table = OutcomeScoreTable(
        reports=_finite_matrix(obj["reports"], "reports"),
        payoffs=np.asarray(payoffs),
    )
    if "nOutcomes" in obj and int(obj["nOutcomes"]) != table.n_outcomes:
        raise ValueError("declared nOutcomes does not match reports")
    return table


def outcome_table_to_obj(table: OutcomeScoreTable) -> dict:
    return {
        "nOutcomes": table.n_outcomes,
        "reports": table.reports.tolist(),
        "payoffs": table.payoffs.tolist(),
    }


# ---------------------------------------------------------------------------
# diagrams and samples


def load_diagram(obj: dict) -> PowerDiagramSpec:
    """{"sites": [[...]], "weights": [...]}"""
    require_object(obj, "diagram")
    return PowerDiagramSpec(sites=obj["sites"], weights=obj["weights"])


def diagram_to_obj(diag: PowerDiagramSpec) -> dict:
    return {"sites": diag.sites.tolist(), "weights": diag.weights.tolist()}


def load_sample(obj: dict) -> LabeledSample:
    """{"points": [[...]], "labels": [...]}"""
    require_object(obj, "sample")
    return LabeledSample(points=obj["points"], labels=obj["labels"])


def load_points(obj: dict) -> np.ndarray:
    """{"points": [[...]]}"""
    return _as_matrix(require_object(obj, "points file")["points"], "points")
