"""JSON schemas and canonical serialization.

Documents are emitted with sorted keys and floats rendered at 17
significant digits so identical invocations are byte-identical
(golden-file friendly).  Negative infinity is encoded as the JSON
string "-inf"; +inf and nan are rejected.
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


def _format_float(x: float) -> str:
    if x == -math.inf:
        return '"-inf"'
    if math.isnan(x) or x == math.inf:
        raise ValueError(f"cannot serialize {x}")
    return format(x, ".17g")


def _write(obj: Any, out: list) -> None:
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        obj = int(obj)
    if isinstance(obj, np.bool_):
        obj = bool(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        keys = sorted(str(k) for k in obj)
        lookup = {str(k): v for k, v in obj.items()}
        for k, key in enumerate(keys):
            if k:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write(lookup[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Canonical single-document JSON text (no trailing newline)."""
    out: list = []
    _write(obj, out)
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
    pts = _finite_matrix(obj["points"], "points")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    ts = TypeSpace(pts)
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
        "constant": [(-math.inf if c == -math.inf else float(c)) for c in score.constant],
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
    return PowerDiagramSpec(
        sites=_finite_matrix(obj["sites"], "sites"),
        weights=_finite_matrix(obj["weights"], "weights"),
    )


def diagram_to_obj(diag: PowerDiagramSpec) -> dict:
    return {"sites": diag.sites.tolist(), "weights": diag.weights.tolist()}


def load_sample(obj: dict) -> LabeledSample:
    """{"points": [[...]], "labels": [...]}"""
    require_object(obj, "sample")
    return LabeledSample(
        points=_finite_matrix(obj["points"], "points"),
        labels=obj["labels"],
    )


def load_points(obj: dict) -> np.ndarray:
    """{"points": [[...]]}"""
    require_object(obj, "points file")
    pts = _finite_matrix(obj["points"], "points")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    return pts
