"""Batch front-end.

One subcommand per public operation; every input is a JSON file and all
stdout output is a single canonical JSON document.  Exit codes: 0 for a
pass/success, 2 for a verified negative answer (failed check, positive
cycle, infeasible weights, ...) whose certificate is still printed to
stdout, and 1 for usage or input errors (diagnostics on stderr).

The ELICIT_TOL environment variable overrides the default tolerance;
a --tol flag overrides both.  Either must be positive and finite.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from . import duality, jsonio, monotone, payments, properties, scoring
from .core import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DomainError,
    ElicitError,
    InconsistentAnchorsError,
    NegEntropy,
    NotImplementableError,
    NotMonotoneError,
    SquaredNorm,
    TypeSpace,
    UnreachableActionError,
    require_positive,
)

#: Errors that represent a correctly computed negative answer.
_CERTIFIED = (
    NotImplementableError,
    NotMonotoneError,
    InconsistentAnchorsError,
    UnreachableActionError,
)

_PASS, _FAIL, _USAGE = 0, 2, 1


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_object(path: str) -> dict:
    return jsonio.require_object(_read_json(path), path)


def _emit(payload) -> None:
    sys.stdout.write(jsonio.dumps(payload) + "\n")


def _tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        value = float(args.tol)
    elif os.environ.get("ELICIT_TOL"):
        value = float(os.environ["ELICIT_TOL"])
    else:
        value = DEFAULT_TOL
    return require_positive(value)


def _report_exit(report) -> int:
    return _PASS if report.passed else _FAIL


def _parse_anchor(text: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"anchor must look like INDEX=VALUE, got {text!r}")
    idx, val = text.split("=", 1)
    return int(idx), float(val)


def _parse_vector(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _load_g(spec: str):
    """'brier' | 'log' | path to a convex-spec JSON file."""
    if spec == "brier":
        return SquaredNorm()
    if spec == "log":
        return NegEntropy()
    return jsonio.load_convex(_read_json(spec))


def _load_reports(spec: str, n_outcomes: int) -> np.ndarray:
    """'grid:K' for the simplex lattice, else a JSON file of rows."""
    if spec.startswith("grid:"):
        return scoring.simplex_grid(n_outcomes, int(spec.split(":", 1)[1]))
    obj = _read_json(spec)
    rows = obj["reports"] if isinstance(obj, dict) else obj
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# handlers


def _cmd_check_wmon(args) -> int:
    ts, fam = jsonio.load_family_file(_read_json(args.file))
    report = monotone.check_wmon(ts, fam, tol=_tol(args))
    _emit(report.to_obj())
    return _report_exit(report)


def _cmd_check_cmon(args) -> int:
    ts, fam = jsonio.load_family_file(_read_json(args.file))
    report = monotone.check_cmon(ts, fam, tol=_tol(args))
    _emit(report.to_obj())
    return _report_exit(report)


def _cmd_synth_payments(args) -> int:
    ts, fam = jsonio.load_family_file(_read_json(args.file))
    result = payments.rochet_payments(ts, fam, t0=args.t0, tol=_tol(args))
    _emit(
        {
            "surplus": result.surplus.tolist(),
            "payments": result.payments.tolist(),
            "baseType": result.base_type,
            "score": jsonio.score_table_to_obj(result.induced_score()),
            "typeSpace": jsonio.typespace_to_obj(ts),
        }
    )
    return _PASS


def _cmd_rev_interval(args) -> int:
    ts, fam = jsonio.load_family_file(_read_json(args.file))
    anchors = dict(_parse_anchor(a) for a in args.anchor)
    interval = payments.revenue_interval(
        ts, fam, anchors, target=args.target, tol=_tol(args)
    )
    _emit(
        {
            "lower": interval.lower,
            "upper": interval.upper,
            "target": interval.target,
            "anchors": {str(k): v for k, v in interval.fixed.items()},
        }
    )
    return _PASS


def _cmd_myerson(args) -> int:
    obj = _read_object(args.file)
    alloc = payments.StepAllocation(
        breakpoints=np.asarray(obj["breakpoints"], dtype=float),
        values=np.asarray(obj["values"], dtype=float),
    )
    payment = payments.myerson_payment(alloc, args.t, p0=args.p0)
    _emit({"payment": payment, "allocation": alloc.value_at(args.t), "t": args.t})
    return _PASS


def _cmd_make_score(args) -> int:
    g = _load_g(args.g)
    reports = _load_reports(args.reports, args.outcomes)
    table = scoring.make_scoring_rule(g, reports)
    _emit(jsonio.outcome_table_to_obj(table))
    return _PASS


def _cmd_score(args) -> int:
    table = jsonio.load_outcome_table(_read_json(args.file))
    if not 0 <= args.report < len(table):
        raise ValueError(f"--report must be in [0, {len(table)}), got {args.report}")
    if not 0 <= args.outcome < table.n_outcomes:
        raise ValueError(
            f"--outcome must be in [0, {table.n_outcomes}), got {args.outcome}"
        )
    value = float(table.payoffs[args.report, args.outcome])
    _emit({"report": args.report, "outcome": args.outcome, "score": value})
    return _PASS


def _cmd_check_proper(args) -> int:
    table = jsonio.load_outcome_table(_read_json(args.file))
    beliefs = None
    if args.beliefs:
        obj = _read_json(args.beliefs)
        rows = obj["beliefs"] if isinstance(obj, dict) else obj
        beliefs = np.asarray(rows, dtype=float)
    report = scoring.check_proper(table, beliefs, strict=args.strict, tol=_tol(args))
    _emit(report.to_obj())
    return _report_exit(report)


def _cmd_check_truthful(args) -> int:
    obj = _read_object(args.file)
    score = jsonio.load_score_table(obj["score"])
    ts = jsonio.load_typespace(obj["typeSpace"])
    report = scoring.check_truthful(score, ts, tol=_tol(args))
    _emit(report.to_obj())
    return _report_exit(report)


def _cmd_check_local(args) -> int:
    obj = _read_object(args.file)
    score = jsonio.load_score_table(obj["score"])
    ts = jsonio.load_typespace(obj["typeSpace"])
    report_of = obj.get("reportOf", list(range(len(ts))))
    report = monotone.check_local_truthful(
        score, ts, report_of, radius=args.radius, tol=_tol(args)
    )
    _emit(report.to_obj())
    return _report_exit(report)


def _cmd_decision_score(args) -> int:
    obj = _read_object(args.file)
    g = jsonio.load_convex(obj["g"])
    reports = [np.asarray(q, dtype=float) for q in obj["reports"]]
    spec = scoring.make_decision_score(g, obj["decisions"], reports, tol=_tol(args))
    _emit(
        {
            "nActions": spec.n_actions,
            "nOutcomes": spec.n_outcomes,
            "decisions": spec.decisions.tolist(),
            "scores": spec.scores.tolist(),
            "unconstrained": spec.unconstrained,
        }
    )
    return _PASS


def _cmd_power_label(args) -> int:
    diag = jsonio.load_diagram(_read_json(args.diagram))
    pts = jsonio.load_points(_read_json(args.points))
    labeling = properties.power_cells(diag, pts)
    _emit({"labels": labeling.labels.tolist(), "ties": labeling.ties.tolist()})
    return _PASS


def _load_sites(path: str) -> np.ndarray:
    obj = _read_json(path)
    rows = obj["sites"] if isinstance(obj, dict) else obj
    sites = np.asarray(rows, dtype=float)
    return sites.reshape(-1, 1) if sites.ndim == 1 else sites


def _cmd_fit_weights(args) -> int:
    sites = _load_sites(args.sites)
    sample = jsonio.load_sample(_read_json(args.sample))
    result = properties.fit_weights(sites, sample, tol=_tol(args))
    if result.feasible:
        _emit({"feasible": True, "weights": result.weights.tolist()})
        return _PASS
    _emit({"feasible": False, "witnesses": [w.to_obj() for w in result.witnesses]})
    return _FAIL


def _cmd_homothet(args) -> int:
    diag = jsonio.load_diagram(_read_json(args.diagram))
    p0 = _parse_vector(args.p0) if args.p0 else [0.0] * diag.dim
    out = properties.homothet_transform(diag, args.alpha, p0)
    _emit(jsonio.diagram_to_obj(out))
    return _PASS


def _cmd_level_convexity(args) -> int:
    sample = jsonio.load_sample(_read_json(args.file))
    report = properties.check_level_set_convexity(sample, eps=args.eps)
    _emit(report.to_obj())
    return _report_exit(report)


def _cmd_breg2power(args) -> int:
    g = jsonio.load_convex(_read_json(args.g))
    sites = _load_sites(args.sites)
    if args.grid:
        grid = jsonio.load_typespace(_read_json(args.grid))
    else:
        grid = TypeSpace(sites)  # conjugate is exact at the sites themselves
    out = properties.bregman_to_power(g, sites, grid)
    _emit(jsonio.diagram_to_obj(out))
    return _PASS


def _cmd_duality_check(args) -> int:
    g = jsonio.load_convex(_read_json(args.g))
    obj = _read_object(args.grids)
    grid = jsonio.load_typespace(obj["typeSpace"])
    duals = np.asarray(obj["duals"], dtype=float)
    report = duality.check_duality_identities(g, grid, duals, tol=_tol(args))
    _emit(report.to_obj())
    return _report_exit(report)


def _cmd_game(args) -> int:
    g = jsonio.load_convex(_read_json(args.g))
    obj = _read_object(args.grids)
    grid = jsonio.load_typespace(obj["typeSpace"])
    duals = np.asarray(obj["duals"], dtype=float)
    eqs = duality.elicitation_game_equilibria(g, grid, duals, grid)
    _emit(
        {
            "equilibria": [
                {
                    "dIndex": e.d_index,
                    "tIndex": e.t_index,
                    "d": e.d.tolist(),
                    "t": e.t.tolist(),
                    "valuePrimal": e.value_primal,
                    "valueDual": e.value_dual,
                }
                for e in eqs
            ]
        }
    )
    return _PASS


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elicit",
        description="Truthful affine scores: constructors, verifiers, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=fn)
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        return p

    p = add("check-wmon", _cmd_check_wmon, "weak monotonicity of a family")
    p.add_argument("file", help="JSON with typeSpace and family")

    p = add("check-cmon", _cmd_check_cmon, "cyclic monotonicity of a family")
    p.add_argument("file", help="JSON with typeSpace and family")

    p = add("synth-payments", _cmd_synth_payments, "path-sum payment synthesis")
    p.add_argument("file", help="JSON with typeSpace and family")
    p.add_argument("--t0", type=int, default=0, help="base type index")

    p = add("rev-interval", _cmd_rev_interval, "surplus interval for a target type")
    p.add_argument("file", help="JSON with typeSpace and family")
    p.add_argument("--anchor", action="append", required=True, metavar="IDX=VAL")
    p.add_argument("--target", type=int, required=True)

    p = add("myerson", _cmd_myerson, "single-parameter payment from a step allocation")
    p.add_argument("file", help="JSON with breakpoints and values")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--p0", type=float, default=0.0)

    p = add("make-score", _cmd_make_score, "scoring rule from a convex function")
    p.add_argument("--g", required=True, help="brier | log | convex-spec file")
    p.add_argument("--reports", required=True, help="grid:K | reports file")
    p.add_argument("--outcomes", type=int, default=2)

    p = add("score", _cmd_score, "one payoff entry of a score table")
    p.add_argument("file")
    p.add_argument("--report", type=int, required=True)
    p.add_argument("--outcome", type=int, required=True)

    p = add("check-proper", _cmd_check_proper, "properness of a score table")
    p.add_argument("file")
    p.add_argument("beliefs", nargs="?", default=None)
    p.add_argument("--strict", action="store_true")

    p = add("check-truthful", _cmd_check_truthful, "truthfulness of an affine score")
    p.add_argument("file", help="JSON with score and typeSpace")

    p = add("check-local", _cmd_check_local, "weak local truthfulness")
    p.add_argument("file", help="JSON with score, typeSpace, optional reportOf")
    p.add_argument("--radius", type=float, required=True)

    p = add("decision-score", _cmd_decision_score, "scores for a fixed decision rule")
    p.add_argument("file", help="JSON with g, reports, decisions")

    p = add("power-label", _cmd_power_label, "nearest-site power labels")
    p.add_argument("diagram")
    p.add_argument("points")

    p = add("fit-weights", _cmd_fit_weights, "weights making a labeling a power diagram")
    p.add_argument("sites")
    p.add_argument("sample")

    p = add("homothet", _cmd_homothet, "scale/translate sites, keep cells")
    p.add_argument("diagram")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p0", default=None, help="comma-separated offset")

    p = add("level-convexity", _cmd_level_convexity, "sandwich test on labels")
    p.add_argument("file", help="JSON with points and labels")
    p.add_argument("--eps", type=float, default=1e-6)

    p = add("breg2power", _cmd_breg2power, "divergence diagram to power diagram")
    p.add_argument("g")
    p.add_argument("sites")
    p.add_argument("--grid", default=None, help="type-space file for the conjugate")

    p = add("duality-check", _cmd_duality_check, "Fenchel-Young and friends")
    p.add_argument("g")
    p.add_argument("grids", help="JSON with typeSpace and duals")

    p = add("game", _cmd_game, "equilibria of the elicitation game")
    p.add_argument("g")
    p.add_argument("grids", help="JSON with typeSpace and duals")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed a message
        return _USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except _CERTIFIED as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NotImplementableError):
            payload["cycle"] = exc.cycle
            payload["weight"] = exc.weight
        _emit(payload)
        return _FAIL
    except KeyError as exc:  # a JSON object lacks a field
        print(f"elicit: error: missing key {exc}", file=sys.stderr)
        return _USAGE
    except (
        ElicitError,
        DomainError,
        DimensionMismatchError,
        ValueError,
        TypeError,  # a JSON field of the wrong type
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"elicit: error: {exc}", file=sys.stderr)
        return _USAGE


if __name__ == "__main__":
    sys.exit(main())
