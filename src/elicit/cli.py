"""Batch front-end.

One subcommand per public operation; every input is a JSON file and all
stdout output is a single canonical JSON document.  Each handler returns
that document and :func:`main` alone writes it, so the exit code follows
from it: 2 for a verified negative answer (a document with ``passed`` or
``feasible`` false, or the error payload of a certified negative such as
a positive cycle), 0 for any other document, and 1 for usage or input
errors, with one line on stderr and nothing on stdout.

The subcommands that check within a tolerance take a --tol flag,
1e-9 (``DEFAULT_TOL``) by default, which the library call they make
refuses unless it is positive and finite.  The other
subcommands (myerson, make-score, score, power-label, homothet,
level-convexity, breg2power and game) read no tolerance and refuse --tol
as an unrecognized argument.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

import numpy as np

from . import duality, jsonio, monotone, payments, properties, scoring
from .core import (
    DEFAULT_TOL,
    CheckReport,
    ElicitError,
    InconsistentAnchorsError,
    NegEntropy,
    NotImplementableError,
    NotMonotoneError,
    SquaredNorm,
    UnreachableActionError,
    _as_matrix,
    _index,
    _numbers,
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
        try:
            return json.load(fh)
        except RecursionError:  # json recurses once per level of nesting
            raise ValueError(f"{path} is nested too deeply to read as JSON") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _read_object(path: str) -> dict:
    return jsonio.require_object(_read_json(path), path)


def _parse(text: str, kind, what: str):
    """``kind(text)``, int or float; ``ValueError`` naming ``what`` and the text."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} {text!r} is not {noun}") from None


def _parse_anchors(texts: list) -> dict:
    """The ``--anchor INDEX=VALUE`` options as {index: value}; an index
    given twice is refused."""
    anchors = {}
    for text in texts:
        if "=" not in text:
            raise ValueError(f"anchor must look like INDEX=VALUE, got {text!r}")
        idx, val = text.split("=", 1)
        idx = _parse(idx, int, "--anchor index")
        if idx in anchors:
            raise ValueError(f"--anchor index {idx} is given more than once")
        anchors[idx] = _parse(val, float, "--anchor value")
    return anchors


def _parse_vector(text: str) -> list:
    """Comma-separated numbers; an empty entry is refused."""
    return [_parse(x, float, "--p0 entry") for x in text.split(",")]


def _load_g(spec: str):
    """'brier' | 'log' | path to a convex-spec JSON file."""
    if spec == "brier":
        return SquaredNorm()
    if spec == "log":
        return NegEntropy()
    return jsonio.load_convex(_read_json(spec))


def _rows(path: str, key: str) -> np.ndarray:
    """A file of rows: a bare JSON list, or the list under ``key``."""
    obj = _read_json(path)
    return _numbers(obj[key] if isinstance(obj, dict) else obj, key)


def _load_affine(path: str) -> tuple:
    """(score, type space, whole object) of an affine-score file."""
    obj = _read_object(path)
    return jsonio.load_score_table(obj["score"]), jsonio.load_typespace(obj["typeSpace"]), obj


def _load_grids(g_path: str, grids_path: str) -> tuple:
    """(G, grid, duals) of a convex-spec file and a grids file."""
    g = jsonio.load_convex(_read_json(g_path))
    obj = _read_object(grids_path)
    return g, jsonio.load_typespace(obj["typeSpace"]), _as_matrix(obj["duals"], "duals")


# ---------------------------------------------------------------------------
# handlers: each returns its stdout document, a dict or a CheckReport


def _cmd_check_wmon(args):
    ts, fam = jsonio.load_family_file(_read_json(args.file))
    return monotone.check_wmon(ts, fam, tol=args.tol)


def _cmd_check_cmon(args):
    ts, fam = jsonio.load_family_file(_read_json(args.file))
    return monotone.check_cmon(ts, fam, tol=args.tol)


def _cmd_synth_payments(args):
    ts, fam = jsonio.load_family_file(_read_json(args.file))
    result = payments.rochet_payments(ts, fam, t0=args.t0, tol=args.tol)
    return {
        "surplus": result.surplus,
        "payments": result.payments,
        "baseType": result.base_type,
        "score": jsonio.score_table_to_obj(result.induced_score()),
        "typeSpace": jsonio.typespace_to_obj(ts),
    }


def _cmd_rev_interval(args):
    ts, fam = jsonio.load_family_file(_read_json(args.file))
    anchors = _parse_anchors(args.anchor)
    interval = payments.revenue_interval(
        ts, fam, anchors, target=args.target, tol=args.tol
    )
    return {
        "lower": interval.lower,
        "upper": interval.upper,
        "target": interval.target,
        "anchors": {str(k): v for k, v in interval.fixed.items()},
    }


def _cmd_myerson(args):
    obj = _read_object(args.file)
    alloc = payments.StepAllocation(breakpoints=obj["breakpoints"], values=obj["values"])
    payment = payments.myerson_payment(alloc, args.t, p0=args.p0)
    return {"payment": payment, "allocation": alloc.value_at(args.t), "t": args.t}


def _cmd_make_score(args):
    g = _load_g(args.g)
    if args.reports.startswith("grid:"):
        k = _parse(args.reports.split(":", 1)[1], int, "--reports grid:K")
        reports = scoring.simplex_grid(args.outcomes, k)
    else:
        reports = _rows(args.reports, "reports")
    return jsonio.outcome_table_to_obj(scoring.make_scoring_rule(g, reports))


def _cmd_score(args):
    table = jsonio.load_outcome_table(_read_json(args.file))
    report = _index(args.report, len(table), "--report")
    outcome = _index(args.outcome, table.n_outcomes, "--outcome")
    return {"report": report, "outcome": outcome, "score": float(table.payoffs[report, outcome])}


def _cmd_check_proper(args):
    table = jsonio.load_outcome_table(_read_json(args.file))
    beliefs = _rows(args.beliefs, "beliefs") if args.beliefs else None
    return scoring.check_proper(table, beliefs, strict=args.strict, tol=args.tol)


def _cmd_check_truthful(args):
    score, ts, _ = _load_affine(args.file)
    return scoring.check_truthful(score, ts, tol=args.tol)


def _cmd_check_local(args):
    score, ts, obj = _load_affine(args.file)
    report_of = obj.get("reportOf", list(range(len(ts))))
    return monotone.check_local_truthful(
        score, ts, report_of, radius=args.radius, tol=args.tol
    )


def _cmd_decision_score(args):
    obj = _read_object(args.file)
    g = jsonio.load_convex(obj["g"])
    spec = scoring.make_decision_score(g, obj["decisions"], obj["reports"], tol=args.tol)
    return {
        "nActions": spec.n_actions,
        "nOutcomes": spec.n_outcomes,
        "decisions": spec.decisions,
        "scores": spec.scores,
        "unconstrained": spec.unconstrained,
    }


def _cmd_power_label(args):
    diag = jsonio.load_diagram(_read_json(args.diagram))
    pts = jsonio.load_points(_read_json(args.points))
    labeling = properties.power_cells(diag, pts)
    return {"labels": labeling.labels, "ties": labeling.ties}


def _cmd_fit_weights(args):
    sites = _rows(args.sites, "sites")
    sample = jsonio.load_sample(_read_json(args.sample))
    result = properties.fit_weights(sites, sample, tol=args.tol)
    if result.feasible:
        return {"feasible": True, "weights": result.weights}
    return {"feasible": False, "witnesses": result.witnesses}


def _cmd_homothet(args):
    diag = jsonio.load_diagram(_read_json(args.diagram))
    p0 = _parse_vector(args.p0) if args.p0 is not None else [0.0] * diag.dim
    return jsonio.diagram_to_obj(properties.homothet_transform(diag, args.alpha, p0))


def _cmd_level_convexity(args):
    sample = jsonio.load_sample(_read_json(args.file))
    return properties.check_level_set_convexity(sample, eps=args.eps)


def _cmd_breg2power(args):
    g = jsonio.load_convex(_read_json(args.g))
    sites = _rows(args.sites, "sites")
    return jsonio.diagram_to_obj(properties.bregman_to_power(g, sites))


def _cmd_duality_check(args):
    g, grid, duals = _load_grids(args.g, args.grids)
    return duality.check_duality_identities(g, grid, duals, tol=args.tol)


def _cmd_game(args):
    g, grid, duals = _load_grids(args.g, args.grids)
    eqs = duality.elicitation_game_equilibria(g, grid, duals, grid)
    return {
        "equilibria": [
            {
                "dIndex": e.d_index,
                "tIndex": e.t_index,
                "d": e.d,
                "t": e.t,
                "valuePrimal": e.value_primal,
                "valueDual": e.value_dual,
            }
            for e in eqs
        ]
    }


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage error is one line on stderr."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elicit",
        description="Truthful affine scores: constructors, verifiers, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, tol=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=fn)
        if tol:  # only where the handler reads it
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance")
        return p

    p = add("check-wmon", _cmd_check_wmon, "weak monotonicity of a family", tol=True)
    p.add_argument("file", help="JSON with typeSpace and family")

    p = add("check-cmon", _cmd_check_cmon, "cyclic monotonicity of a family", tol=True)
    p.add_argument("file", help="JSON with typeSpace and family")

    p = add("synth-payments", _cmd_synth_payments, "path-sum payment synthesis", tol=True)
    p.add_argument("file", help="JSON with typeSpace and family")
    p.add_argument("--t0", type=int, default=0, help="base type index")

    p = add("rev-interval", _cmd_rev_interval, "surplus interval for a target type", tol=True)
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

    p = add("check-proper", _cmd_check_proper, "properness of a score table", tol=True)
    p.add_argument("file")
    p.add_argument("beliefs", nargs="?", default=None)
    p.add_argument("--strict", action="store_true")

    p = add("check-truthful", _cmd_check_truthful, "truthfulness of an affine score", tol=True)
    p.add_argument("file", help="JSON with score and typeSpace")

    p = add("check-local", _cmd_check_local, "weak local truthfulness", tol=True)
    p.add_argument("file", help="JSON with score, typeSpace, optional reportOf")
    p.add_argument("--radius", type=float, required=True)

    p = add("decision-score", _cmd_decision_score, "scores for a fixed decision rule", tol=True)
    p.add_argument("file", help="JSON with g, reports, decisions")

    p = add("power-label", _cmd_power_label, "nearest-site power labels")
    p.add_argument("diagram")
    p.add_argument("points")

    p = add("fit-weights", _cmd_fit_weights, "weights making a labeling a power diagram", tol=True)
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
    p.add_argument("--grid", default=None, help="ignored: the weights need no conjugate")

    p = add("duality-check", _cmd_duality_check, "the Fenchel-Young gap on grid x duals", tol=True)
    p.add_argument("g")
    p.add_argument("grids", help="JSON with typeSpace and duals")

    p = add("game", _cmd_game, "equilibria of the elicitation game")
    p.add_argument("g")
    p.add_argument("grids", help="JSON with typeSpace and duals")

    return parser


def _document(args) -> dict:
    """The handler's stdout document; a certified negative answer is
    turned into its error payload."""
    try:
        doc = args.handler(args)
    except _CERTIFIED as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NotImplementableError):
            doc["cycle"] = exc.cycle
            doc["weight"] = exc.weight
    return doc.to_obj() if isinstance(doc, CheckReport) else doc


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed a message
        return _USAGE if exc.code not in (0, None) else 0
    try:
        # an overflow, nan or division by zero in numpy raises FloatingPointError;
        # like the OverflowError of int() on inf, it is an input error
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            doc = _document(args)
        sys.stdout.write(jsonio.dumps(doc) + "\n")
    except KeyError as exc:  # a JSON object lacks a field
        print(f"elicit: error: missing key {exc}", file=sys.stderr)
        return _USAGE
    except (ElicitError, ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"elicit: error: {exc}", file=sys.stderr)
        return _USAGE
    negative = doc.get("passed") is False or doc.get("feasible") is False or "error" in doc
    return _FAIL if negative else _PASS


if __name__ == "__main__":
    sys.exit(main())
