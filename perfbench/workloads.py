"""Seeded workload generators for the benchmark.

Each generator writes plain JSON input files into a directory and
returns the fixed list of CLI calls one pass makes over them.  The
files are built with numpy and the standard library only, never with
the program under test, so the program sees nothing but the generated
files.  The same seed gives byte-identical files.

Instances come in two size classes.  "Desk" instances (m <= 50 types,
or a simplex grid of denominator K = 6) are what a person runs by hand;
their per-call latency is dominated by interpreter-level glue (argument
parsing, JSON decoding, domain-type validation).  "Large" instances put
the numerical kernels in front.  Every workload mixes both.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

#: Dimension of the type spaces of the mechanism-design workloads.
DIM = 3
#: Number of outcomes of the scoring-rule workload (the 2-simplex).
N_OUTCOMES = 3
#: Affine pieces of the max-affine surplus functions.
PIECES = 12
#: Radius of the weak-local-truthfulness calls.
RADIUS = 0.5
#: Power-diagram sites of the property-elicitation calls.
N_SITES = 6
#: Sample points whose power-cost margin is below this are left out of
#: the labelled samples, so a true diagram's labels stay unambiguous at
#: the CLI's default tolerances.
LABEL_MARGIN = 1e-3

# Why each workload: see GENERATORS at the end.
IMPLEMENT_SIZES = {"desk": [50] * 10, "large": [400, 400, 600]}
REFUTE_SIZES = {"desk": [50] * 10, "large": [160, 220]}
#: check_proper loops over report pairs in Python; larger tables would
#: crowd out the witness output this workload is about.
REFUTE_TABLE_CAP = 100
CONVEX_SIZES = {"desk": [6] * 8, "large": [12, 16]}
#: The O(k^3) level-set test and the dense-simplex weight fit run on a
#: coarser grid than the conjugate calls of the same instance.
CONVEX_SAMPLE_CAP = 10


@dataclass
class Call:
    """One CLI invocation of a pass, with what a correct run looks like."""

    args: List[str]
    expect: int  # exit code of a correct run: 0 pass, 2 certified negative
    desk: bool
    pairs: int = 0  # m^2 for the pairwise verifiers, else 0
    truth: Optional[float] = None  # rev-interval: a surplus the interval holds

    @property
    def command(self) -> str:
        return self.args[0]


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    tag = sum(ord(c) << (8 * i) for i, c in enumerate(workload))
    return np.random.default_rng([seed, tag, k])


def _instances(sizes: Dict[str, List[int]]):
    k = 0
    for cls in ("desk", "large"):
        for size in sizes[cls]:
            yield k, f"{cls}{k}", size, cls == "desk"
            k += 1


def _typespace(points: np.ndarray) -> dict:
    return {"dim": int(points.shape[1]), "points": points.tolist()}


# ---------------------------------------------------------------------------
# implement: implementable families, every call passes


def _implementable(rng: np.random.Generator, m: int, kind: str):
    """Types, a subgradient selection of a convex G, and G at the types."""
    types = rng.uniform(-1.0, 1.0, size=(m, DIM))
    if kind == "sq":  # G(t) = ||t||^2, gradient 2t
        grads = 2.0 * types
        values = np.einsum("ij,ij->i", types, types)
        constants = -values  # G(t) - <2t, t>
    else:  # G(t) = max_k <a_k, t> + b_k, lowest active piece
        slopes = rng.normal(size=(PIECES, DIM))
        intercepts = rng.uniform(-0.5, 0.5, size=PIECES)
        active = (types @ slopes.T + intercepts).argmax(axis=1)
        grads = slopes[active]
        values = np.einsum("ij,ij->i", grads, types) + intercepts[active]
        constants = intercepts[active]
    return types, grads, values, constants


def gen_implement(seed: int, out: str) -> List[Call]:
    calls: List[Call] = []
    for k, name, m, desk in _instances(IMPLEMENT_SIZES):
        rng = _rng(seed, "implement", k)
        kind = "sq" if k % 2 == 0 else "maxaff"
        types, grads, values, constants = _implementable(rng, m, kind)
        fam = _write(
            os.path.join(out, f"{name}-family.json"),
            {"typeSpace": _typespace(types), "family": grads.tolist()},
        )
        score = _write(
            os.path.join(out, f"{name}-score.json"),
            {
                "score": {
                    "reports": list(range(m)),
                    "linear": grads.tolist(),
                    "constant": constants.tolist(),
                },
                "typeSpace": _typespace(types),
            },
        )
        surplus = values - values[0]
        mid, target = m // 2, m - 1
        anchors = ["--anchor", "0=0.0", "--anchor", f"{mid}={float(surplus[mid])!r}"]
        sq = m * m
        calls += [
            Call(["check-wmon", fam], 0, desk, sq),
            Call(["check-cmon", fam], 0, desk, sq),
            Call(["synth-payments", fam], 0, desk),
            Call(["synth-payments", fam, "--t0", str(mid)], 0, desk),
            Call(["check-truthful", score], 0, desk, sq),
            Call(["check-local", score, "--radius", str(RADIUS)], 0, desk, sq),
            Call(
                ["rev-interval", fam, *anchors, "--target", str(target)],
                0, desk, truth=float(surplus[target]),
            ),
        ]
    return calls


# ---------------------------------------------------------------------------
# refute: the same verifiers on inputs that fail them


def gen_refute(seed: int, out: str) -> List[Call]:
    calls: List[Call] = []
    for k, name, m, desk in _instances(REFUTE_SIZES):
        rng = _rng(seed, "refute", k)
        types = rng.uniform(-1.0, 1.0, size=(m, DIM))
        fam = _write(
            os.path.join(out, f"{name}-family.json"),
            {"typeSpace": _typespace(types), "family": rng.normal(size=(m, DIM)).tolist()},
        )
        score = _write(
            os.path.join(out, f"{name}-score.json"),
            {
                "score": {
                    "reports": list(range(m)),
                    "linear": rng.normal(size=(m, DIM)).tolist(),
                    "constant": rng.normal(size=m).tolist(),
                },
                "typeSpace": _typespace(types),
            },
        )
        # The linear score S(q, w) = q(w) rewards overstating the likeliest
        # outcome, so it is improper on any non-degenerate report set.
        n = min(m, REFUTE_TABLE_CAP)
        reports = rng.dirichlet(np.ones(N_OUTCOMES), size=n)
        reports /= reports.sum(axis=1, keepdims=True)
        table = _write(
            os.path.join(out, f"{name}-table.json"),
            {"nOutcomes": N_OUTCOMES, "reports": reports.tolist(), "payoffs": reports.tolist()},
        )
        sq = m * m
        calls += [
            Call(["check-wmon", fam], 2, desk, sq),
            Call(["check-cmon", fam], 2, desk, sq),
            Call(["synth-payments", fam], 2, desk),
            Call(["check-truthful", score], 2, desk, sq),
            Call(["check-local", score, "--radius", str(RADIUS)], 2, desk, sq),
            Call(["rev-interval", fam, "--anchor", "0=0.0", "--target", "1"], 2, desk),
            Call(["check-proper", table], 2, desk, n * n),
        ]
    return calls


# ---------------------------------------------------------------------------
# convex: the convex-function engine on negative entropy over the simplex


def simplex_lattice(n: int, k: int) -> np.ndarray:
    """All points of the n-simplex with coordinates i/k, lexicographic."""
    rows: List[List[int]] = []

    def fill(prefix: List[int], remaining: int, slots: int) -> None:
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for head in range(remaining + 1):
            fill(prefix + [head], remaining - head, slots - 1)

    fill([], k, n)
    return np.asarray(rows, dtype=float) / k


def power_costs(sites: np.ndarray, weights: np.ndarray, points: np.ndarray) -> np.ndarray:
    diffs = points[:, None, :] - sites[None, :, :]
    return np.einsum("kmn,kmn->km", diffs, diffs) - weights[None, :]


def _labelled_sample(sites, weights, points):
    """Points whose nearest site wins by LABEL_MARGIN, with that site."""
    costs = np.sort(power_costs(sites, weights, points), axis=1)
    keep = costs[:, 1] - costs[:, 0] > LABEL_MARGIN
    points = points[keep]
    return points, power_costs(sites, weights, points).argmin(axis=1)


def gen_convex(seed: int, out: str) -> List[Call]:
    calls: List[Call] = []
    g = _write(os.path.join(out, "negentropy.json"), {"analytic": "negEntropy"})
    for k, name, K, desk in _instances(CONVEX_SIZES):
        rng = _rng(seed, "convex", k)
        grid = simplex_lattice(N_OUTCOMES, K)
        interior = grid[(grid > 0).all(axis=1)]
        with np.errstate(divide="ignore"):
            logs = np.log(grid)
        table = _write(
            os.path.join(out, f"{name}-table.json"),
            {
                "nOutcomes": N_OUTCOMES,
                "reports": grid.tolist(),
                "payoffs": [[x if np.isfinite(x) else "-inf" for x in row] for row in logs.tolist()],
            },
        )
        grids = _write(
            os.path.join(out, f"{name}-grids.json"),
            {"typeSpace": _typespace(grid), "duals": (1.0 + np.log(interior)).tolist()},
        )
        gridfile = _write(os.path.join(out, f"{name}-grid.json"), _typespace(grid))
        pick = rng.choice(len(interior), size=min(N_SITES, len(interior)), replace=False)
        breg_sites = _write(
            os.path.join(out, f"{name}-bregsites.json"), {"sites": interior[np.sort(pick)].tolist()}
        )
        sites = rng.dirichlet(np.ones(N_OUTCOMES), size=N_SITES)
        weights = rng.uniform(0.0, 0.05, size=N_SITES)
        diagram = _write(
            os.path.join(out, f"{name}-diagram.json"),
            {"sites": sites.tolist(), "weights": weights.tolist()},
        )
        points = _write(os.path.join(out, f"{name}-points.json"), {"points": grid.tolist()})
        site_file = _write(os.path.join(out, f"{name}-sites.json"), {"sites": sites.tolist()})
        sample_pts, labels = _labelled_sample(
            sites, weights, simplex_lattice(N_OUTCOMES, min(K, CONVEX_SAMPLE_CAP))
        )
        sample = _write(
            os.path.join(out, f"{name}-sample.json"),
            {"points": sample_pts.tolist(), "labels": labels.tolist()},
        )
        n, s = len(grid), len(sample_pts)
        calls += [
            Call(["make-score", "--g", "log", "--reports", f"grid:{K}", "--outcomes", str(N_OUTCOMES)], 0, desk),
            Call(["check-proper", table], 0, desk, n * n),
            Call(["duality-check", g, grids], 0, desk, n * len(interior)),
            Call(["game", g, grids], 0, desk),
            Call(["breg2power", g, breg_sites, "--grid", gridfile], 0, desk),
            Call(["power-label", diagram, points], 0, desk),
            Call(["fit-weights", site_file, sample], 0, desk),
            Call(["level-convexity", sample], 0, desk, s * s),
        ]
    return calls


GENERATORS: Dict[str, Callable[[int, str], List[Call]]] = {
    # Mechanism design on implementable inputs: squared-norm gradients and
    # max-affine selections in R^3.  Every call exits 0, so no witness is
    # built; the time goes to the pairwise verifiers and to Bellman-Ford
    # (synth-payments, rev-interval, check-cmon).  The conjugate is unused.
    "implement": gen_implement,
    # The same verifiers on random families, random affine scores and an
    # improper linear outcome table.  Every call exits 2 with a
    # certificate, so witness construction and canonical dumps of large
    # outputs dominate, and Bellman-Ford runs all m-1 rounds.  Paired with
    # `implement`, it shows a witness-format change on both sides.
    "refute": gen_refute,
    # The convex-function engine on negative entropy over simplex grids:
    # scoring-rule construction and properness, the grid conjugate behind
    # duality checks, the game and breg2power, and power-diagram labelling,
    # weight fitting (dense simplex) and the level-set sandwich test.  The
    # graph kernel is never touched.
    "convex": gen_convex,
}

WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, out: str) -> List[Call]:
    """Write the workload's input files into ``out``; return its calls."""
    os.makedirs(out, exist_ok=True)
    return GENERATORS[workload](seed, out)


def save_calls(calls: List[Call], path: str) -> None:
    _write(path, [asdict(c) for c in calls])


def load_calls(path: str) -> List[Call]:
    with open(path, encoding="utf-8") as fh:
        return [Call(**c) for c in json.load(fh)]
