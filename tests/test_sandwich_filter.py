"""Stress test of the triangle-inequality filter of
``check_level_set_convexity``: its witnesses must print exactly what
projecting every point on every segment prints, and the filter must let
through every triple that this unfiltered projection flags, at scales
where distances lose digits or underflow, at the eps boundary and at an
eps near the float maximum."""

import numpy as np
import pytest

from elicit import LabeledSample, check_level_set_convexity, cli, jsonio
from elicit import properties
from helpers import loop_check_level_set_convexity, report_text

SCALES = [-160, -150, -8, 0, 8, 150]  # -160: squared distances underflow
EPSILONS = [0.0, 1e-6, 1.0, 8.98e307]
KINDS = ["lattice", "gap", "duplicates", "one label", "distinct"]


def _lattice(rng, dim, kind):
    """Integer lattice points, so exactly collinear triples abound."""
    side = {1: 8, 2: 4, 3: 3}[dim]
    pts = rng.integers(0, side, size=(int(rng.integers(6, 15)), dim)).astype(float)
    if kind == "duplicates":
        pts = np.concatenate([pts, pts[rng.integers(0, len(pts), size=3)]])
    else:
        pts = np.unique(pts, axis=0)
    if kind == "one label":
        labels = np.zeros(len(pts), dtype=int)
    elif kind == "distinct":
        labels = rng.permutation(len(pts))
    else:
        labels = rng.integers(0, 3, size=len(pts))
    return pts, labels


def _gap(rng, dim, eps):
    """Segments of label 0 with a point of label 1 at eps (1 +- 2^-50)
    from each: off its middle, or in 1-D inside it, that far from an end."""
    width = eps if eps < 1e100 else 1e-6
    pts = []
    for _ in range(4):
        a = rng.uniform(-3, 3, size=dim)
        b = a + rng.uniform(1, 2, size=dim) * rng.choice([-1, 1], size=dim)
        step = width * (1.0 + float(rng.choice([-1, 1])) * 2.0**-50)
        unit = (b - a) / np.linalg.norm(b - a)
        if dim == 1 or rng.integers(0, 2):
            c = a + step * unit
        else:
            normal = rng.normal(size=dim)
            normal -= (normal @ unit) * unit
            c = a + rng.uniform(0.2, 0.8) * (b - a) + step * normal / np.linalg.norm(normal)
        pts += [a, b, c]
    return np.array(pts), np.tile([0, 0, 1], 4)


def _sample(rng, kind, dim, scale, eps):
    pts, labels = _gap(rng, dim, eps) if kind == "gap" else _lattice(rng, dim, kind)
    return LabeledSample(points=pts * 10.0**scale, labels=labels)


def _unfiltered(sample, eps):
    """Every triple (a, b, c) the projection flags when it runs on all
    segments a < b and all points c of another label."""
    pts, labels = sample.points, sample.labels
    diffs = pts[None, :, :] - pts[:, None, :]
    sq = np.vecdot(diffs, diffs)
    a, b, c = np.nonzero(
        np.triu((labels[:, None] == labels) & (sq > 0.0), 1)[:, :, None]
        & (labels[:, None, None] != labels[None, None, :])
    )
    a, b, c, _ = properties._sandwiches(pts, a, b, c, sq, np.sqrt(sq), eps)
    return set(zip(a.tolist(), b.tolist(), c.tolist()))


@pytest.mark.parametrize("eps", [*EPSILONS, None], ids=[*map(str, EPSILONS), "1e-6*scale"])
@pytest.mark.parametrize("scale", SCALES)
def test_the_filter_keeps_every_witness(scale, eps, monkeypatch):
    case = len(EPSILONS) if eps is None else EPSILONS.index(eps)
    rng = np.random.default_rng([21, scale + 200, case])
    if eps is None:  # the gap points at the sample's own scale
        eps = 1e-6 * 10.0**scale
    survivors = set()
    sandwiches = properties._sandwiches

    def record(pts, a, b, c, *rest):
        survivors.update(zip(a.tolist(), b.tolist(), c.tolist()))
        return sandwiches(pts, a, b, c, *rest)

    monkeypatch.setattr(properties, "_sandwiches", record)
    flagged = 0
    for kind in KINDS:
        for dim in (1, 2, 3):
            sample = _sample(rng, kind, dim, scale, eps)
            survivors.clear()
            report = check_level_set_convexity(sample, eps=eps)
            assert jsonio.dumps(report.to_obj()) == report_text(
                loop_check_level_set_convexity(sample, eps)
            )
            unfiltered = _unfiltered(sample, eps)
            assert unfiltered <= survivors
            assert {w.indices for w in report.witnesses} == unfiltered
            flagged += len(unfiltered)
    if eps < 10.0**scale:
        assert flagged  # the samples reach the boundary cases


def test_the_filter_is_not_the_identity():
    # a point 1e-2 off the middle of a unit segment is no survivor at eps = 1e-6
    sample = LabeledSample(points=[[0.0, 0.0], [1.0, 0.0], [0.5, 1e-2]], labels=[0, 0, 1])
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(properties, "_sandwiches", lambda *args: seen.append(args))
        assert check_level_set_convexity(sample).passed
    assert not seen


@pytest.mark.parametrize("eps", ["8.98846e307", "1e308"])
def test_an_eps_near_the_float_maximum_raises_nothing(tmp_path, capsys, eps):
    # (dist + 2 eps) (1 + delta), or already 2 eps, overflows, and the CLI
    # raises on overflow
    path = tmp_path / "sample.json"
    path.write_text(jsonio.dumps({"points": [[0.0], [1.0], [0.5]], "labels": [0, 0, 1]}))
    assert cli.main(["level-convexity", str(path), "--eps", eps]) == 0
    assert '"passed":true' in capsys.readouterr().out.replace(" ", "")
