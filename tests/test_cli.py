import argparse
import inspect
import json
import math
import resource
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from elicit import cli, jsonio, make_scoring_rule, simplex_grid
from helpers import recheck_fit_certificate
from test_golden import GOLDEN

GOLDEN_INPUTS = GOLDEN / "inputs"

FIG_FAMILY = {
    "typeSpace": {"dim": 1, "points": [[0.0], [1.0], [2.0]]},
    "family": [[0.0], [1.0], [2.0]],
}
CMON_OVERFLOW = (
    "cmon weights d_i . (t_j - t_i), summed over up to m edges, overflow the float range"
)
GAINS = "deviation gains must be finite or -inf"
BAD_FAMILY = {
    "typeSpace": {"dim": 1, "points": [[0.0], [1.0]]},
    "family": [[1.0], [0.0]],
}


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestExitContract:
    def test_rev_interval_narrowed(self, tmp_path, capsys):
        fam = write(tmp_path, "fam.json", FIG_FAMILY)
        code, out, _ = run_cli(
            ["rev-interval", fam, "--anchor", "0=0", "--anchor", "1=0.5", "--target", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == 1.5
        assert doc["upper"] == 2.5

    def test_check_cmon_bad_family_exits_2_with_cycle(self, tmp_path, capsys):
        fam = write(tmp_path, "bad.json", BAD_FAMILY)
        code, out, _ = run_cli(["check-cmon", fam], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["witnesses"][0]["kind"] == "cycle"
        assert doc["witnesses"][0]["slack"] == 1.0

    def test_check_cmon_good_family_exits_0(self, tmp_path, capsys):
        fam = write(tmp_path, "fam.json", FIG_FAMILY)
        code, out, _ = run_cli(["check-cmon", fam], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, out, err = run_cli(["check-cmon", str(tmp_path / "nope.json")], capsys)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_synth_payments_on_bad_family_exits_2(self, tmp_path, capsys):
        fam = write(tmp_path, "bad.json", BAD_FAMILY)
        code, out, _ = run_cli(["synth-payments", fam], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "NotImplementableError"
        assert doc["weight"] == 1.0


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path):
        fam_path = write(tmp_path, "fam.json", FIG_FAMILY)
        cmd = [sys.executable, "-m", "elicit.cli"]
        args = ["rev-interval", fam_path, "--anchor", "0=0", "--target", "2"]
        runs = [
            subprocess.run(cmd + args, capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.endswith("\n")

    def test_sorted_keys_and_17_digits(self, tmp_path, capsys):
        fam = write(tmp_path, "fam.json", FIG_FAMILY)
        code, out, _ = run_cli(
            ["rev-interval", fam, "--anchor", "0=0.1", "--target", "1"], capsys
        )
        assert code == 0
        keys = list(json.loads(out))
        assert keys == sorted(keys)
        assert "0.10000000000000001" in out  # 17 significant digits of 0.1


class TestRoundTrips:
    def test_make_score_feeds_check_proper(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["make-score", "--g", "brier", "--reports", "grid:10"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 11
        table_path = write(tmp_path, "table.json", doc)
        code, out, _ = run_cli(["check-proper", table_path, "--strict"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_make_score_matches_library_rows(self, capsys):
        code, out, _ = run_cli(
            ["make-score", "--g", "brier", "--reports", "grid:10"], capsys
        )
        doc = json.loads(out)
        expect = make_scoring_rule(
            __import__("elicit").SquaredNorm(), simplex_grid(2, 10)
        )
        assert np.asarray(doc["payoffs"]) == pytest.approx(expect.payoffs, abs=1e-15)

    def test_synth_payments_feeds_check_truthful(self, tmp_path, capsys):
        fam = write(tmp_path, "fam.json", FIG_FAMILY)
        code, out, _ = run_cli(["synth-payments", fam], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["surplus"] == [0.0, 0.0, 1.0]
        assert doc["payments"] == [0.0, 1.0, 3.0]
        score_path = write(tmp_path, "score.json", doc)
        code, out, _ = run_cli(["check-truthful", score_path], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_synth_payments_prints_its_arrays_as_their_lists(self, tmp_path, capsys):
        # at m = 200 in R^3 the points and functionals take the writer's
        # array path, surplus and payments the list path: the document
        # is the text of the same document built from tolist() lists
        rng = np.random.default_rng(200)
        points = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-5, 2, size=(200, 1))
        fam = write(tmp_path, "fam.json", {"typeSpace": {"points": points.tolist()},
                                           "family": (2 * points).tolist()})
        code, out, _ = run_cli(["synth-payments", fam], capsys)
        assert code == 0
        args = cli._build_parser().parse_args(["synth-payments", fam])
        doc = cli._cmd_synth_payments(args)
        assert isinstance(doc["typeSpace"]["points"], np.ndarray)
        assert doc["typeSpace"]["points"].size >= jsonio._VECTOR_MIN

        def lists(obj):
            if isinstance(obj, dict):
                return {k: lists(v) for k, v in obj.items()}
            return obj.tolist() if isinstance(obj, np.ndarray) else obj

        assert out == jsonio.dumps(lists(doc)) + "\n"
        assert "e-" in out

    def test_log_table_neg_inf_round_trip(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["make-score", "--g", "log", "--reports", "grid:4"], capsys
        )
        assert code == 0
        assert '"-inf"' in out
        table_path = write(tmp_path, "log.json", json.loads(out))
        code, out, _ = run_cli(
            ["score", table_path, "--report", "0", "--outcome", "0"], capsys
        )
        assert code == 0
        assert json.loads(out)["score"] == "-inf"


class TestSubcommands:
    def test_check_wmon(self, tmp_path, capsys):
        fam = write(tmp_path, "bad.json", BAD_FAMILY)
        code, out, _ = run_cli(["check-wmon", fam], capsys)
        assert code == 2
        assert json.loads(out)["witnesses"][0]["indices"] == [0, 1]

    def test_myerson(self, tmp_path, capsys):
        alloc = write(
            tmp_path, "alloc.json", {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]}
        )
        code, out, _ = run_cli(["myerson", alloc, "--t", "2.0"], capsys)
        assert code == 0
        assert json.loads(out)["payment"] == 1.0

    def test_myerson_decreasing_is_certified_negative(self, tmp_path, capsys):
        alloc = write(
            tmp_path, "alloc.json", {"breakpoints": [0.0, 1.0], "values": [1.0, 0.0]}
        )
        code, out, _ = run_cli(["myerson", alloc, "--t", "2.0"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "NotMonotoneError"

    def test_power_label_and_fit_weights(self, tmp_path, capsys):
        diag = write(
            tmp_path, "diag.json", {"sites": [[0.0], [1.0]], "weights": [0.0, 2.0]}
        )
        pts = write(tmp_path, "pts.json", {"points": [[0.0], [-0.6]]})
        code, out, _ = run_cli(["power-label", diag, pts], capsys)
        assert code == 0
        assert json.loads(out)["labels"] == [1, 0]

        sites = write(tmp_path, "sites.json", {"sites": [[0.0], [1.0]]})
        sample = write(
            tmp_path, "sample.json", {"points": [[0.0], [2.0]], "labels": [1, 0]}
        )
        code, out, _ = run_cli(["fit-weights", sites, sample], capsys)
        assert code == 2
        assert json.loads(out)["feasible"] is False

    def test_fit_weights_infeasible_prints_a_site_cycle(self, tmp_path, capsys):
        sites = [[0.0, 3.0], [3.0, 1.0], [1.0, -3.0]]
        sample = {"points": [[2.0, 4.0], [-3.0, -2.0], [1.0, -2.0]], "labels": [1, 0, 2]}
        code, out, _ = run_cli(
            [
                "fit-weights",
                write(tmp_path, "sites.json", {"sites": sites}),
                write(tmp_path, "sample.json", sample),
            ],
            capsys,
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["feasible"] is False
        edges = [(w["indices"], w["slack"]) for w in doc["witnesses"]]
        recheck_fit_certificate(sites, sample["points"], sample["labels"], edges, 1e-9)
        assert sum(slack for _, slack in edges) == -10.0

    def test_homothet_then_relabel(self, tmp_path, capsys):
        diag = write(
            tmp_path, "diag.json", {"sites": [[0.0], [1.0]], "weights": [0.0, 0.0]}
        )
        code, out, _ = run_cli(
            ["homothet", diag, "--alpha", "2.0", "--p0", "0"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sites"] == [[0.0], [2.0]]
        assert doc["weights"][1] - doc["weights"][0] == 2.0

    def test_level_convexity(self, tmp_path, capsys):
        sample = write(
            tmp_path,
            "sample.json",
            {"points": [[0.0], [1.0], [2.0]], "labels": [0, 1, 0]},
        )
        code, out, _ = run_cli(["level-convexity", sample], capsys)
        assert code == 2
        assert json.loads(out)["witnesses"][0]["kind"] == "sandwich"

    def test_breg2power_voronoi(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", {"analytic": "squaredNorm"})
        sites = write(tmp_path, "sites.json", {"sites": [[0.0, 0.0], [1.0, 1.0]]})
        code, out, _ = run_cli(["breg2power", g, sites], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["sites"] == [[0.0, 0.0], [1.0, 1.0]]
        assert doc["weights"] == [0.0, 0.0]

    def test_duality_check_and_game(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", {"analytic": "squaredNorm"})
        axis = np.linspace(-1, 1, 5)
        pts = [[float(x), float(y)] for x in axis for y in axis]
        grids = write(
            tmp_path,
            "grids.json",
            {
                "typeSpace": {"dim": 2, "points": pts},
                "duals": [[2 * x, 2 * y] for x, y in pts],
            },
        )
        code, out, _ = run_cli(["duality-check", g, grids], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

        code, out, _ = run_cli(["game", g, grids], capsys)
        assert code == 0
        eqs = json.loads(out)["equilibria"]
        assert len(eqs) == len(pts)  # each (2t, t) pair is dual-optimal
        assert all(e["dIndex"] == e["tIndex"] for e in eqs)

    @pytest.mark.parametrize("points", [[[0.0], [1.0]], [[0.0, 0.0], [1.0, 0.0]]])
    def test_duality_check_and_game_without_duals(self, tmp_path, capsys, points):
        # no dual vector: a vacuous pass, as the game finds no equilibrium
        g = write(tmp_path, "g.json", {"analytic": "squaredNorm"})
        grids = write(tmp_path, "grids.json", {"typeSpace": {"points": points}, "duals": []})
        assert run_cli(["duality-check", g, grids], capsys) == (
            0,
            '{"info":{"max_fenchel_young_violation":0,"tol":1.0000000000000001e-09},'
            '"passed":true,"witnesses":[]}\n',
            "",
        )
        assert run_cli(["game", g, grids], capsys) == (0, '{"equilibria":[]}\n', "")

    @pytest.mark.parametrize("duals", [[], [[0.0, 0.0]]], ids=["no-duals", "one-dual"])
    @pytest.mark.parametrize("command", ["duality-check", "game"])
    def test_a_grid_off_the_domain_is_an_error_with_or_without_duals(
        self, tmp_path, capsys, command, duals
    ):
        g = write(tmp_path, "g.json", {"analytic": "negEntropy"})
        grids = write(
            tmp_path, "grids.json", {"typeSpace": {"points": [[2.0, 0.0], [0.5, 0.5]]}, "duals": duals}
        )
        assert run_cli([command, g, grids], capsys) == (
            1,
            "",
            "elicit: error: point [2.0, 0.0] is not on the probability simplex (tolerance 1e-09)\n",
        )

    def test_check_local(self, tmp_path, capsys):
        doc = {
            "score": {
                "reports": [0, 1],
                "linear": [[1.0], [0.0]],
                "constant": [0.0, 0.0],
            },
            "typeSpace": {"dim": 1, "points": [[0.0], [1.0]]},
        }
        path = write(tmp_path, "score.json", doc)
        code, out, _ = run_cli(["check-local", path, "--radius", "2.0"], capsys)
        assert code == 2
        assert json.loads(out)["info"]["agrees"] is True

    def test_check_local_on_types_whose_squared_distance_overflows(self, tmp_path, capsys):
        # the types are 2e200 apart: their squared distance leaves the
        # float range, their distance does not
        doc = {
            "score": {"reports": [0, 1], "linear": [[1e-200], [-1e-200]], "constant": [0, 0]},
            "typeSpace": {"dim": 1, "points": [[-1e200], [1e200]]},
        }
        path = write(tmp_path, "score.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["check-local", path, "--radius", "1e300"], capsys)
        assert (code, err) == (2, "")
        got = json.loads(out)
        assert [(w["indices"], w["slack"]) for w in got["witnesses"]] == [([0, 1], 2)]
        assert got["info"]["checked_pairs"] == 1
        assert got["info"]["agrees"] is True
        code, out, _ = run_cli(["check-local", path, "--radius", "1.9e200"], capsys)
        assert code == 0 and json.loads(out)["info"]["checked_pairs"] == 0

    def test_make_score_reads_a_coordinate_just_below_zero_as_zero(self, tmp_path, capsys):
        # ln of -1e-10 was nan; the limit rule gives ln 0 = -inf
        reports = write(tmp_path, "reports.json", [[0.5, 0.5, 0.0], [1e-10, -1e-10, 1.0]])
        code, out, err = run_cli(
            ["make-score", "--g", "log", "--reports", reports, "--outcomes", "3"], capsys
        )
        assert (code, err) == (0, "")
        row = json.loads(out)["payoffs"][1]
        assert row[1:] == ["-inf", 0.0]
        assert row[0] == math.log(1e-10)

    def test_check_truthful_without_a_finite_deviation_has_null_min_slack(
        self, tmp_path, capsys
    ):
        # own scores -1e308; each deviation scores -1e308 - 1e308 = -inf
        doc = {
            "score": {
                "reports": [0, 1],
                "linear": [[0.0, -1e308], [-1e308, 0.0]],
                "constant": [-1e308, -1e308],
            },
            "typeSpace": {"points": [[1.0, 0.0], [0.0, 1.0]]},
        }
        code, out, err = run_cli(["check-truthful", write(tmp_path, "s.json", doc)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["info"]["min_slack"] is None
        assert '"min_slack":null' in out

    def test_decision_score(self, tmp_path, capsys):
        doc = {
            "g": {"analytic": "squaredNorm"},
            "reports": [[[0.5, 0.5], [0.5, 0.5]]],
            "decisions": [[0.5, 0.5]],
        }
        path = write(tmp_path, "spec.json", doc)
        code, out, _ = run_cli(["decision-score", path], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["scores"][0] == [[1.0, 1.0], [1.0, 1.0]]

    def test_make_score_from_max_affine_file(self, tmp_path, capsys):
        # tangents of sum p^2 at two reports, as an explicit spec file
        g_obj = {
            "maxAffine": [
                {"a": [0.6, 1.4], "b": -0.58},
                {"a": [1.0, 1.0], "b": -0.5},
            ]
        }
        g_path = write(tmp_path, "g.json", g_obj)
        reports = write(tmp_path, "reports.json", {"reports": [[0.3, 0.7], [0.5, 0.5]]})
        code, out, _ = run_cli(
            ["make-score", "--g", g_path, "--reports", reports], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["payoffs"]) == 2

    def test_check_proper_rounding_below_zero_on_a_minus_inf_deviation(
        self, tmp_path, capsys
    ):
        # the belief puts -1e-10 (within the simplex tolerance) where
        # report 1 pays -inf: that term is 0, not +inf
        table = write(
            tmp_path,
            "table.json",
            {
                "reports": [[0, 0, 1], [0.5, 0, 0.5]],
                "payoffs": [[-1, -1, 0], [-1, "-inf", -1]],
            },
        )
        beliefs = write(tmp_path, "beliefs.json", {"beliefs": [[1e-10, -1e-10, 1]]})
        code, out, err = run_cli(["check-proper", table, beliefs], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_check_proper_with_beliefs_file(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["make-score", "--g", "brier", "--reports", "grid:4"], capsys
        )
        table_path = write(tmp_path, "table.json", json.loads(out))
        beliefs = write(tmp_path, "beliefs.json", {"beliefs": [[0.5, 0.5], [1.0, 0.0]]})
        code, out, _ = run_cli(["check-proper", table_path, beliefs], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_only_the_tol_flag_sets_the_tolerance(self, tmp_path, capsys, monkeypatch):
        # a tiny violation passes under a loose tolerance; the environment
        # sets none (ELICIT_TOL once did)
        fam = write(
            tmp_path,
            "fam.json",
            {
                "typeSpace": {"dim": 1, "points": [[0.0], [1.0]]},
                "family": [[1e-7], [0.0]],
            },
        )
        monkeypatch.setenv("ELICIT_TOL", "1e-3")
        code, _, _ = run_cli(["check-wmon", fam], capsys)
        assert code == 2
        code, _, _ = run_cli(["check-wmon", fam, "--tol", "1e-3"], capsys)
        assert code == 0
        code, _, _ = run_cli(["check-wmon", fam, "--tol", "1e-9"], capsys)
        assert code == 2


class TestInputErrors:
    """Malformed input exits 1 with one line on stderr and nothing on stdout."""

    def assert_usage_error(self, args, capsys, message):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("elicit: error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "report,outcome,message",
        [
            ("-1", "0", "--report"),
            ("5", "0", "--report"),
            ("0", "-1", "--outcome"),
            ("0", "2", "--outcome"),
        ],
    )
    def test_score_index_out_of_range(self, tmp_path, capsys, report, outcome, message):
        _, out, _ = run_cli(["make-score", "--g", "brier", "--reports", "grid:4"], capsys)
        table = write(tmp_path, "table.json", json.loads(out))
        self.assert_usage_error(
            ["score", table, "--report", report, "--outcome", outcome], capsys, message
        )

    def test_check_local_non_finite_own_report(self, tmp_path, capsys):
        doc = {
            "score": {
                "reports": [0, 1],
                "linear": [[1.0], [0.0]],
                "constant": [0.0, "-inf"],
            },
            "typeSpace": {"dim": 1, "points": [[0.0], [1.0]]},
        }
        path = write(tmp_path, "score.json", doc)
        self.assert_usage_error(
            ["check-local", path, "--radius", "2.0"],
            capsys,
            "truthful reports must score finite values",
        )

    @pytest.mark.parametrize("flag,shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0")])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, capsys, flag, shown):
        fam = write(tmp_path, "bad.json", BAD_FAMILY)
        args = ["check-wmon", fam, "--tol", flag]
        self.assert_usage_error(
            args, capsys, f"tolerance must be positive and finite, got {shown}\n"
        )

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_radius_must_be_positive_and_finite(self, tmp_path, capsys, radius):
        doc = {
            "score": {"reports": [0, 1], "linear": [[1.0], [0.0]], "constant": [0.0, 0.0]},
            "typeSpace": {"dim": 1, "points": [[0.0], [1.0]]},
        }
        path = write(tmp_path, "score.json", doc)
        self.assert_usage_error(
            ["check-local", path, "--radius", radius],
            capsys,
            f"radius must be positive and finite, got {radius}\n",
        )

    @pytest.mark.parametrize(
        "args,message",
        [
            (["rev-interval", "{fam}", "--anchor", "0=nan", "--target", "2"],
             "anchor 0 must be finite, got nan"),
            (["rev-interval", "{fam}", "--anchor", "0=0", "--anchor", "1=-inf",
              "--target", "2"], "anchor 1 must be finite, got -inf"),
            (["level-convexity", "{sample}", "--eps", "inf"],
             "eps must be nonnegative and finite, got inf"),
            (["level-convexity", "{sample}", "--eps", "nan"],
             "eps must be nonnegative and finite, got nan"),
            (["homothet", "{diag}", "--alpha", "inf"],
             "scale must be positive and finite, got inf"),
            (["homothet", "{diag}", "--alpha", "2", "--p0", "inf"],
             "offset p0 must be finite, got inf"),
            (["myerson", "{alloc}", "--t", "nan"],
             "t must be nonnegative and finite, got nan"),
            (["myerson", "{alloc}", "--t", "inf"],
             "t must be nonnegative and finite, got inf"),
            (["myerson", "{alloc}", "--t", "1", "--p0", "nan"], "p0 must be finite, got nan"),
            (["myerson", "{alloc}", "--t", "1", "--p0=-inf"],
             "p0 must be finite, got -inf"),
        ],
    )
    def test_non_finite_option_is_named(self, tmp_path, capsys, args, message):
        files = {
            "fam": write(tmp_path, "fam.json", FIG_FAMILY),
            "sample": write(
                tmp_path, "sample.json", {"points": [[0.0], [1.0], [2.0]], "labels": [0, 1, 0]}
            ),
            "diag": write(tmp_path, "diag.json", {"sites": [[0.0], [1.0]], "weights": [0.0, 0.0]}),
            "alloc": write(
                tmp_path, "alloc.json", {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]}
            ),
        }
        # a warning printed before the error would be a second stderr line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_usage_error(
                [a.format(**files) for a in args], capsys, f"error: {message}\n"
            )

    @pytest.mark.parametrize(
        "args,message",
        [
            (["check-wmon", "{fam}"], CMON_OVERFLOW),
            (["check-cmon", "{fam}"], CMON_OVERFLOW),
            (["check-cmon", "{sum}"], CMON_OVERFLOW),
            (["synth-payments", "{fam}"], CMON_OVERFLOW),
            (["synth-payments", "{sum}"], CMON_OVERFLOW),
            (["rev-interval", "{fam}", "--anchor", "0=0", "--target", "2"], CMON_OVERFLOW),
            (["check-truthful", "{score}"], "truthful reports must score finite values"),
            (["check-local", "{score}", "--radius", "1"],
             "truthful reports must score finite values"),
            # finite scores -1e308 and 1e308 whose difference overflows
            (["check-truthful", "{spread}"], f"agent 0 gains inf by report 1: {GAINS}"),
            (["check-local", "{spread}", "--radius", "5"], f"agent 0 gains inf by report 1: {GAINS}"),
            (["check-proper", "{table}"], f"agent 0 gains inf by report 1: {GAINS}"),
            # finite own scores, and a deviation score 1e200 * 1e200
            (["check-truthful", "{deviant}"], f"agent 0 gains inf by report 1: {GAINS}"),
            (["fit-weights", "{sites}", "{sample}"],
             "squared distances from sample points to sites, summed over up to m sites, "
             "overflow the float range"),
        ],
    )
    def test_overflowing_weights_are_one_line_errors(self, tmp_path, capsys, args, message):
        # finite inputs whose products d_i . t_j leave the float range, or
        # ("sum") whose finite weights 1e308 sum to more along a 2-cycle
        points = [[1e200], [-1e200], [0.0]]
        vectors = [[-1e200], [1e200], [0.0]]
        type_space = {"dim": 1, "points": points}
        files = {
            "fam": write(tmp_path, "fam.json", {"typeSpace": type_space, "family": vectors}),
            "score": write(
                tmp_path,
                "score.json",
                {
                    "score": {"reports": [0, 1, 2], "linear": vectors, "constant": [0, 0, 0]},
                    "typeSpace": type_space,
                },
            ),
            "sum": write(
                tmp_path,
                "sum.json",
                {"typeSpace": {"dim": 1, "points": [[0.0], [1.0]]}, "family": [[1e308], [-1e308]]},
            ),
            "sites": write(tmp_path, "sites.json", {"sites": [[0.0], [1.0]]}),
            "sample": write(
                tmp_path, "sample.json", {"points": points, "labels": [0, 1, 0]}
            ),
            "spread": write(
                tmp_path,
                "spread.json",
                {
                    "score": {"reports": [0, 1], "linear": [[0], [0]], "constant": [-1e308, 1e308]},
                    "typeSpace": {"dim": 1, "points": [[0.0], [1.0]]},
                },
            ),
            "table": write(
                tmp_path,
                "table.json",
                {"reports": [[0.5, 0.5], [0.4, 0.6]], "payoffs": [[-1e308, -1e308], [1e308, 1e308]]},
            ),
            "deviant": write(
                tmp_path,
                "deviant.json",
                {
                    "score": {"reports": [0, 1], "linear": [[0], [1e200]], "constant": [0, 0]},
                    "typeSpace": {"dim": 1, "points": [[1e200], [0.0]]},
                },
            ),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_usage_error(
                [a.format(**files) for a in args], capsys, f"error: {message}\n"
            )

    @pytest.mark.parametrize(
        "args,message",
        [
            (["homothet", "{diag}", "--alpha", "2"], "sites must be finite, got inf"),
            (["breg2power", "{g}", "{sites}"],
             "the subgradient of G overflows the float range at [1e+308]"),
            (["duality-check", "{g}", "{grids}"], "G overflows the float range at [1e+308]"),
            (["game", "{g}", "{grids}"], "G overflows the float range at [1e+308]"),
        ],
    )
    def test_overflowing_convex_arithmetic_is_named(self, tmp_path, capsys, args, message):
        # numpy's "overflow encountered in ..." used to be the whole line
        big = [[0.0], [1e308]]
        files = {
            "diag": write(tmp_path, "diag.json", {"sites": big, "weights": [0.0, 0.0]}),
            "g": write(tmp_path, "g.json", {"analytic": "squaredNorm"}),
            "sites": write(tmp_path, "sites.json", {"sites": big}),
            "grids": write(
                tmp_path, "grids.json", {"typeSpace": {"points": big}, "duals": [[1.0]]}
            ),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_usage_error(
                [a.format(**files) for a in args], capsys, f"error: {message}\n"
            )

    def test_myerson_infinite_breakpoints(self, tmp_path, capsys):
        # inf - inf in the increasing check used to put numpy's text on stderr
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"breakpoints": [0.0, Infinity, Infinity], "values": [0.0, 1.0, 2.0]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_usage_error(
                ["myerson", str(alloc), "--t", "1"],
                capsys,
                "error: breakpoints must be finite, got inf\n",
            )

    def test_level_convexity_negative_eps(self, tmp_path, capsys):
        sample = write(
            tmp_path,
            "sample.json",
            {"points": [[0.0], [0.5], [1.0]], "labels": [0, 1, 0]},
        )
        code, _, _ = run_cli(["level-convexity", sample], capsys)
        assert code == 2
        self.assert_usage_error(
            ["level-convexity", sample, "--eps", "-1"], capsys, "eps must be nonnegative"
        )

    def test_check_proper_non_finite_own_score(self, tmp_path, capsys):
        table = write(
            tmp_path,
            "table.json",
            {
                "reports": [[0, 0, 1], [0.5, 0, 0.5]],
                "payoffs": [["-inf", "-inf", 0], [-1, "-inf", -1]],
            },
        )
        beliefs = write(tmp_path, "beliefs.json", {"beliefs": [[1e-10, -1e-10, 1]]})
        self.assert_usage_error(
            ["check-proper", table, beliefs],
            capsys,
            "truthful reports must score finite values",
        )

    @pytest.mark.parametrize(
        "args,message",
        [
            (["check-truthful", "{f}"], "must be a JSON object"),
            (["check-local", "{f}", "--radius", "1"], "must be a JSON object"),
            (["myerson", "{f}", "--t", "0.5"], "must be a JSON object"),
            (["decision-score", "{f}"], "must be a JSON object"),
            (["check-wmon", "{f}"], "family file must be a JSON object"),
            (["score", "{f}", "--report", "0", "--outcome", "0"], "outcome table must"),
            (["level-convexity", "{f}"], "sample must be a JSON object"),
            (["homothet", "{f}", "--alpha", "2"], "diagram must be a JSON object"),
            (["duality-check", "{g}", "{f}"], "must be a JSON object"),
            (["game", "{g}", "{f}"], "must be a JSON object"),
        ],
    )
    def test_top_level_list_is_not_an_object(self, tmp_path, capsys, args, message):
        f = write(tmp_path, "list.json", [[0.0], [1.0]])
        g = write(tmp_path, "g.json", {"analytic": "squaredNorm"})
        argv = [a.format(f=f, g=g) for a in args]
        self.assert_usage_error(argv, capsys, message)

    @pytest.mark.parametrize(
        "args,doc,message",
        [
            *[
                (
                    ["check-truthful", "{f}"],
                    {
                        "score": {"reports": reports, "linear": [[0.0]], "constant": [0.0]},
                        "typeSpace": {"dim": 1, "points": [[0.0]]},
                    },
                    f"reports must be a list of labels, not {kind}",
                )
                # a string or an object used to be read as its characters or keys
                for reports, kind in [(5, "int"), (None, "NoneType"), ("a", "str"), ({"a": 0}, "dict")]
            ],
            (
                ["myerson", "{f}", "--t", "0.5"],
                {"breakpoints": [0.0], "values": {"a": 1}},
                "values must hold numbers, not objects",
            ),
            *[
                (args, {"maxAffine": [piece]}, "maxAffine piece 0 must be a JSON object")
                for args in (["breg2power", "{f}", "{s}"], ["duality-check", "{f}", "{grids}"],
                             ["game", "{f}", "{grids}"])
                for piece in (5, [], None, "x")
            ],
        ],
    )
    def test_field_of_the_wrong_type(self, tmp_path, capsys, args, doc, message):
        f = write(tmp_path, "doc.json", doc)
        s = write(tmp_path, "sites.json", {"sites": [[0.0], [1.0]]})
        grids = str(GOLDEN_INPUTS / "grids-maxaffine.json")
        self.assert_usage_error([a.format(f=f, s=s, grids=grids) for a in args], capsys, message)

    def test_nested_list_is_not_an_object(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", {"score": [1, 2], "typeSpace": {"points": [[0.0]]}})
        self.assert_usage_error(
            ["check-truthful", path], capsys, "score table must be a JSON object"
        )

    def test_deeply_nested_json_is_a_one_line_error(self, tmp_path, capsys):
        # 6 KB of points nested 3000 deep: json's decoder recurses once a
        # level and raised RecursionError, which main printed as a traceback
        path = tmp_path / "deep.json"
        path.write_text('{"typeSpace": {"points": ' + "[" * 3000 + "]" * 3000 + '}, "family": []}')
        self.assert_usage_error(
            ["check-wmon", str(path)], capsys, f"{path} is nested too deeply to read as JSON"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"points": ', "Expecting value: line 1 column 12 (char 11)"),
            (b'{"points": [[0.0]], "labels": ["\xff"]}', "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["syntax", "encoding"],
    )
    def test_malformed_json_names_its_file(self, tmp_path, capsys, text, message):
        # fit-weights reads two files; json's own message did not say which
        sites = write(tmp_path, "sites.json", {"sites": [[0.0, 0.0], [1.0, 0.0]]})
        sample = tmp_path / "sample.json"
        if isinstance(text, bytes):
            sample.write_bytes(text)
        else:
            sample.write_text(text)
        self.assert_usage_error(
            ["fit-weights", sites, str(sample)], capsys, f"{sample} is not valid JSON: {message}"
        )

    def test_missing_key_is_named(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", {"typeSpace": {"dim": 1, "points": [[0.0], [1.0]]}})
        self.assert_usage_error(["check-truthful", path], capsys, "missing key 'score'")
        fam = write(tmp_path, "fam.json", {"typeSpace": {"points": [[0.0]]}})
        self.assert_usage_error(["check-cmon", fam], capsys, "missing key 'family'")

    def test_nan_decision_row_is_off_the_simplex(self, tmp_path, capsys):
        # every comparison with nan is false: such a row used to pass the
        # simplex check and exit 2 with a false UnreachableActionError
        spec = write(
            tmp_path,
            "spec.json",
            {
                "g": {"analytic": "squaredNorm"},
                "reports": [[[0.5, 0.5]]],
                "decisions": [[math.nan]],
            },
        )
        self.assert_usage_error(
            ["decision-score", spec], capsys, "decision distribution [nan] is not on the"
        )

    @pytest.mark.parametrize(
        "args,doc,message",
        [
            (["check-cmon"], {**FIG_FAMILY, "typeSpace": {"dim": math.inf, "points": [[0.0]]}},
             "declared dim inf is not an integer"),
            (["check-proper"], {"nOutcomes": math.inf, "reports": [[1.0]], "payoffs": [[0.0]]},
             "declared nOutcomes inf is not an integer"),
            (["level-convexity"], {"points": [[1e308], [0.0], [1.0]], "labels": [0, 0, 1]},
             "squared distances between sample points overflow the float range"),
            (["check-local", "--radius", "1"], {
                "score": {"reports": [0, 1], "linear": [[0.0], [1.0]], "constant": [0.0, 0.0]},
                "typeSpace": {"points": [[0.0], [1.0]]},
                "reportOf": [0, 1e308],
            }, "report_of entry 1e+308 is not an integer in the int64 range"),
        ],
    )
    def test_a_number_beyond_the_range_is_a_one_line_error(
        self, tmp_path, capsys, args, doc, message
    ):
        path = write(tmp_path, "doc.json", doc)
        self.assert_usage_error([args[0], path, *args[1:]], capsys, message)

    @pytest.mark.parametrize(
        "args,doc,message",
        [
            (["check-cmon"], {**FIG_FAMILY, "typeSpace": {"dim": 1.7, "points": [[0.0]]}},
             "declared dim 1.7 is not an integer"),
            (["check-proper"], {"nOutcomes": 1.5, "reports": [[1.0]], "payoffs": [[0.0]]},
             "declared nOutcomes 1.5 is not an integer"),
            (["check-local", "--radius", "1"], {
                "score": {"reports": [0, 1], "linear": [[0.0], [1.0]], "constant": [0.0, 0.0]},
                "typeSpace": {"points": [[0.0], [1.0]]},
                "reportOf": [0, 1.5],
            }, "report_of entry 1.5 is not an integer in the int64 range"),
        ],
    )
    def test_a_fraction_in_an_integer_field_is_a_one_line_error(
        self, tmp_path, capsys, args, doc, message
    ):
        # each used to be truncated: dim 1, nOutcomes 1, report 1
        path = write(tmp_path, "doc.json", doc)
        self.assert_usage_error([args[0], path, *args[1:]], capsys, message)

    @pytest.mark.parametrize(
        "args,doc,message",
        [
            (["synth-payments", "{fam}", "--t0", "99"], None, "base type must be in [0, 5), got 99"),
            (["rev-interval", "{fam}", "--anchor", "0=0", "--target", "99"], None,
             "target must be in [0, 5), got 99"),
            (["rev-interval", "{fam}", "--anchor", "0", "--target", "1"], None,
             "anchor must look like INDEX=VALUE, got '0'"),
            (["make-score", "--g", "brier", "--reports", "grid:0"], None,
             "need n_outcomes >= 1 and denominator >= 1"),
            (["homothet", "{diagram}", "--alpha", "2", "--p0", "1,2,3"], None,
             "offset dimension != diagram dimension"),
            (["level-convexity", "{f}"], {"points": [], "labels": []}, "sample must be nonempty"),
            (["fit-weights", "{sites}", "{f}"], {"points": [[0.0, 0.0]], "labels": [9]},
             "labels entry must be in [0, 3), got 9"),
            (["fit-weights", "{sites}", "{f}"], {"points": [[0.0]], "labels": [0]},
             "sample dimension != sites dimension"),
            (["level-convexity", "{f}"], {"points": [[0.0], [1.0]], "labels": [0, -1]},
             "labels entry must be in [0, inf), got -1"),
            (["level-convexity", "{f}"], {"points": [[0.0], [1.0]], "labels": [0]},
             "one label per point required"),
            (["power-label", "{f}", "{points}"], {"sites": [], "weights": []},
             "diagram needs at least one site"),
            (["power-label", "{f}", "{points}"], {"sites": [[0.0, 0.0]], "weights": [0.0, 1.0]},
             "one weight per site required"),
            (["myerson", "{f}", "--t", "0.5"], {"breakpoints": [0.0, 1.0], "values": [0.0]},
             "need one value per breakpoint, at least one each"),
            (["myerson", "{f}", "--t", "0.5"], {"breakpoints": [0.0, 1.0, 1.0],
                                                "values": [0.0, 1.0, 2.0]},
             "breakpoints must be strictly increasing"),
            (["make-score", "--g", "{f}", "--reports", "grid:2"], {"maxAffine": []},
             "maxAffine must be a nonempty list of pieces"),
            (["make-score", "--g", "{f}", "--reports", "grid:2"],
             {"maxAffine": [{"a": [1.0, 0.0], "b": "-inf"}]},
             "intercepts must hold numbers, not strings"),
            (["make-score", "--g", "{f}", "--reports", "grid:2"], {"analytic": "cubic"},
             "unknown analytic form 'cubic'"),
            (["make-score", "--g", "{f}", "--reports", "grid:2"], {},
             "convex spec needs 'maxAffine' or 'analytic'"),
            (["check-proper", "{f}"], {"reports": [[1.0, 0.0], [0.0, 1.0]], "payoffs": [[0.0, 0.0]]},
             "reports and payoffs must be (m, n) alike"),
            (["check-truthful", "{f}"], {
                "score": {"reports": [0, 1, 2], "linear": [[0.0], [1.0], [2.0]],
                          "constant": [0.0, 0.0, 0.0]},
                "typeSpace": {"points": [[0.0], [1.0]]},
            }, "score table must have one report per type"),
        ],
    )
    def test_an_input_the_library_rejects_is_a_one_line_error(
        self, tmp_path, capsys, args, doc, message
    ):
        paths = {
            "f": write(tmp_path, "doc.json", doc),
            "fam": str(GOLDEN_INPUTS / "family-good.json"),
            "diagram": str(GOLDEN_INPUTS / "diagram.json"),
            "sites": str(GOLDEN_INPUTS / "sites.json"),
            "points": str(GOLDEN_INPUTS / "points.json"),
        }
        self.assert_usage_error([a.format(**paths) for a in args], capsys, message)

    @pytest.mark.parametrize(
        "args,doc,message",
        [
            (["check-wmon", "{f}"],
             {"typeSpace": {"points": [[0.0], [1.0, 2.0]]}, "family": [[0.0], [1.0]]},
             "points has rows of unequal length"),
            (["check-wmon", "{f}"],
             {"typeSpace": {"points": [["0.5"], [1.0]]}, "family": [[0.0], [1.0]]},
             "points must hold numbers, not strings"),
            (["check-wmon", "{f}"],
             {"typeSpace": {"points": [[0.0], [1.0]]}, "family": [[0.0], [1.0, 2.0]]},
             "family has rows of unequal length"),
            (["check-cmon", "{f}"],
             {"typeSpace": {"points": [[0.0], [1.0]]}, "family": [[True], [1.0]]},
             "family must hold numbers, not booleans"),
            (["check-cmon", "{f}"], {**FIG_FAMILY, "typeSpace": {"dim": True, "points": [[0.0]]}},
             "declared dim True is not an integer"),
            (["level-convexity", "{f}"],
             {"points": [[0.0], [0.5], [1.0]], "labels": ["0", "0", " 1 "]},
             "labels entry '0' is not an integer in the int64 range"),
            (["level-convexity", "{f}"],
             {"points": [[0.0], [0.5, 1.0], [1.0]], "labels": [0, 1, 0]},
             "points has rows of unequal length"),
            (["power-label", "{f}", "{points}"], {"sites": [[0.0, 0.0]], "weights": ["0"]},
             "weights must hold numbers, not strings"),
            (["power-label", "{f}", "{points}"],
             {"sites": [[0.0, 0.0], [1.0]], "weights": [0.0, 0.0]},
             "sites has rows of unequal length"),
            (["power-label", "{diagram}", "{f}"], {"points": [[0.5, 0.0], [0.2]]},
             "points has rows of unequal length"),
            (["fit-weights", "{f}", "{sample}"], {"sites": [[0.0, 3.0], ["3", 1.0]]},
             "sites must hold numbers, not strings"),
            (["breg2power", "{negentropy}", "{f}"], {"sites": [[0.5, 0.5], [None, 0.5]]},
             "sites must hold numbers, not null"),
            (["make-score", "--g", "brier", "--reports", "{f}"],
             {"reports": [[0.5, 0.5], [True, False]]},
             "reports must hold numbers, not booleans"),
            (["check-proper", "{table}", "{f}"], {"beliefs": [[0.5, 0.5, 0.0], [0.5, 0.5]]},
             "beliefs has rows of unequal length"),
            (["check-proper", "{f}"], {"reports": [[1.0, "0"]], "payoffs": [[0.0, 0.0]]},
             "reports must hold numbers, not strings"),
            (["check-proper", "{f}"], {"reports": [[1.0, 0.0]], "payoffs": [[0.0, False]]},
             "payoffs must hold numbers, not booleans"),
            (["check-proper", "{f}"],
             {"reports": [[1.0, 0.0], [0.0, 1.0]], "payoffs": [[0.0, 0.0], [0.0]]},
             "payoffs has rows of unequal length"),
            (["check-proper", "{f}"], {"nOutcomes": True, "reports": [[1.0]], "payoffs": [[0.0]]},
             "declared nOutcomes True is not an integer"),
            (["check-truthful", "{f}"], {
                "score": {"reports": [0, 1], "linear": [[0.0], [True]], "constant": [0.0, 0.0]},
                "typeSpace": {"points": [[0.0], [1.0]]},
            }, "linear must hold numbers, not booleans"),
            (["check-truthful", "{f}"], {
                "score": {"reports": [0, 1], "linear": [[0.0], [1.0]], "constant": [0.0, True]},
                "typeSpace": {"points": [[0.0], [1.0]]},
            }, "constant must hold numbers, not booleans"),
            (["check-local", "{f}", "--radius", "1"], {
                "score": {"reports": [0, 1], "linear": [[0.0], [1.0]], "constant": [0.0, 0.0]},
                "typeSpace": {"points": [[0.0], [1.0]]},
                "reportOf": [0, True],
            }, "report_of entry True is not an integer in the int64 range"),
            (["make-score", "--g", "{f}", "--reports", "grid:2"],
             {"maxAffine": [{"a": ["1", 0.0], "b": 0.0}]},
             "slopes must hold numbers, not strings"),
            (["make-score", "--g", "{f}", "--reports", "grid:2"],
             {"maxAffine": [{"a": [1.0, 0.0], "b": 0.0}, {"a": [1.0], "b": 0.0}]},
             "slopes has rows of unequal length"),
            (["make-score", "--g", "{f}", "--reports", "grid:2"],
             {"maxAffine": [{"a": [1.0, 0.0], "b": True}]},
             "intercepts must hold numbers, not booleans"),
            (["duality-check", "{negentropy}", "{f}"],
             {"typeSpace": {"points": [[0.5, 0.5]]}, "duals": [["1", 0.0]]},
             "duals must hold numbers, not strings"),
            (["myerson", "{f}", "--t", "0.5"], {"breakpoints": ["0", 1.0], "values": [0.0, 1.0]},
             "breakpoints must hold numbers, not strings"),
            (["decision-score", "{f}"], {
                "g": {"analytic": "squaredNorm"},
                "reports": [[[0.5, 0.5], [True, 0.0]]],
                "decisions": [[1.0, 0.0]],
            }, "reports must hold numbers, not booleans"),
            (["decision-score", "{f}"], {
                "g": {"analytic": "squaredNorm"},
                "reports": [[[0.5, 0.5], [1.0, 0.0]]],
                "decisions": [["1", 0.0]],
            }, "decisions must hold numbers, not strings"),
            (["decision-score", "{f}"], {
                "g": {"analytic": "squaredNorm"},
                "reports": [[[0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]],
                "decisions": [[1.0], [1.0]],
            }, "reports has rows of unequal length"),
        ],
    )
    def test_a_string_boolean_or_ragged_row_is_a_one_line_error(
        self, tmp_path, capsys, args, doc, message
    ):
        # numpy read "0.5" and true as numbers and named no field for ragged rows
        paths = {
            "f": write(tmp_path, "doc.json", doc),
            "points": str(GOLDEN_INPUTS / "points.json"),
            "diagram": str(GOLDEN_INPUTS / "diagram.json"),
            "sample": str(GOLDEN_INPUTS / "sample-feasible.json"),
            "negentropy": str(GOLDEN_INPUTS / "negentropy.json"),
            "table": str(GOLDEN_INPUTS / "table-strict.json"),
        }
        self.assert_usage_error([a.format(**paths) for a in args], capsys, message)

    @pytest.mark.parametrize(
        "args,doc,message",
        [
            (["check-proper"], {"reports": [[1.0, 0.0]], "payoffs": [[10**400, 0.0]]},
             "payoffs holds an integer beyond the float range"),
            (["check-wmon"],
             {"typeSpace": {"points": [[0.0], [10**400]]}, "family": [[0.0], [1.0]]},
             "points holds an integer beyond the float range"),
            (["check-cmon"], {**FIG_FAMILY, "family": [[0.0], [-(10**400)], [2.0]]},
             "family holds an integer beyond the float range"),
        ],
        ids=["payoff", "point", "family"],
    )
    def test_an_integer_beyond_the_float_range_is_named(self, tmp_path, capsys, args, doc, message):
        # float() used to say "int too large to convert to float", naming no field
        path = write(tmp_path, "doc.json", doc)
        self.assert_usage_error([args[0], path], capsys, message)

    @pytest.mark.parametrize(
        "args,message",
        [
            (["rev-interval", "{fam}", "--anchor", "x=1", "--target", "2"],
             "--anchor index 'x' is not an integer"),
            (["rev-interval", "{fam}", "--anchor", "1.5=0", "--target", "2"],
             "--anchor index '1.5' is not an integer"),
            (["rev-interval", "{fam}", "--anchor", "0=abc", "--target", "2"],
             "--anchor value 'abc' is not a number"),
            (["rev-interval", "{fam}", "--anchor", "0=0", "--anchor", "0=5", "--target", "2"],
             "--anchor index 0 is given more than once"),
            (["rev-interval", "{fam}", "--anchor", "1=0", "--anchor", "0=0", "--anchor", "+1=2",
              "--target", "2"], "--anchor index 1 is given more than once"),
            (["homothet", "{diagram}", "--alpha", "2", "--p0", "a,b"],
             "--p0 entry 'a' is not a number"),
            (["homothet", "{diagram}", "--alpha", "2", "--p0", "1,,2"],
             "--p0 entry '' is not a number"),
            (["homothet", "{diagram}", "--alpha", "2", "--p0", "1,2,"],
             "--p0 entry '' is not a number"),
            (["homothet", "{diagram}", "--alpha", "2", "--p0", ""],
             "--p0 entry '' is not a number"),
            (["make-score", "--g", "brier", "--reports", "grid:x"],
             "--reports grid:K 'x' is not an integer"),
            (["make-score", "--g", "brier", "--reports", "grid:2.5"],
             "--reports grid:K '2.5' is not an integer"),
        ],
        ids=["anchor-index", "anchor-fraction", "anchor-value", "anchor-repeated",
             "anchor-repeated-spelled-apart", "p0", "p0-empty-inside", "p0-empty-last",
             "p0-empty", "grid", "grid-fraction"],
    )
    def test_a_text_option_that_is_no_number_names_itself(self, capsys, args, message):
        # int() and float() used to print "invalid literal for int() ..." or
        # "could not convert string to float: 'abc'", naming no option
        paths = {
            "fam": str(GOLDEN_INPUTS / "family-good.json"),
            "diagram": str(GOLDEN_INPUTS / "diagram.json"),
        }
        self.assert_usage_error([a.format(**paths) for a in args], capsys, message)

    def test_non_integer_label(self, tmp_path, capsys):
        sample = write(
            tmp_path,
            "sample.json",
            {"points": [[0.0], [0.5], [1.0]], "labels": [0, 1.7, 0]},
        )
        self.assert_usage_error(
            ["level-convexity", sample], capsys,
            "labels entry 1.7 is not an integer in the int64 range",
        )


def _line_inputs(tmp_path, m):
    """Files of m types 0, 1, ..., m - 1 on a line: the passing family of
    the gradient 2t of t^2 and its truthful tangent score; and a table of
    the quadratic score, proper, at m reports on the 2-outcome simplex."""
    points = [[float(i)] for i in range(m)]
    slopes = [[2.0 * i] for i in range(m)]
    score = {"reports": list(range(m)), "linear": slopes, "constant": [-float(i * i) for i in range(m)]}
    reports = [[i / (m - 1), 1.0 - i / (m - 1)] for i in range(m)]
    payoffs = [[2.0 * x - (p * p + q * q) for x in (p, q)] for p, q in reports]
    return {
        "family": write(tmp_path, "family.json", {"typeSpace": {"points": points}, "family": slopes}),
        "score": write(tmp_path, "score.json", {"score": score, "typeSpace": {"points": points}}),
        "table": write(tmp_path, "table.json", {"nOutcomes": 2, "reports": reports, "payoffs": payoffs}),
    }


class TestHugeInputs:
    """An input whose m x m arrays would exceed ``core.MAX_MATRIX_CELLS``
    exits 1 with one line naming m and the bytes, before any such array
    is allocated."""

    WEIGHTS = "the cmon weights of {m} types"
    COMMANDS = [
        ("check-cmon", "family", WEIGHTS),
        ("check-wmon", "family", WEIGHTS),
        ("synth-payments", "family", WEIGHTS),
        ("check-truthful", "score", "the payoffs of {m} reports at {m} types"),
        ("check-proper", "table", "the scores of {m} reports under {m} beliefs"),
    ]

    @pytest.fixture(scope="class")
    def huge(self, tmp_path_factory):
        # 200 000 one-dimensional types, a family file of about 5 MB
        return _line_inputs(tmp_path_factory.mktemp("huge"), 200_000)

    @pytest.mark.parametrize("command,kind,what", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_refused_in_one_line(self, huge, command, kind, what, capsys):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
        code, out, err = run_cli([command, huge[kind]], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"elicit: error: {what.format(m=200000)} would take 200000 x 200000 floats, "
            "320000000000 bytes, above the limit of 536870912 bytes\n"
        )
        # one such matrix would take 320 GB; the process grew by far less
        # than the 512 MiB of the limit
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        assert grown < (1 << 26) * 8 // 1024

    @pytest.mark.parametrize("command,kind,what", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_the_limit_is_checked_before_an_array_that_would_fit(
        self, tmp_path, monkeypatch, command, kind, what, capsys
    ):
        # 300 types need 90 000 cells, 720 kB; with the limit one cell
        # lower the input is refused, and no such array is traced
        files = _line_inputs(tmp_path, 300)
        assert run_cli([command, files[kind]], capsys)[0] == 0
        monkeypatch.setattr("elicit.core.MAX_MATRIX_CELLS", 300 * 300 - 1)
        tracemalloc.start()
        try:
            code, out, err = run_cli([command, files[kind]], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (
            f"elicit: error: {what.format(m=300)} would take 300 x 300 floats, "
            "720000 bytes, above the limit of 719992 bytes\n"
        )
        assert peak < 300 * 300 * 8


def _address_space_limit():
    """Cap the child's address space at 3 GiB, so that an input which
    escaped its size check fails fast instead of filling the memory."""
    limit = 3 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestOversizedInputs:
    """Each subcommand below forms a matrix over pairs of its inputs, or a
    grid, of more than ``core.MAX_MATRIX_CELLS`` cells on these inputs.
    It exits 1 with one stderr line naming the sizes, before allocating
    it.  8193 rows make 8193^2 = 67 125 249 cells, just over the limit.
    Each runs in a child process whose address space is capped, as does
    breg2power on 8193 sites, which forms no such matrix."""

    N = 8193
    PAIRS = f"would take {N} x {N} floats, {8 * N * N} bytes, above the limit of 536870912 bytes"
    CONJUGATE = f"the conjugate of {N} duals over {N} grid points {PAIRS}"
    SITES = f"the differences of {N} points and {N} sites {PAIRS}"
    CASES = {
        "make-score": (
            ["make-score", "--g", "brier", "--reports", "grid:50", "--outcomes", "20"],
            "the simplex grid of 20 outcomes at denominator 50 would take 46252743903616536 x 20 "
            "floats, 7400439024578645760 bytes, above the limit of 536870912 bytes",
        ),
        "duality-check": (["duality-check", "{g}", "{grids}"], CONJUGATE),
        "game": (["game", "{g}", "{grids}"], CONJUGATE),
        "power-label": (["power-label", "{diagram}", "{points}"], SITES),
        "fit-weights": (["fit-weights", "{sites}", "{sample}"], SITES),
        # one sample point, and a graph over the 8193 sites
        "fit-weights-sites": (
            ["fit-weights", "{sites}", "{one}"],
            f"the site graph of {N} sites {PAIRS}",
        ),
        "level-convexity": (
            ["level-convexity", "{sample}"],
            f"the differences of {N} sample points {PAIRS}",
        ),
    }

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("oversized")
        line = [[i / self.N] for i in range(self.N)]
        labels = [i % 2 for i in range(self.N)]
        return {
            "g": str(GOLDEN_INPUTS / "squarednorm.json"),
            "grids": write(tmp, "grids.json", {"typeSpace": {"points": line}, "duals": line}),
            "sites": write(tmp, "sites.json", {"sites": line}),
            "diagram": write(tmp, "diagram.json", {"sites": line, "weights": [0.0] * self.N}),
            "points": write(tmp, "points.json", {"points": line}),
            "sample": write(tmp, "sample.json", {"points": line, "labels": labels}),
            "one": write(tmp, "one.json", {"points": [[0.5]], "labels": [0]}),
        }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_refused_in_one_line(self, files, command):
        args, message = self.CASES[command]
        run = subprocess.run(
            [sys.executable, "-m", "elicit.cli"] + [a.format(**files) for a in args],
            capture_output=True,
            text=True,
            preexec_fn=_address_space_limit,
            timeout=120,
        )
        assert "Traceback" not in run.stderr
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == f"elicit: error: {message}\n"

    def test_breg2power_of_as_many_sites_forms_no_pair_array(self, files, tmp_path):
        # the weights need no conjugate, and the --grid file is not read
        args = ["breg2power", files["g"], files["sites"], "--grid", str(tmp_path / "absent.json")]
        run = subprocess.run(
            [sys.executable, "-m", "elicit.cli"] + args,
            capture_output=True,
            text=True,
            preexec_fn=_address_space_limit,
            timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(run.stdout)["weights"] == [0.0] * self.N


def test_parser_is_built_once_and_a_usage_error_leaves_it_clean(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", FIG_FAMILY)
    args = ["rev-interval", fam, "--anchor", "0=0", "--anchor", "1=0.5", "--target", "2"]
    alone = run_cli(args, capsys)
    code, out, err = run_cli(["check-wmon"], capsys)
    assert code == 1 and out == "" and "required" in err
    assert run_cli(args, capsys) == alone
    assert alone[0] == 0
    assert cli._build_parser() is cli._build_parser()


#: The subcommands that read no tolerance, each with its required arguments.
NO_TOL = {
    "myerson": ["alloc.json", "--t", "1"],
    "make-score": ["--g", "brier", "--reports", "grid:2"],
    "score": ["table.json", "--report", "0", "--outcome", "0"],
    "power-label": ["diagram.json", "points.json"],
    "homothet": ["diagram.json", "--alpha", "2"],
    "level-convexity": ["sample.json"],
    "breg2power": ["g.json", "sites.json"],
    "game": ["g.json", "grids.json"],
}


@pytest.mark.parametrize("command", sorted(NO_TOL))
def test_tol_is_refused_where_no_tolerance_is_read(command, capsys):
    # a flag taken and ignored would mislead: game matches at eq_tol whatever --tol says
    assert run_cli([command, *NO_TOL[command], "--tol", "1e-3"], capsys) == (
        1,
        "",
        "elicit: error: unrecognized arguments: --tol 1e-3\n",
    )


def test_tol_is_an_option_of_exactly_the_subcommands_that_read_it():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    takes = {name for name, p in sub.choices.items() if "--tol" in p._option_string_actions}
    reads = {
        name
        for name, p in sub.choices.items()
        if "tol=args.tol" in inspect.getsource(p.get_default("handler"))
    }
    assert takes == reads and len(takes) == 10 and not takes & set(NO_TOL)
