import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from elicit import cli, jsonio, make_scoring_rule, simplex_grid
from helpers import recheck_fit_certificate

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

    def test_tol_env_override(self, tmp_path, capsys, monkeypatch):
        # a tiny violation passes under a loose tolerance
        fam = write(
            tmp_path,
            "fam.json",
            {
                "typeSpace": {"dim": 1, "points": [[0.0], [1.0]]},
                "family": [[1e-7], [0.0]],
            },
        )
        code, _, _ = run_cli(["check-wmon", fam], capsys)
        assert code == 2
        monkeypatch.setenv("ELICIT_TOL", "1e-3")
        code, _, _ = run_cli(["check-wmon", fam], capsys)
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

    @pytest.mark.parametrize(
        "flag,env,shown",
        [
            ("nan", None, "nan"),
            ("inf", None, "inf"),
            ("0", None, "0.0"),
            (None, "nan", "nan"),
            (None, "inf", "inf"),
        ],
    )
    def test_tolerance_must_be_positive_and_finite(
        self, tmp_path, capsys, monkeypatch, flag, env, shown
    ):
        fam = write(tmp_path, "bad.json", BAD_FAMILY)
        if env is not None:
            monkeypatch.setenv("ELICIT_TOL", env)
        args = ["check-wmon", fam] + (["--tol", flag] if flag is not None else [])
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
             "offset p0 must be finite, got [inf]"),
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
            (
                ["check-truthful", "{f}"],
                {
                    "score": {"reports": 5, "linear": [[0.0]], "constant": [0.0]},
                    "typeSpace": {"dim": 1, "points": [[0.0]]},
                },
                "not iterable",
            ),
            (
                ["myerson", "{f}", "--t", "0.5"],
                {"breakpoints": [0.0], "values": {"a": 1}},
                "float() argument",
            ),
            (["breg2power", "{f}", "{s}"], {"maxAffine": [5]}, "not subscriptable"),
        ],
    )
    def test_field_of_the_wrong_type(self, tmp_path, capsys, args, doc, message):
        f = write(tmp_path, "doc.json", doc)
        s = write(tmp_path, "sites.json", {"sites": [[0.0], [1.0]]})
        self.assert_usage_error([a.format(f=f, s=s) for a in args], capsys, message)

    def test_nested_list_is_not_an_object(self, tmp_path, capsys):
        path = write(tmp_path, "doc.json", {"score": [1, 2], "typeSpace": {"points": [[0.0]]}})
        self.assert_usage_error(
            ["check-truthful", path], capsys, "score table must be a JSON object"
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
             "cannot convert float infinity to integer"),
            (["level-convexity"], {"points": [[1e308], [0.0], [1.0]], "labels": [0, 0, 1]},
             "overflow encountered in"),
            (["check-local", "--radius", "1"], {
                "score": {"reports": [0, 1], "linear": [[0.0], [1.0]], "constant": [0.0, 0.0]},
                "typeSpace": {"points": [[0.0], [1.0]]},
                "reportOf": [0, 1e308],
            }, "too large"),
        ],
    )
    def test_a_number_beyond_the_range_is_a_one_line_error(
        self, tmp_path, capsys, args, doc, message
    ):
        path = write(tmp_path, "doc.json", doc)
        self.assert_usage_error([args[0], path, *args[1:]], capsys, message)

    def test_non_integer_label(self, tmp_path, capsys):
        sample = write(
            tmp_path,
            "sample.json",
            {"points": [[0.0], [0.5], [1.0]], "labels": [0, 1.7, 0]},
        )
        self.assert_usage_error(
            ["level-convexity", sample], capsys, "labels must be integers"
        )


def test_parser_is_built_once_and_a_usage_error_leaves_it_clean(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", FIG_FAMILY)
    args = ["rev-interval", fam, "--anchor", "0=0", "--anchor", "1=0.5", "--target", "2"]
    alone = run_cli(args, capsys)
    code, out, err = run_cli(["check-wmon"], capsys)
    assert code == 1 and out == "" and "required" in err
    assert run_cli(args, capsys) == alone
    assert alone[0] == 0
    assert cli._build_parser() is cli._build_parser()
