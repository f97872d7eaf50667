"""Tests of the benchmark itself: seeded inputs, expected outcomes on the
program, output checks that can fail, and tracing that leaves no trace."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from elicit import core, duality, monotone, payments, properties  # noqa: E402
from perfbench import checks, run, tracing, workloads, worker  # noqa: E402


def _files(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    a = workloads.generate(name, 7, str(tmp_path / "a"))
    b = workloads.generate(name, 7, str(tmp_path / "b"))
    c = workloads.generate(name, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    strip = lambda calls, d: [[x.replace(str(d), "") for x in k.args] for k in calls]  # noqa: E731
    assert strip(a, tmp_path / "a") == strip(b, tmp_path / "b")
    assert [k.expect for k in a] == [k.expect for k in b]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_call_gives_its_expected_outcome(tmp_path, name):
    calls = workloads.generate(name, 3, str(tmp_path))
    runner = worker.CliRunner(calls)
    runner.warm_up()
    assert runner.errors == []
    assert {k.expect for k in calls} == {2 if name == "refute" else 0}
    assert worker.LibRunner(calls).timed_pass()[1] == 0


def test_checks_reject_a_wrong_result(tmp_path):
    calls = workloads.generate("refute", 3, str(tmp_path))
    runner = worker.CliRunner(calls)
    inputs = checks.Inputs()
    for command in ("check-wmon", "check-cmon", "check-truthful", "check-proper", "synth-payments"):
        call = next(k for k in calls if k.command == command)
        _, code, out, err = runner.run_one(call)
        assert checks.check_call(call, code, out, err, inputs) is None
        assert checks.check_call(call, 0, out, err, inputs) is not None
        doc = json.loads(out)
        if "witnesses" in doc:
            doc["witnesses"][0]["slack"] *= 2.0
        else:
            doc["weight"] *= 2.0
        forged = json.dumps(doc) + "\n"
        assert checks.check_call(call, code, forged, err, inputs) is not None


def _snapshot() -> dict:
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "elicit" or mod_name.startswith("elicit."):
            for attr, value in vars(mod).items():
                snap[(mod_name, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        snap[(mod_name, attr, k)] = v
    return snap


def _resolve(key):
    obj = getattr(sys.modules[key[0]], key[1])
    return vars(obj)[key[2]] if len(key) == 3 else obj


def test_tracing_binds_every_import_site_and_restores_originals(tmp_path):
    calls = [k for name in workloads.WORKLOADS
             for k in workloads.generate(name, 3, str(tmp_path / name)) if k.desk]
    runner = worker.CliRunner(calls)
    runner.warm_up()
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracer:
        assert payments.longest_paths is monotone.longest_paths
        assert payments.longest_paths is not before[("elicit.monotone", "longest_paths")]
        assert duality.conjugate is core.conjugate is properties.conjugate
        assert core.conjugate is not before[("elicit.core", "conjugate")]
        _, failed = runner.timed_pass()
    assert failed == 0  # traced outputs are byte-identical to untraced ones
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if _resolve(key) is not before[key]]
    assert changed == []

    self_ns, counts = tracer.take()
    assert set(self_ns) <= set(tracing.layers())
    assert all(v >= 0 for v in self_ns.values())
    assert counts["monotone.longest_paths_calls"] > 0
    assert counts["core.conjugate_calls"] > 0
    assert counts["core.eval_convex_calls"] > 0
    assert counts["witnesses"] > 0
    roots = [s for s in tracer.spans if s[2] is None]
    assert [s[3] for s in roots] == ["cli.dispatch"] * len(calls)
    assert len({s[0] for s in roots}) == len(calls)  # one trace id per CLI call
    assert tracer.take() == ({}, {})


def test_a_name_the_code_lacks_is_absent_not_an_error(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + [("lp", "no_such_function", "lp.gone"), ("no_such_module", "f", "x.y")],
    )
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["lp.no_such_function", "no_such_module.f"]


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "implement", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
