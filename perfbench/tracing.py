"""Outside-in tracing of the program's layers.

The program has no instrumentation of its own, so the tracer wraps the
public functions of each module from outside and records a span around
every call: name, start, end, parent span and trace id.  Each top-level
``cli.main`` call opens a new trace.  A wrapper is bound at every place
the function was imported to (``payments.longest_paths`` as well as
``monotone.longest_paths``), and uninstalling puts every original
object back.  A layer's self time is its spans' durations minus the
time their child spans cover.

A target the code no longer has (a deleted module or function) is
reported as absent and skipped, so the benchmark keeps running across
refactors of the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: (module, attribute, layer).  An attribute "Class.method" wraps a method.
TARGETS: List[Tuple[str, str, str]] = [
    ("cli", "main", "cli.dispatch"),
    ("cli", "_read_json", "jsonio.read"),
    *[
        ("jsonio", f"load_{name}", "jsonio.load")
        for name in (
            "convex", "typespace", "family_file", "score_table",
            "outcome_table", "diagram", "sample", "points",
        )
    ],
    *[
        ("jsonio", f"{name}_to_obj", "jsonio.to_obj")
        for name in ("convex", "typespace", "score_table", "outcome_table", "diagram")
    ],
    ("jsonio", "dumps", "jsonio.dumps"),
    ("core", "TypeSpace.__post_init__", "core.types"),
    ("core", "LinearFamily.__post_init__", "core.types"),
    ("core", "ScoreTable.__post_init__", "core.types"),
    ("scoring", "OutcomeScoreTable.__post_init__", "core.types"),
    ("properties", "PowerDiagramSpec.__post_init__", "core.types"),
    ("properties", "LabeledSample.__post_init__", "core.types"),
    ("core", "CheckReport.to_obj", "core.to_obj"),
    ("core", "conjugate", "core.conjugate"),
    ("monotone", "cmon_weights", "monotone.cmon_weights"),
    ("monotone", "longest_paths", "monotone.longest_paths"),
    ("monotone", "check_wmon", "monotone.check_wmon"),
    ("monotone", "check_cmon", "monotone.check_cmon"),
    ("monotone", "check_local_truthful", "monotone.check_local_truthful"),
    ("payments", "rochet_payments", "payments.rochet_payments"),
    ("payments", "revenue_interval", "payments.revenue_interval"),
    ("scoring", "simplex_grid", "scoring.simplex_grid"),
    ("scoring", "make_scoring_rule", "scoring.make_scoring_rule"),
    ("scoring", "check_proper", "scoring.check_proper"),
    ("scoring", "check_truthful", "scoring.check_truthful"),
    ("duality", "check_duality_identities", "duality.check_duality_identities"),
    ("duality", "elicitation_game_equilibria", "duality.elicitation_game_equilibria"),
    ("properties", "power_cells", "properties.power_cells"),
    ("properties", "fit_weights", "properties.fit_weights"),
    ("properties", "check_level_set_convexity", "properties.check_level_set_convexity"),
    ("properties", "bregman_to_power", "properties.bregman_to_power"),
    ("lp", "feasible_point", "lp.feasible_point"),
]

#: Functions too small and too frequent for a span: only their calls are
#: counted, and their time stays in the caller's self time.
COUNTED: List[Tuple[str, str, str]] = [
    ("core", "eval_convex", "core.eval_convex_calls"),
]

#: Layers whose number of calls is reported next to their time.
CALLS_OF = {"monotone.longest_paths", "core.conjugate", "lp.feasible_point"}

#: Span layer whose calls emit witnesses; it counts them.
WITNESS_LAYER = "core.to_obj"

PACKAGE = "elicit"


def _resolve(module: str, attr: str):
    """(owner, name, original) for a target, or None if the code lacks it."""
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    owner = mod
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if original is None:
        return None
    return owner, name, original


class Tracer:
    """Spans and counts of one traced process; use as a context manager
    around the calls to trace, and call :meth:`take` between passes."""

    def __init__(self):
        self.spans: List[tuple] = []  # (trace, span, parent, layer, start_ns, end_ns)
        self.absent: List[str] = []
        self._self_ns: Dict[str, int] = defaultdict(int)
        self._counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [span id, child ns] per open span
        self._patched: List[tuple] = []  # (owner, name, original)
        self._trace = 0
        self._next_span = 0

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, layer: str):
        stack, self_ns, counts, spans = self._stack, self._self_ns, self._counts, self.spans
        calls_key = f"{layer}_calls" if layer in CALLS_OF else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1][0]
            else:
                parent = None
                self._trace += 1
            self._next_span += 1
            frame = [self._next_span, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if calls_key:
                    counts[calls_key] += 1
                if layer == WITNESS_LAYER:
                    counts["witnesses"] += len(args[0].witnesses)
                spans.append((self._trace, frame[0], parent, layer, start, end))

        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _bind(self, owner, name: str, original, wrapper) -> None:
        if isinstance(owner, type):
            sites = [(owner, name)]
        else:  # every module of the package that imported the function
            sites = [
                (mod, attr)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
                for attr, value in list(vars(mod).items())
                if value is original
            ]
        for site, attr in sites:
            self._patched.append((site, attr, original))
            setattr(site, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        importlib.import_module(PACKAGE)
        for module, attr, layer in TARGETS + COUNTED:
            found = _resolve(module, attr)
            if found is None:
                if f"{module}.{attr}" not in self.absent:
                    self.absent.append(f"{module}.{attr}")
                continue
            owner, name, original = found
            if layer.endswith("_calls"):
                wrapper = self._count_wrapper(original, layer)
            else:
                wrapper = self._span_wrapper(original, layer)
            self._bind(owner, name, original, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            site, attr, original = self._patched.pop()
            setattr(site, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def take(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Self time in ns per layer and counts since the last take."""
        out = dict(self._self_ns), dict(self._counts)
        self._self_ns.clear()
        self._counts.clear()
        return out

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        keys = ("trace", "span", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layers() -> List[str]:
    """Every span layer, in first-listed order."""
    return list(dict.fromkeys(layer for _, _, layer in TARGETS))
