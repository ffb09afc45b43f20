"""Spans around the calls into each gztower layer, recorded from outside.

The package is not changed: ``Tracer.install`` replaces each traced public
function by a wrapper in every gztower module that holds it by name (the
layers import each other's functions, e.g. ``tower.evaluate_at``), and
``uninstall`` puts the originals back.  Spans stay in memory; ``summarize``
turns them into per-function calls, inclusive time (``busy_s``) and self time
(``self_s``, the span minus the part its child spans cover).  Private helpers
are not wrapped: their cost lands in the self time of the public caller.

Run as a script it traces one CLI report in a fresh process:

    PYTHONPATH=src python3 benchmarks/spans.py SPANS.json -- orbit --n 3 ...

It writes the summary to SPANS.json when the report is done and exits with
the CLI's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ["main"],
    "poisson": ["bracket", "canonical_bracket", "evaluate_at"],
    "families": ["build_family", "verify_commutes", "verify_trivial_numeric",
                 "independence_rank"],
    "quantum": ["qdet", "verify_quantum_commutes", "diffop_realization_check"],
    "polytools": ["lambda_minor_det", "roots_polished", "match_points"],
    "orbits": ["sample_orbit", "regularity_margin", "verify_canonical_chart",
               "residue_form_check"],
    "tower": ["build_tower", "path_log_increments", "hamiltonian_flow",
              "trajectory_records", "linearization_check",
              "action_angle_bracket_table"],
}
MODULES = ["gztower"] + [f"gztower.{layer}" for layer in LAYERS]
# Exceptions counted where they leave a traced call, by class name.
COUNTED_ERRORS = {"TrackingError": "polytools.match_points.tracking_errors",
                  "BranchJumpError": "tower.branch_jumps",
                  "RegularityLostError": "tower.regularity_lost"}


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _pairs(args, kwargs, result):
    return result.pairs_checked


# Counters read from a traced call's arguments and result after its span
# ends: function -> [(counter, amount(args, kwargs, result))].  SUMS add the
# amounts up, MAXIMA keep the largest.
SUMS = {
    "poisson.bracket": [
        ("poisson.bracket.term_pairs", lambda a, k, r: len(a[0].terms) * len(a[1].terms)),
        ("poisson.bracket.nonzero", lambda a, k, r: not r.is_zero())],
    "families.verify_commutes": [("families.verify_commutes.pairs", _pairs)],
    "families.verify_trivial_numeric": [("families.verify_trivial_numeric.pairs", _pairs)],
    "quantum.verify_quantum_commutes": [
        ("quantum.verify_quantum_commutes.pairs", _pairs),
        # 'nested' is tried first, 'ambient' only when 'nested' fails centrality.
        ("quantum.conventions_tried", lambda a, k, r: 1 if r.convention == "nested" else 2)],
    "tower.hamiltonian_flow": [
        ("tower.hamiltonian_flow.steps", lambda a, k, r: _arg(a, k, 3, "steps", 1000))],
}
MAXIMA = {
    "polytools.lambda_minor_det": [
        ("polytools.lambda_minor_det.size_max", lambda a, k, r: len(_arg(a, k, 1, "rows", ())))],
}


class Tracer:
    """Wraps the LAYERS functions; records spans as [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._last_error = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        sums, maxima = SUMS.get(name, ()), MAXIMA.get(name, ())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx][2] = clock()
                stack.pop()
                key = COUNTED_ERRORS.get(type(exc).__name__)
                if key and exc is not self._last_error:
                    self._last_error = exc
                    counters[key] += 1
                raise
            spans[idx][2] = clock()
            stack.pop()
            for key, amount in sums:
                counters[key] += amount(args, kwargs, result)
            for key, amount in maxima:
                counters[key] = max(counters[key], amount(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"gztower.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        out = summarize(self.spans)
        out["counters"] = dict(self.counters)
        return out


def summarize(spans: list[list]) -> dict:
    """Per-name calls, busy_s and self_s from a span list.

    A span is [name, start, end, parent index or -1], parents before their
    children.  busy_s sums the spans that have no ancestor of the same name,
    so recursion is not counted twice.  self_s subtracts from each span the
    union of its direct children's intervals.  ``child_calls`` counts spans
    by (parent name, child name).
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    child_calls: dict[str, int] = defaultdict(int)
    # Names on the path from the root, per span; the sets are shared.
    paths: list[frozenset] = []
    interned: dict[tuple[frozenset, str], frozenset] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        ancestors = paths[parent] if parent >= 0 else frozenset()
        key = (ancestors, name)
        if key not in interned:
            interned[key] = ancestors | {name}
        paths.append(interned[key])
        calls[name] += 1
        if name not in ancestors:
            busy[name] += end - start
        if parent >= 0:
            child_calls[f"{spans[parent][0]}>{name}"] += 1
        covered = 0.0
        cursor = start
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_time[name] += (end - start) - covered
    return {"calls": dict(calls), "busy_s": dict(busy), "self_s": dict(self_time),
            "child_calls": dict(child_calls)}


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- <gz-tower arguments>", file=sys.stderr)
        return 2
    from gztower import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[2:])
    finally:
        tracer.uninstall()
        with open(argv[0], "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
