"""gz-tower benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload exact --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one operation at a time):

* ``exact``     fresh CLI processes: verify-classical gz N=5, mf N=4,
                verify-quantum N=4 (the exact Fraction and PBW layers, cold);
* ``geometry``  fresh CLI processes: orbit N=5 --check all, flow N=5 h[4,3]
                (the numeric minor, root and path-log layers);
* ``battery``   one long-lived process running 13 small public-API checks at
                N=3 with warm caches (per-call overhead and cache reads).

Inputs come from --seed alone (gen.py) and every report is checked
(check.py).  With --trace 0 the last stdout line carries the end-to-end
metrics.  With --trace 1 every input runs untraced and then traced
(spans.py), the two reports must be equal, and the last line carries the
per-layer metrics.  The readable report comes first; the full record, with
every generated argv, goes to .bench_out/<workload>-seed<seed>-trace<trace>.json.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import check
import gen
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact", "geometry", "battery")
SETUP_REPEATS = 7
RUN_LIMIT_S = 165.0   # no new pass starts after this; children die at +5 s
# Nominal wall seconds of one untraced pass, with its reference timings, on
# a 2-core x86_64 host in its slow state.  A run makes round(--seconds / this)
# passes (at least two; half as many when traced, since each input then runs
# twice), so the operations it attempts, and with them its failures, follow
# from the workload, --seconds, --trace and --seed alone, never from how fast
# the host happened to be.
NOMINAL_PASS_S = {"exact": 14.0, "geometry": 7.5, "battery": 0.55}
FAIL_KINDS = ("violation", "no-report", "crash", "timeout", "bad-report")
# Calibrated seconds: wall seconds times REFERENCE_S / the mean of every
# reference.work() timing of the run.  That is the time on a machine where the
# reference takes REFERENCE_S, and it takes out the slow speed changes of the
# shared host between runs.  One timing of the reference swings by up to 1.8x
# within seconds, far more than an operation of several seconds does; the
# mean over the run follows the host's speed without that noise.
REFERENCE_S = 0.12
REFS_PER_OP = 2         # reference timings after each CLI report

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics, each a mean per traced pass (size_max: the largest seen).
PER_LAYER = {
    "cli.main.self_s": "s", "cli.report_bytes": "B", "cli.trajectory_bytes": "B",
    "poisson.bracket.calls": "count", "poisson.bracket.busy_s": "s",
    "poisson.bracket.term_pairs": "count", "poisson.bracket.nonzero": "count",
    "poisson.canonical_bracket.calls": "count", "poisson.canonical_bracket.busy_s": "s",
    "poisson.evaluate_at.calls": "count", "poisson.evaluate_at.busy_s": "s",
    "families.build_family.busy_s": "s",
    "families.verify_commutes.busy_s": "s", "families.verify_commutes.self_s": "s",
    "families.verify_commutes.pairs": "count",
    "families.verify_trivial_numeric.busy_s": "s",
    "families.verify_trivial_numeric.pairs": "count",
    "families.independence_rank.busy_s": "s",
    "quantum.qdet.calls": "count", "quantum.qdet.busy_s": "s",
    "quantum.verify_quantum_commutes.busy_s": "s",
    "quantum.verify_quantum_commutes.self_s": "s",
    "quantum.verify_quantum_commutes.pairs": "count",
    "quantum.conventions_tried": "count",
    "quantum.diffop_realization_check.busy_s": "s",
    "polytools.lambda_minor_det.calls": "count", "polytools.lambda_minor_det.busy_s": "s",
    "polytools.lambda_minor_det.size_max": "count",
    "polytools.roots_polished.calls": "count", "polytools.roots_polished.busy_s": "s",
    "polytools.match_points.calls": "count", "polytools.match_points.busy_s": "s",
    "polytools.match_points.tracking_errors": "count",
    "orbits.sample_orbit.busy_s": "s", "orbits.sample_orbit.draws_per_point": "count",
    "orbits.regularity_margin.calls": "count", "orbits.regularity_margin.busy_s": "s",
    "orbits.verify_canonical_chart.busy_s": "s", "orbits.verify_canonical_chart.self_s": "s",
    "orbits.residue_form_check.busy_s": "s", "orbits.residue_form_check.self_s": "s",
    "tower.build_tower.busy_s": "s",
    "tower.path_log_increments.calls": "count", "tower.path_log_increments.busy_s": "s",
    "tower.hamiltonian_flow.busy_s": "s", "tower.hamiltonian_flow.self_s": "s",
    "tower.hamiltonian_flow.steps": "count",
    "tower.trajectory_records.busy_s": "s", "tower.linearization_check.busy_s": "s",
    "tower.action_angle_bracket_table.busy_s": "s",
    "tower.action_angle_bracket_table.self_s": "s",
    "tower.branch_jumps": "count", "tower.regularity_lost": "count",
    "bench.trace_overhead_s": "s",
}


@dataclass
class Sample:
    """One timed operation: a CLI report or one battery check."""

    name: str
    seconds: float
    kind: str
    rss_kb: int
    argv: list[str] | None = None
    traced: bool = False


class Runner:
    """Spawns children inside the checkout and reaps each one with os.wait4."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()

    def spawn(self, argv: list[str]) -> tuple[int | None, float, int, str, str]:
        """(exit code or None if killed, wall seconds, max RSS in KB, stdout, stderr)."""
        killed = threading.Event()
        with open(OUT / "child.out", "w+") as out, open(OUT / "child.err", "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(max(0.0, self.started + RUN_LIMIT_S + 5 - t0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            code = None if killed.is_set() else proc.returncode
            return code, seconds, usage.ru_maxrss, out.read(), err.read()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]) // (2 if traced else 1))


def measure_setup(runner: Runner) -> tuple[list[Sample], list[float]]:
    """Fresh interpreters finishing `import gztower.cli`, and reference timings."""
    samples, refs = [], [reference.seconds()]
    for _ in range(SETUP_REPEATS):
        code, seconds, rss, _, err = runner.spawn([sys.executable, "-c", "import gztower.cli"])
        if code != 0:
            raise SystemExit(f"importing gztower.cli failed:\n{err}")
        samples.append(Sample("setup", seconds, "ok", rss))
        refs.append(reference.seconds())
    return samples, refs


class Spans:
    """Sum of span summaries over the traced operations of a run."""

    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.self_s = Counter()
        self.child_calls = Counter()
        self.counters = Counter()
        self.size_max = 0

    def add(self, summary: dict) -> None:
        self.calls.update(summary["calls"])
        self.busy.update(summary["busy_s"])
        self.self_s.update(summary["self_s"])
        self.child_calls.update(summary["child_calls"])
        counters = dict(summary["counters"])
        self.size_max = max(self.size_max,
                            counters.pop("polytools.lambda_minor_det.size_max", 0))
        self.counters.update(counters)

    def metrics(self, passes: int, extra: dict[str, float]) -> dict[str, float]:
        tables = {"calls": self.calls, "busy_s": self.busy, "self_s": self.self_s}
        out = {}
        for name in PER_LAYER:
            fn, _, stat = name.rpartition(".")
            if name in extra:
                out[name] = extra[name]
            elif name == "polytools.lambda_minor_det.size_max":
                out[name] = self.size_max
            elif name == "orbits.sample_orbit.draws_per_point":
                out[name] = (self.child_calls["orbits.sample_orbit>orbits.regularity_margin"]
                             / max(1, self.calls["orbits.sample_orbit"]))
            elif stat in tables:
                out[name] = tables[stat][fn] / passes
            else:
                out[name] = self.counters[name] / passes
        return out


def run_cli_workload(runner: Runner, workload: str, seed: int, seconds: float,
                     traced: bool) -> dict:
    samples: list[Sample] = []
    refs = [reference.seconds()]
    spans = Spans()
    extra = Counter()
    mismatches: list[str] = []
    passes = gen.cli_passes(workload, seed)
    n_pass = 0
    last_pass = 0.0
    for _ in range(pass_count(workload, seconds, traced)):
        if runner.elapsed() + last_pass >= RUN_LIMIT_S:
            print(f"  stopped after {n_pass} passes: the next would end past {RUN_LIMIT_S:.0f} s")
            break
        t_pass = runner.elapsed()
        for op in next(passes):
            code, secs, rss, out, err = runner.spawn([sys.executable, "-m", "gztower.cli",
                                                      *op.argv])
            refs += [reference.seconds() for _ in range(REFS_PER_OP)]
            verdict = check.check_cli(op.name, code, out, err)
            samples.append(Sample(op.name, secs, verdict.kind, rss, list(op.argv)))
            if verdict.kind in check.INCORRECT:
                print(f"  {op.name}: {verdict.kind}: {'; '.join(verdict.problems)[:300]}")
            if not traced:
                continue
            span_file = OUT / "spans.json"
            span_file.unlink(missing_ok=True)
            t_code, t_secs, t_rss, t_out, t_err = runner.spawn(
                [sys.executable, str(BENCH / "spans.py"), str(span_file), "--", *op.argv])
            t_verdict = check.check_cli(op.name, t_code, t_out, t_err)
            samples.append(Sample(op.name, t_secs, t_verdict.kind, t_rss, list(op.argv), True))
            if span_file.exists():
                spans.add(json.loads(span_file.read_text()))
            # The traced process is a second run of the same configuration.
            report = check.without_timestamp(t_out)
            if report != check.without_timestamp(out):
                mismatches.append(f"{op.name}: {' '.join(op.argv)}")
            extra["cli.report_bytes"] += len(t_out.encode())
            if isinstance(report, dict) and "trajectory_file" in report:
                extra["cli.trajectory_bytes"] += (ROOT / report["trajectory_file"]).stat().st_size
        n_pass += 1
        last_pass = runner.elapsed() - t_pass
    return {"passes": n_pass, "samples": samples, "refs": refs,
            "mismatches": mismatches, "spans": spans, "extra": extra}


def run_battery(runner: Runner, seed: int, seconds: float, traced: bool) -> dict:
    argv = [sys.executable, str(BENCH / "battery.py"), "--seed", str(seed),
            "--passes", str(pass_count("battery", seconds, traced)), "--trace", str(int(traced))]
    code, _, rss, out, err = runner.spawn(argv)
    if code != 0:
        raise SystemExit(f"battery process exited with {code}:\n{err[-2000:]}")
    data = json.loads(out)
    samples = []
    for p in data["passes"]:
        for name, secs, kind in zip(data["names"], p["seconds"], p["kinds"]):
            samples.append(Sample(name, secs, kind, rss, None, p["traced"]))
        for problem in p["problems"]:
            print(f"  {problem}")
    spans = Spans()
    if traced:
        spans.add(data["spans"])
    return {"passes": len(data["refs"]) - 1, "samples": samples, "refs": data["refs"],
            "mismatches": [] if data["deterministic"] else ["battery pass 1 vs warm-up"],
            "spans": spans, "extra": Counter()}


def median_with_failures(samples: list[Sample]) -> float:
    """Median latency where a failed operation counts as infinitely slow."""
    return statistics.median(s.seconds if s.kind == "ok" else math.inf for s in samples)


def tail(samples: list[Sample]) -> str:
    """Highest percentile with at least 10 samples beyond it, with the count."""
    values = sorted(s.seconds if s.kind == "ok" else math.inf for s in samples)
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return f"p{p:g} {values[rank - 1]:.4f} s ({n} samples)"
    return f"no percentile has 10 samples beyond it ({n} samples)"


def pass_seconds(samples: list[Sample]) -> float:
    """Sum over operations of the mean wall time of their complete reports
    (status ok or violation: the whole check ran)."""
    by_name = defaultdict(list)
    for s in samples:
        by_name[s.name].append(s)
    total = 0.0
    for group in by_name.values():
        # No complete report at all (every flow of the run jumped branch):
        # fall back to the failed attempts rather than print no number.
        done = [s for s in group if s.kind in ("ok", "violation")] or group
        total += statistics.fmean(s.seconds for s in done)
    return total


def calibrated(seconds: float, refs: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.fmean(refs)


def provenance() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gztower" / "cli.py").is_file():
        print(f"no gztower sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every child, so the reference timings and
    # the operations they calibrate run on the same (shared) core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner()
    setup, setup_refs = measure_setup(runner)
    traced = bool(args.trace)
    if args.workload == "battery":
        res = run_battery(runner, args.seed, args.seconds, traced)
    else:
        res = run_cli_workload(runner, args.workload, args.seed, args.seconds, traced)

    samples: list[Sample] = res["samples"]
    plain = [s for s in samples if not s.traced]
    kinds = Counter(s.kind for s in samples)
    failed = sum(kinds[k] for k in FAIL_KINDS)
    correct = not res["mismatches"] and not any(kinds[k] for k in check.INCORRECT)
    setup_wall = pass_seconds(setup)
    setup_s = calibrated(setup_wall, setup_refs)
    pass_wall = pass_seconds(plain)
    pass_s = calibrated(pass_wall, res["refs"])
    rss_mb = max(s.rss_kb for s in plain) / 1024

    print(f"gz-tower benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={res['passes']} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    print(f"  {'setup_s':34s} {setup_s:9.4f} s   calibrated; wall {setup_wall:.4f} s, "
          f"mean of {len(setup)} fresh imports of gztower.cli")
    by_name = defaultdict(list)
    for s in plain:
        by_name[s.name].append(s)
    prefix = "battery." if args.workload == "battery" else ""
    for name, group in by_name.items():
        print(f"  {prefix + name + '_s':40s} {median_with_failures(group):9.4f} s   "
              f"wall median; {tail(group)}")
    if args.workload == "battery":
        ok = sum(1 for s in plain if s.kind == "ok")
        print(f"  {'battery_checks_per_s':34s} {ok / sum(s.seconds for s in plain):9.2f} 1/s "
              f"higher is better; ok checks per second of timed passes")
    print(f"  {'pass_s':34s} {pass_s:9.4f} s   calibrated; wall {pass_wall:.4f} s, the sum "
          f"of per-operation means over complete reports")
    print(f"  {'reference_s':34s} {statistics.fmean(res['refs']):9.4f} s   "
          f"mean of {len(res['refs'])} timings of reference.work()")
    print(f"  {'peak_rss_mb':34s} {rss_mb:9.1f} MB  largest max-RSS of any child")
    breakdown = ", ".join(f"{k} {kinds[k]}" for k in FAIL_KINDS)
    print(f"  {'failed_ratio':34s} {failed}/{len(samples)} = {failed / len(samples):.3f}"
          f"   ({breakdown})")
    if traced or args.workload == "battery":
        print(f"  {'repeat check':34s} "
              f"{'; '.join(res['mismatches']) if res['mismatches'] else 'equal reports'}")

    if traced:
        traced_s = [s for s in samples if s.traced]
        overhead = pass_seconds(traced_s) - pass_wall
        n = max(1, res["passes"])
        extra = {k: v / n for k, v in res["extra"].items()}
        extra["bench.trace_overhead_s"] = overhead
        metrics = res["spans"].metrics(n, extra)
        print(f"  per-layer metrics, mean per traced pass ({n} passes):")
        for name, value in metrics.items():
            print(f"    {name:48s} {value:14.6g} {PER_LAYER[name]}")
        print(f"  tracing overhead: {overhead:+.4f} s per pass (traced "
              f"{pass_seconds(traced_s):.4f} s, untraced {pass_wall:.4f} s, wall)")
        table = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in metrics.items()}
    else:
        values = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_mb": rss_mb}
        table = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "setup": [asdict(s) for s in setup], "setup_reference_s": setup_refs,
        "reference_s": res["refs"], "kinds": dict(kinds),
        "mismatches": res["mismatches"], "metrics": table,
        "samples": [asdict(s) for s in samples]}, indent=1))
    print(f"  full record: {record.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
