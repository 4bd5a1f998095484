#!/usr/bin/env python3
"""manipdetect benchmark: closed-loop query workloads with checked verdicts.

Run from the root of a checkout:

    python3 bench/run.py --workload audit-large --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0

`--workload all` runs the three workloads one after another, each in a fresh
process, and ends with one JSON object whose metric names carry the workload.

One client sends one query at a time and waits for the finished JSON report
(a closed loop), in this single process with no extra threads.  Each query is
driven the way the CLI drives it: `rules.winner` or `dispatch.decide_*`, then
`detection.verify_verdict` on a YES, then a `ballotfile.Report` carrying the
current winner, serialised to JSON.  Reading and parsing the election files
is timed as set-up.  Every query runs in at least PASSES rounds, and its
latency is the median of its runs, each scaled to a reference host speed by
the kernel of hostspeed.py timed next to it, which keeps the figures steady
on a host whose speed drifts (README.md says how much).  Every verdict is
checked after the timed phase (see verify.py).

`--trace 0` prints the end-to-end metrics; `--trace 1` runs a fixed amount of
work under the span recorder of tracer.py and prints per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--record` rewrites the recorded
answers in reference.json for the given seed instead of measuring.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import verify
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import KINDS, WORKLOADS, Query, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
MODULES = ("errors", "core", "rules", "ballotfile", "detection", "dispatch", "oracle", "cli")
# Set-up is timed twice, before and after the timed phase, each time for at
# least this many passes and seconds; the median of all passes is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
# The timed phase runs whole rounds of the workload's queries, at least
# PASSES of them, until its time is up.
PASSES = 3


def load_package():
    """Import manipdetect from this checkout's source tree."""
    if not (SRC / "manipdetect" / "__init__.py").is_file():
        raise SystemExit(f"error: no manipdetect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("manipdetect")
    for name in MODULES:
        importlib.import_module(f"manipdetect.{name}")
    return pkg


# ---------------------------------------------------------------------------
# Set-up: read and parse the election files.
# ---------------------------------------------------------------------------


def write_files(workload: Workload, folder: Path) -> dict[str, Path]:
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, election in workload.elections.items():
        path = folder / f"{key}.txt"
        path.write_text(election.text(), encoding="utf-8")
        paths[key] = path
    return paths


def parse_all(pkg, paths: dict[str, Path]) -> dict:
    instances = {}
    for key, path in paths.items():
        with open(path, encoding="utf-8") as handle:
            instances[key] = pkg.ballotfile.parse_election(handle.read())
    return instances


def time_setup(pkg, paths: dict[str, Path],
               speed: HostSpeed) -> tuple[dict, list[float], list[float]]:
    """Parse every file at least SETUP_MIN_REPEATS times and for SETUP_MIN_SECONDS.

    Returns the last parse, and the time of every pass as measured and as
    scaled to the reference host speed by the kernel runs around it.
    """
    raw, kernel = [], []
    instances = None
    began = perf_counter()
    while len(raw) < SETUP_MIN_REPEATS or perf_counter() - began < SETUP_MIN_SECONDS:
        instances = None  # let the previous parse go before timing the next
        kernel.append(speed.measure())
        t0 = perf_counter()
        instances = parse_all(pkg, paths)
        raw.append(perf_counter() - t0)
    speed.measure()
    return instances, raw, [t * speed.scale(k) for t, k in zip(raw, kernel)]


# ---------------------------------------------------------------------------
# One query, the way the CLI runs it.
# ---------------------------------------------------------------------------


def execute(pkg, query: Query, instance, rule, tracer: Tracer | None):
    """Decide one query and build its JSON report; returns the winner id or the verdict."""
    started = perf_counter()
    names = instance.names
    report_span = tracer.span("ballotfile.report") if tracer else nullcontext()
    if query.problem == "winner":
        w = pkg.rules.winner(instance, rule)
        with report_span:
            pkg.ballotfile.Report(
                problem="winner",
                rule=query.rule,
                verdict="-",
                winner=names[w],
                method="winner-determination",
                elapsed_ms=(perf_counter() - started) * 1000.0,
            ).to_json()
        return w
    dispatch = pkg.dispatch
    y = instance.candidate_id(query.target) if query.target is not None else None
    if query.problem == "cpmw":
        verdict = dispatch.decide_cpmw(instance, rule, query.suspects, y)
    elif query.problem == "cpm":
        verdict = dispatch.decide_cpm(instance, rule, query.suspects)
    elif query.problem == "cpmsw":
        verdict = dispatch.decide_cpmsw(instance, rule, y, query.k)
    else:
        verdict = dispatch.decide_cpms(instance, rule, query.k)
    if verdict.answer and not pkg.detection.verify_verdict(instance, rule, verdict):
        raise pkg.errors.ElectionError("witness failed replay verification")
    with report_span:
        witness = None
        if verdict.witness is not None:
            witness = [
                {"voter": i, "ballot": pkg.ballotfile.ballot_string(names, pref)}
                for i, pref in sorted(verdict.witness.items())
            ]
        y_found = verdict.witness_actual_winner
        pkg.ballotfile.Report(
            problem=query.problem,
            rule=query.rule,
            verdict="YES" if verdict.answer else "NO",
            current_winner=names[pkg.rules.winner(instance, rule)],
            witness_actual_winner=names[y_found] if y_found is not None else None,
            witness=witness,
            coalition=list(verdict.coalition) if verdict.coalition is not None else None,
            method=verdict.method,
            exhaustive=verdict.exhaustive,
            budget="ok",
            elapsed_ms=(perf_counter() - started) * 1000.0,
        ).to_json()
    return verdict


def signature(outcome) -> tuple:
    if isinstance(outcome, int):
        return ("winner", outcome)
    if isinstance(outcome, BaseException):
        return ("error", type(outcome).__name__)
    return (outcome.answer, outcome.witness_actual_winner, outcome.coalition)


@dataclass
class Phase:
    """What one timed phase executed: per-sample query index and latency."""

    elapsed: float = 0.0
    index: list[int] = field(default_factory=list)
    latency: list[float] = field(default_factory=list)
    kernel: list[int] = field(default_factory=list)  # last host-speed kernel run before
    first: dict[int, object] = field(default_factory=dict)  # query index -> first outcome
    inconsistent: dict[int, int] = field(default_factory=dict)  # repeats that differed
    refusals: int = 0

    @property
    def queries_per_s(self) -> float:
        return len(self.index) / self.elapsed


def run_phase(pkg, queries: list[Query], instances: dict, rules, *, seconds=None,
              reparse=None, speed: HostSpeed | None = None,
              tracer: Tracer | None = None) -> Phase:
    """Closed loop over `queries`: one round, or rounds for `seconds` when given.

    Timed, whole rounds run, at least PASSES of them, until the time is up.
    With `reparse`, every round after the first runs on a fresh parse of the
    elections (`reparse()`, outside any query's latency), so the program
    never sees the same instance object in two rounds.  With `speed`, the
    host-speed kernel runs between queries every hostspeed.INTERVAL seconds,
    and at the start and the end.
    """
    phase = Phase()
    errors = pkg.errors
    shown_traceback = False
    rounds = 1 if seconds is None else PASSES
    if speed:
        speed.measure()
    began = perf_counter()
    done = 0
    while done < rounds or (seconds is not None and perf_counter() - began < seconds):
        if reparse is not None and done > 0:
            instances = None  # let the previous parse go first
            instances = reparse()
        for qi, query in enumerate(queries):
            instance = instances[query.election]
            rule = rules[(query.election, query.rule)]
            if tracer:
                tracer.query_id = len(phase.index)
            if speed and speed.due():
                speed.measure()
            root = tracer.span(f"query.{query.kind}") if tracer else nullcontext()
            t0 = perf_counter()
            try:
                with root:
                    outcome = execute(pkg, query, instance, rule, tracer)
            except errors.BudgetExceededError as exc:
                outcome = exc
                phase.refusals += 1
            except Exception as exc:  # keep the loop running; the failure is counted
                outcome = exc
                if not shown_traceback:
                    traceback.print_exc(file=sys.stderr)
                    shown_traceback = True
            phase.latency.append(perf_counter() - t0)
            phase.index.append(qi)
            if speed:
                phase.kernel.append(len(speed.times) - 1)
            if qi not in phase.first:
                phase.first[qi] = outcome
            elif signature(phase.first[qi]) != signature(outcome):
                phase.inconsistent[qi] = phase.inconsistent.get(qi, 0) + 1
        done += 1
    phase.elapsed = perf_counter() - began
    if speed:
        speed.measure()
    return phase


# ---------------------------------------------------------------------------
# Verdict checks, outside the timed phase.
# ---------------------------------------------------------------------------


def load_reference(workload: str, seed: int) -> dict[str, str]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), {})


@dataclass
class Check:
    failed_queries: set[int] = field(default_factory=set)
    by_oracle: int = 0
    by_record: int = 0
    by_construction: int = 0
    unreferenced: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, qi: int, query: Query, why: str) -> None:
        self.failed_queries.add(qi)
        if len(self.messages) < 10:
            self.messages.append(f"{query.key}: {why}")


def check(pkg, workload: Workload, queries: list[Query], seed: int, phase: Phase, instances,
          rules) -> Check:
    recorded = load_reference(workload.name, seed)
    result = Check()
    for qi, outcome in phase.first.items():
        query = queries[qi]
        instance = instances[query.election]
        rule = rules[(query.election, query.rule)]
        election = workload.elections[query.election]
        x = workload.winners[(query.election, query.rule)]
        if isinstance(outcome, BaseException):
            result.fail(qi, query, f"{type(outcome).__name__}: {outcome}")
            continue
        if qi in phase.inconsistent:
            result.fail(qi, query, "repeated runs gave different verdicts")
        if query.problem == "winner":
            if outcome != x:
                result.fail(qi, query, f"winner {outcome}, expected {x}")
            continue
        if outcome.answer:
            for why in verify.replay_problems(pkg.rules, query, instance, rule, outcome, x):
                result.fail(qi, query, why)
        answer = "YES" if outcome.answer else "NO"
        if query.expected is not None and answer != query.expected:
            result.fail(qi, query, f"answered {answer}, the input was built for {query.expected}")
        if verify.oracle_work(query, election.m, election.n) <= verify.ORACLE_WORK_LIMIT:
            expected = "YES" if verify.oracle_answer(pkg.oracle, query, instance, rule) else "NO"
            result.by_oracle += 1
        elif query.key in recorded:
            expected = recorded[query.key]
            result.by_record += 1
        elif query.expected is not None:
            result.by_construction += 1
            continue
        else:
            result.unreferenced += 1
            continue
        if answer != expected:
            result.fail(qi, query, f"answered {answer}, reference says {expected}")
    return result


def failed_samples(phase: Phase, result: Check) -> int:
    return sum(1 for qi in phase.index if qi in result.failed_queries)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def query_ms(phase: Phase, speed: HostSpeed | None) -> dict[int, float]:
    """Each distinct query's median latency over its runs, in ms.

    With `speed`, each run is first scaled to the reference host speed.
    """
    runs = defaultdict(list)
    for i, (qi, latency) in enumerate(zip(phase.index, phase.latency)):
        scale = speed.scale(phase.kernel[i]) if speed else 1.0
        runs[qi].append(1000.0 * latency * scale)
    return {qi: statistics.median(ms) for qi, ms in sorted(runs.items())}


def end_to_end(queries: list[Query], per_query: dict[int, float], setup_s: float,
               rss_mb: float) -> dict:
    """Latency metrics over the distinct queries, each counted once.

    `queries_per_s` is the rate of one closed-loop client at those latencies:
    distinct queries divided by the sum of their latencies.
    """
    ms = list(per_query.values())
    out = {
        "setup_s": metric(setup_s, "s"),
        "queries_per_s": metric(1000.0 * len(ms) / sum(ms), "1/s"),
        "query_p50_ms": metric(statistics.median(ms), "ms"),
        "query_p90_ms": metric(statistics.quantiles(ms, n=10)[8], "ms"),
    }
    for kind in KINDS:
        kind_ms = [t for qi, t in per_query.items() if queries[qi].kind == kind]
        out[f"{kind}_p50_ms"] = metric(statistics.median(kind_ms), "ms")
    out["peak_rss_mb"] = metric(rss_mb, "MB")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


TABLE_BUILDERS = (
    "rules.positional_scores", "core.margin_matrix", "rules.topk_counts", "rules.stv_order",
)
VALIDATION = "detection.DetectionQuery.__post_init__"


def per_layer(queries: list[Query], traced: Phase, untraced: Phase, summary) -> dict:
    count, total = summary.count, summary.total
    searches = sum(1 for query in queries if query.kind == "search")

    def ms(names) -> float:
        return 1000.0 * sum(total[n] for n in names)

    def replays_by(layer: str) -> int:
        return summary.calls_under("rules.winner_from_ballots", layer + ".")

    table_builds = sum(count[n] for n in TABLE_BUILDERS)
    subsets = sum(
        c for (nm, parent), c in summary.by_parent.items()
        if parent == "oracle.search_coalitions" and nm != VALIDATION
    )
    targets = sum(
        c for (nm, parent), c in summary.by_parent.items()
        if parent is not None and _is_target_loop(parent) and _is_per_target(nm)
    )
    scoring_verdicts = sum(
        c for nm, c in count.items()
        if nm.startswith("detect_scoring.cpmw") or nm.startswith("detect_scoring.cpmsw")
    )
    oracle_replays = replays_by("oracle")
    oracle_seconds = total["oracle.oracle_cpmw"]
    scoring_replays = replays_by("detect_scoring")
    values = {
        "ballotfile.parse_ms": (ms(["ballotfile.parse_election"]), "ms"),
        "core.instance_builds": (count["core.ElectionInstance.__init__"], "count"),
        "core.instance_build_ms": (ms(["core.ElectionInstance.__init__"]), "ms"),
        "ballotfile.report_ms": (ms(["ballotfile.report"]), "ms"),
        "detection.verify_ms": (ms(["detection.verify_verdict"]), "ms"),
        "rules.table_builds": (table_builds, "count"),
        "rules.table_builds_per_query": (table_builds / len(queries), "count/query"),
        "rules.table_ms": (ms(TABLE_BUILDERS), "ms"),
        "core.margin_matrix_calls": (count["core.margin_matrix"], "count"),
        "core.margin_matrix_ms": (ms(["core.margin_matrix"]), "ms"),
        "rules.winner_calls": (count["rules.winner"], "count"),
        "dispatch.targets_tried": (targets, "count"),
        "dispatch.self_ms": (summary.layer_self_ms("dispatch"), "ms"),
        "detection.query_validations": (count[VALIDATION], "count"),
        "oracle.subsets_tried": (subsets, "count"),
        "oracle.subsets_per_query": (subsets / searches if searches else 0.0, "count/query"),
        "detect_scoring.self_ms": (summary.layer_self_ms("detect_scoring"), "ms"),
        "detect_scoring.replays": (scoring_replays, "count"),
        "detect_scoring.replays_per_verdict": (
            scoring_replays / scoring_verdicts if scoring_verdicts else 0.0, "count/verdict"
        ),
        "detect_maximin.self_ms": (summary.layer_self_ms("detect_maximin"), "ms"),
        "detect_maximin.replays": (replays_by("detect_maximin"), "count"),
        "detect_bucklin.self_ms": (summary.layer_self_ms("detect_bucklin"), "ms"),
        "detect_bucklin.replays": (replays_by("detect_bucklin"), "count"),
        "oracle.replays": (oracle_replays, "count"),
        "oracle.replays_per_s": (oracle_replays / oracle_seconds if oracle_seconds else 0.0, "1/s"),
        "oracle.self_ms": (summary.layer_self_ms("oracle"), "ms"),
        "oracle.replay_ms": (
            1000.0 * summary.seconds_under("rules.winner_from_ballots", "oracle."), "ms"
        ),
        "oracle.refusals": (traced.refusals, "count"),
        "trace.traced_queries_per_s": (traced.queries_per_s, "1/s"),
        "trace.untraced_queries_per_s": (untraced.queries_per_s, "1/s"),
        "trace.overhead": (untraced.queries_per_s / traced.queries_per_s - 1.0, "ratio"),
    }
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def _is_per_target(name: str) -> bool:
    """A CPMW or CPMSW decider: one call per target of a CPM or CPMS loop."""
    fn = name.rsplit(".", 1)[-1]
    return "cpmw" in fn or "cpmsw" in fn


def _is_target_loop(name: str) -> bool:
    """A CPM or CPMS decider that tries every alternative winner in turn."""
    fn = name.rsplit(".", 1)[-1]
    return fn.startswith(("cpm_", "decide_cpm", "oracle_cpm")) and not _is_per_target(name)


def sanity_table_builds(workload: Workload, traced: Phase, tracer: Tracer) -> list[str]:
    """A NO single-suspect Borda CPM on `wide` must build 1 + (m-1)(m+1) score tables.

    Counted inside the `dispatch.decide_cpm` span only; the report's own
    current-winner computation is outside it.
    """
    problems = []
    seen = 0
    m = workload.elections["wide"].m if "wide" in workload.elections else 0
    expected = 1 + (m - 1) * (m + 1)
    for i, qi in enumerate(traced.index):
        query = workload.traced[qi]
        if (query.election, query.problem, query.label) != ("wide", "cpm", "borda-single"):
            continue
        if traced.first[qi].answer:
            continue
        builds = tracer.count_within(i, "dispatch.decide_cpm", "rules.positional_scores")
        print(f"sanity: NO Borda single-suspect CPM on wide built {builds} score tables "
              f"(expected {expected} = 1 + {m - 1} x {m + 1})")
        seen += 1
        if builds != expected:
            problems.append(f"sanity: {builds} score-table builds, expected {expected}")
    if workload.name == "audit-large" and not seen:
        problems.append("sanity: no NO Borda single-suspect CPM on wide was traced")
    return problems


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def prepare(pkg, workload: Workload):
    rules = {}
    for query in [*workload.queries, *workload.traced]:
        key = (query.election, query.rule)
        if key not in rules:
            rules[key] = pkg.cli.rule_from_string(query.rule, workload.elections[query.election].m)
    return rules


def report_lines(workload: Workload, phase: Phase, result: Check, failed: int, metrics: dict):
    print(f"workload {workload.name}: {len(phase.index)} queries in {phase.elapsed:.2f} s, "
          f"{len(phase.first)} distinct; one client, closed loop, no extra threads")
    print(f"checked: {result.by_oracle} by the oracle, {result.by_record} by recorded answers, "
          f"{result.by_construction} by construction only, {result.unreferenced} by replay only")
    for message in result.messages:
        print(f"FAILED {message}")
    print(f"failed_share {failed / len(phase.index):.6g}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")


def measure(pkg, workload: Workload, seed: int, seconds: float, folder: Path) -> dict:
    speed = HostSpeed()
    t0 = perf_counter()
    paths = write_files(workload, folder)
    instances, setup_raw, setup_scaled = time_setup(pkg, paths, speed)
    rules = prepare(pkg, workload)
    queries = workload.queries
    reparse = (lambda: parse_all(pkg, paths)) if workload.reparse else None
    t1 = perf_counter()
    phase = run_phase(pkg, queries, instances, rules, seconds=seconds, reparse=reparse,
                      speed=speed)
    rss = peak_rss_mb()
    t2 = perf_counter()
    instances = None
    instances, more_raw, more_scaled = time_setup(pkg, paths, speed)
    result = check(pkg, workload, queries, seed, phase, instances, rules)
    print(f"wall: set-up {t1 - t0:.1f} s, timed {t2 - t1:.1f} s, "
          f"set-up again and checks {perf_counter() - t2:.1f} s")
    failed = failed_samples(phase, result)
    metrics = end_to_end(queries, query_ms(phase, speed),
                         statistics.median(setup_scaled + more_scaled), rss)
    report_lines(workload, phase, result, failed, metrics)
    kernel_ms = sorted(1000.0 * t for t in speed.times)
    print(f"host speed: kernel {kernel_ms[0]:.2f} / {statistics.median(kernel_ms):.2f} / "
          f"{kernel_ms[-1]:.2f} ms (min / median / max of {len(kernel_ms)} runs), "
          f"reference {hostspeed.REFERENCE_MS} ms")
    raw = end_to_end(queries, query_ms(phase, None),
                     statistics.median(setup_raw + more_raw), rss)
    print("as measured, before scaling: " + ", ".join(
        f"{name} {m['value']:.6g}" for name, m in raw.items() if name != "peak_rss_mb"))
    return {"correct": failed == 0, "attempted": len(phase.index), "failed": failed,
            "metrics": metrics}


def measure_traced(pkg, workload: Workload, seed: int, folder: Path) -> dict:
    paths = write_files(workload, folder)
    rules = prepare(pkg, workload)
    queries = workload.traced
    tracer = Tracer()
    tracer.install(pkg)
    try:
        instances = parse_all(pkg, paths)
        traced = run_phase(pkg, queries, instances, rules, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced = run_phase(pkg, queries, instances, rules)
    result = check(pkg, workload, queries, seed, traced, instances, rules)
    summary = tracer.summary()
    problems = sanity_table_builds(workload, traced, tracer)
    failed = failed_samples(traced, result)
    metrics = per_layer(queries, traced, untraced, summary)
    report_lines(workload, traced, result, failed, metrics)
    print("self time by layer (ms):")
    for layer in sorted({name.split(".")[0] for name in summary.count}):
        print(f"  {layer:16s} {summary.layer_self_ms(layer):12.1f}")
    for problem in problems:
        print(problem)
    tracer.dump(OUT / f"trace-{workload.name}-{seed}.json")
    return {"correct": failed == 0 and not problems, "attempted": len(traced.index),
            "failed": failed, "metrics": metrics}


def record(pkg, workload: Workload, seed: int, folder: Path) -> int:
    """Run every query once and store the answers no oracle can afford to check."""
    instances = parse_all(pkg, write_files(workload, folder))
    rules = prepare(pkg, workload)
    queries = workload.traced
    phase = run_phase(pkg, queries, instances, rules)
    result = check(pkg, workload, queries, seed, phase, instances, rules)
    if result.failed_queries:
        print("\n".join(result.messages), file=sys.stderr)
        return 1
    answers = {}
    for qi, outcome in phase.first.items():
        query = queries[qi]
        election = workload.elections[query.election]
        if query.problem != "winner" and (
            verify.oracle_work(query, election.m, election.n) > verify.ORACLE_WORK_LIMIT
        ):
            answers[query.key] = "YES" if outcome.answer else "NO"
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data.setdefault(workload.name, {})[str(seed)] = dict(sorted(answers.items()))
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(answers)} answers for {workload.name} seed {seed}")
    return 0


def run_all(args) -> int:
    """Run every workload, each in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            return child.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric_name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the recorded answers for this seed instead of measuring")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pkg = load_package()
    began = perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    print(f"wall: inputs and plan {perf_counter() - began:.1f} s")
    folder = OUT / "inputs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.record:
            return record(pkg, workload, args.seed, folder)
        if args.trace:
            result = measure_traced(pkg, workload, args.seed, folder)
        else:
            result = measure(pkg, workload, args.seed, args.seconds, folder)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
