"""Command-line interface.

Subcommands: winner, cpmw, cpm, cpmsw, cpms, oracle (force exhaustive
decisions), and gen (instance generators).  Exit status: 0 for YES/success,
1 for NO, 2 for any error (including a refused budget without --force,
running out of memory and an internal error).
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from fractions import Fraction

from .ballotfile import _NAME_RE, Report, ballot_string, parse_election, render_election
from .core import ElectionInstance
from .detection import DetectionVerdict, verify_verdict
from .dispatch import decide_cpm, decide_cpms, decide_cpmsw, decide_cpmw
from .errors import BudgetExceededError, ConfigError, ElectionError, RosterError, ValidationError
from .generators import (
    MarginFunction,
    X3CInstance,
    cover_witness_ballot,
    find_exact_cover,
    mcgarvey_ballots,
    random_profile,
    x3c_to_stv,
)
from .oracle import oracle_cpm, oracle_cpmw
from .rules import ScoringVector, VotingRule, winner


def rule_from_string(text: str, m: int) -> VotingRule:
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "borda":
        return VotingRule.scoring(ScoringVector.borda(m))
    if name == "plurality":
        return VotingRule.scoring(ScoringVector.plurality(m))
    if name == "veto":
        return VotingRule.scoring(ScoringVector.veto(m))
    if name == "approval":
        return VotingRule.scoring(ScoringVector.approval(int(arg), m))
    if name == "scoring":
        return VotingRule.scoring(ScoringVector([_score(part.strip()) for part in arg.split(",")]))
    if name == "maximin":
        return VotingRule.maximin()
    if name == "bucklin":
        return VotingRule.bucklin()
    if name == "stv":
        return VotingRule.stv()
    raise ElectionError(f"unknown rule {text!r}")


def _score(text: str) -> int | Fraction:
    """One `scoring:` entry: an integer, a decimal or a fraction like 1/2."""
    if "e" in text.lower():  # refused before `Fraction` expands it, in unbounded time
        raise ConfigError(f"score {text!r} has an exponent; write it out")
    try:
        score = Fraction(text)
    except ZeroDivisionError:
        raise ConfigError(f"score {text!r} has a zero denominator") from None
    return int(score) if score.denominator == 1 else score


def _read_election(path: str) -> ElectionInstance:
    if path == "-":
        return parse_election(sys.stdin.read())
    with open(path, encoding="utf-8") as handle:
        return parse_election(handle.read())


def _parse_suspects(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip() != "")


def _verdict_report(
    problem: str,
    rule_spec: str,
    instance: ElectionInstance,
    rule: VotingRule,
    verdict: DetectionVerdict,
    suspects: tuple[int, ...] | None,
    bound: int | None,
    target: int | None,
    started: float,
    forced: bool,
) -> Report:
    if verdict.answer and not verify_verdict(
        instance, rule, verdict, suspects, bound=bound, actual_winner=target
    ):
        raise ElectionError("internal error: witness failed replay verification")
    names = instance.names
    witness = None
    if verdict.witness is not None:
        witness = [
            {"voter": i, "ballot": ballot_string(names, pref)}
            for i, pref in sorted(verdict.witness.items())
        ]
    return Report(
        problem=problem,
        rule=rule_spec,
        verdict="YES" if verdict.answer else "NO",
        current_winner=names[verdict.current_winner],
        witness_actual_winner=(
            names[verdict.witness_actual_winner]
            if verdict.witness_actual_winner is not None
            else None
        ),
        witness=witness,
        coalition=list(verdict.coalition) if verdict.coalition is not None else None,
        method=verdict.method,
        exhaustive=verdict.exhaustive,
        budget="forced" if forced else "ok",
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _emit(report: Report, as_json: bool) -> None:
    if as_json:
        print(report.to_json())
    else:
        print("\n".join(report.lines()))


def _run_detection(args) -> int:
    started = time.perf_counter()
    instance = _read_election(args.election)
    rule = rule_from_string(args.rule, instance.m)
    problem = args.command
    if problem == "winner":
        w = winner(instance, rule)
        report = Report(
            problem="winner",
            rule=args.rule,
            verdict="-",
            winner=instance.names[w],
            method="winner-determination",
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )
        _emit(report, args.json)
        return 0

    force = args.force
    suspects = _parse_suspects(args.suspects) if problem in ("cpmw", "cpm", "oracle") else None
    bound = args.k if problem in ("cpmsw", "cpms") else None
    y = None
    if problem in ("cpmw", "cpmsw", "oracle") and args.actual_winner is not None:
        y = instance.candidate_id(args.actual_winner)
    if problem == "cpmw":
        verdict = decide_cpmw(instance, rule, suspects, y, force=force)
    elif problem == "cpm":
        verdict = decide_cpm(instance, rule, suspects, force=force)
    elif problem == "cpmsw":
        verdict = decide_cpmsw(instance, rule, y, bound, force=force)
    elif problem == "cpms":
        verdict = decide_cpms(instance, rule, bound, force=force)
    elif y is not None:  # oracle, winner given
        verdict = oracle_cpmw(instance, rule, suspects, y, force=force)
    else:
        verdict = oracle_cpm(instance, rule, suspects, force=force)
    report = _verdict_report(
        problem, args.rule, instance, rule, verdict, suspects, bound, y, started, force
    )
    _emit(report, args.json)
    return 0 if verdict.answer else 1


def _run_gen(args) -> int:
    if args.kind == "random":
        instance = random_profile(args.m, args.n, args.seed)
        print(f"# random profile: m={args.m} n={args.n} seed={args.seed}")
        print(render_election(instance), end="")
        return 0
    if args.kind == "mcgarvey":
        names = [part.strip() for part in args.candidates.split(",")]
        if not all(map(_NAME_RE.match, names)):  # as in an election file
            raise ValidationError(f"invalid candidate name in {args.candidates!r}")
        ids = {name: i for i, name in enumerate(names)}
        pairs = {}
        for margin_arg in args.margin or []:
            a, b, v = (part.strip() for part in margin_arg.split(","))
            if not {a, b} <= ids.keys():
                raise RosterError(f"unknown candidate in --margin {margin_arg!r}")
            pairs[(ids[a], ids[b])] = int(v)
        ballots = mcgarvey_ballots(MarginFunction.from_pairs(len(names), pairs))
        print(f"# margin-realizing profile: {len(ballots)} ballots")
        if not ballots:
            print("# all-zero margin target: no ballots (not usable as an election)")
            print("candidates: " + ",".join(names))
            return 0
        print(render_election(ElectionInstance(names, ballots)), end="")
        return 0
    # x3c
    triples = [tuple(int(part) for part in arg.split(",")) for arg in args.triple]
    x3c = X3CInstance(args.universe, triples)
    gadget = x3c_to_stv(x3c)
    inst = gadget.instance
    print(f"# STV detection instance from an exact-cover-by-3-sets input")
    print(f"# suspect voter index: {gadget.suspect}")
    print(f"# reported winner: {inst.names[gadget.reported_winner]}")
    print(f"# target: {inst.names[gadget.target]}")
    if args.witness:
        cover = find_exact_cover(x3c)
        if cover is None:
            print("# no exact cover found")
        else:
            ballot = cover_witness_ballot(gadget, cover)
            print(f"# cover witness ballot: {ballot_string(inst.names, ballot)}")
    print(render_election(inst), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manipdetect",
        description="Election winners and possible-manipulator coalition detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rule_help = (
        "borda | plurality | veto | approval:<k> | scoring:<v1,v2,...> | "
        "maximin | bucklin | stv"
    )

    def add_common(p, suspects=False, target=False, target_required=False, bound=False):
        p.add_argument("election", help="election file path, or - for stdin")
        p.add_argument("--rule", required=True, help=rule_help)
        if suspects:
            p.add_argument("--suspects", required=True, help="comma-separated 0-based voter indices")
        if target:
            p.add_argument("--actual-winner", required=target_required, default=None,
                           help="candidate name hypothesized as the truthful winner")
        if bound:
            p.add_argument("-k", type=int, required=True, help="maximum coalition size")
        p.add_argument("--force", action="store_true", help="run past the search budget")
        p.add_argument("--json", action="store_true", help="print a JSON report")

    add_common(sub.add_parser("winner", help="determine the winner"))
    add_common(sub.add_parser("cpmw", help="coalition of possible manipulators, winner given"),
               suspects=True, target=True, target_required=True)
    add_common(sub.add_parser("cpm", help="coalition of possible manipulators"), suspects=True)
    add_common(sub.add_parser("cpmsw", help="search coalitions up to size k, winner given"),
               target=True, target_required=True, bound=True)
    add_common(sub.add_parser("cpms", help="search coalitions up to size k"), bound=True)
    add_common(sub.add_parser("oracle", help="force the exhaustive oracle"),
               suspects=True, target=True)

    gen = sub.add_parser("gen", help="generate election instances")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_random = gen_sub.add_parser("random", help="uniform random ballots")
    g_random.add_argument("--m", type=int, required=True)
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--seed", type=int, default=0)
    g_mcg = gen_sub.add_parser("mcgarvey", help="profile realizing prescribed margins")
    g_mcg.add_argument("--candidates", required=True, help="comma-separated names")
    g_mcg.add_argument("--margin", action="append", default=[],
                       help="a,b,<even margin of a over b>; repeatable")
    g_x3c = gen_sub.add_parser("x3c", help="hard STV instance from a 3-cover input")
    g_x3c.add_argument("--universe", type=int, required=True, help="universe size (multiple of 3)")
    g_x3c.add_argument("--triple", action="append", required=True,
                       help="i,j,k subset of the universe; repeatable")
    g_x3c.add_argument("--witness", action="store_true",
                       help="search for an exact cover and print its witness ballot")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "gen":
            return _run_gen(args)
        return _run_detection(args)
    except BudgetExceededError as exc:
        print(f"error: {exc} (use --force to run anyway)", file=sys.stderr)
        if args.json:
            report = Report(
                problem=args.command,
                rule=args.rule,
                verdict="-",
                budget="exceeded",
                cost=exc.cost,
                limit=exc.budget,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
            )
            _emit(report, True)
        return 2
    except (ElectionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means NO, so a bug must not end with Python's default status
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
