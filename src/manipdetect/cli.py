"""Command-line interface.

Subcommands: winner, cpmw, cpm, cpmsw, cpms, oracle (force exhaustive
decisions), and gen (instance generators).  Every detection command takes
--force, which runs past the search budgets; winner has no budget.  Exit
status: 0 for YES/success, 1 for NO, 2 for any error (including a refused
budget without --force, running out of memory and an internal error).
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
        try:
            k = int(arg)
        except ValueError:
            raise ConfigError(f"rule {text!r} needs a whole number k, as in approval:2") from None
        return VotingRule.scoring(ScoringVector.approval(k, m))
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
    except ValueError:
        raise ConfigError(f"score {text!r} is not a number") from None
    return int(score) if score.denominator == 1 else score


def _read_election(path: str) -> ElectionInstance:
    if path == "-":
        return parse_election(sys.stdin.read())
    with open(path, encoding="utf-8") as handle:
        return parse_election(handle.read())


def voter_indices(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip() != "")


def _report(started: float, **fields) -> Report:
    """The report of one command, timed from `started`."""
    return Report(**fields, elapsed_ms=(time.perf_counter() - started) * 1000.0)


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
    """The report of a verdict, once a YES replays as the question asked."""
    if verdict.answer and not verify_verdict(
        instance, rule, verdict, suspects, bound=bound, actual_winner=target
    ):
        raise ElectionError("internal error: witness failed replay verification")
    names, y = instance.names, verdict.witness_actual_winner
    witness = None
    if verdict.witness is not None:
        witness = [
            {"voter": i, "ballot": ballot_string(names, pref)}
            for i, pref in sorted(verdict.witness.items())
        ]
    return _report(
        started,
        problem=problem,
        rule=rule_spec,
        verdict="YES" if verdict.answer else "NO",
        current_winner=names[verdict.current_winner],
        witness_actual_winner=None if y is None else names[y],
        witness=witness,
        coalition=list(verdict.coalition) if verdict.coalition is not None else None,
        method=verdict.method,
        exhaustive=verdict.exhaustive,
        budget="forced" if forced else "ok",
    )


def _emit(report: Report, as_json: bool) -> None:
    print(report.to_json() if as_json else "\n".join(report.lines()))


# Each detection command's decider, over the election, rule, suspects, target,
# bound and force; an input its parser does not declare is None.  A lambda
# looks its decider up when called, so a test may patch it.
_DECIDERS = {
    "cpmw": lambda e, r, s, y, k, f: decide_cpmw(e, r, s, y, force=f),
    "cpm": lambda e, r, s, y, k, f: decide_cpm(e, r, s, force=f),
    "cpmsw": lambda e, r, s, y, k, f: decide_cpmsw(e, r, y, k, force=f),
    "cpms": lambda e, r, s, y, k, f: decide_cpms(e, r, k, force=f),
    "oracle": lambda e, r, s, y, k, f: (
        oracle_cpm(e, r, s, force=f) if y is None else oracle_cpmw(e, r, s, y, force=f)
    ),
}


def _run_detection(args, started: float) -> int:
    instance = _read_election(args.election)
    rule = rule_from_string(args.rule, instance.m)
    if args.command == "winner":
        name = instance.names[winner(instance, rule)]
        _emit(_report(started, problem="winner", rule=args.rule, verdict="-", winner=name,
                      method="winner-determination"), args.json)
        return 0
    suspects, bound = getattr(args, "suspects", None), getattr(args, "k", None)
    target = getattr(args, "actual_winner", None)
    y = None if target is None else instance.candidate_id(target)
    verdict = _DECIDERS[args.command](instance, rule, suspects, y, bound, args.force)
    _emit(_verdict_report(args.command, args.rule, instance, rule, verdict, suspects, bound, y,
                          started, args.force), args.json)
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
            if pairs.setdefault((ids[a], ids[b]), int(v)) != int(v):
                raise ValidationError(f"margins given for ({a},{b}) disagree")
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
    cover = find_exact_cover(x3c) if args.witness else None
    gadget = x3c_to_stv(x3c)
    inst = gadget.instance
    print(f"# STV detection instance from an exact-cover-by-3-sets input")
    print(f"# suspect voter index: {gadget.suspect}")
    print(f"# reported winner: {inst.names[gadget.reported_winner]}")
    print(f"# target: {inst.names[gadget.target]}")
    if cover is not None:
        ballot = cover_witness_ballot(gadget, cover)
        print(f"# cover witness ballot: {ballot_string(inst.names, ballot)}")
    elif args.witness:
        print("# no exact cover found")
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

    def add_common(p, suspects=False, target=False, target_required=False, bound=False, force=True):
        p.add_argument("election", help="election file path, or - for stdin")
        p.add_argument("--rule", required=True, help=rule_help)
        if suspects:
            p.add_argument("--suspects", required=True, type=voter_indices,
                           help="comma-separated 0-based voter indices")
        if target:
            p.add_argument("--actual-winner", required=target_required, default=None,
                           help="candidate name hypothesized as the truthful winner")
        if bound:
            p.add_argument("-k", type=int, required=True, help="maximum coalition size")
        if force:  # winner determination has no budget
            p.add_argument("--force", action="store_true", help="run past the search budget")
        p.add_argument("--json", action="store_true", help="print a JSON report")

    add_common(sub.add_parser("winner", help="determine the winner"), force=False)
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
        return _run_detection(args, started)
    except BudgetExceededError as exc:
        print(f"error: {exc} (use --force to run anyway)", file=sys.stderr)
        if args.json:
            _emit(_report(started, problem=args.command, rule=args.rule, verdict="-",
                          budget="exceeded", cost=exc.cost, limit=exc.budget), True)
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
