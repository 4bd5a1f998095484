"""Shared detection types: queries, their per-target context, verdicts, the
loop over alternative winners, and witness verification.

A `DetectionQuery` is one question, with its options and checks: the
suspects or the bound k, the target, and `force`.  It validates them when
built; `require_target` and `require_bound` check what a procedure needs
of them.  Its `TargetContext`, built on the query's first read of it,
holds what the queries about one target share.

A coalition of suspects M is a coalition of possible manipulators against a
candidate y when there is an assignment of one preference per suspect, each
ranking the current winner x above y, whose substitution into the profile
makes y the winner.  A YES verdict always carries such a witness, and one
replay checks every witness, `DetectionQuery.confirm`: a detector's own
query before it reports the witness, and `verify_verdict`'s after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

from .core import ElectionInstance, Preference
from .errors import BudgetExceededError, InvalidQueryError, RosterError, ValidationError
from .rules import VotingRule, tally, tally_without, winner_from_ballots, winner_from_tally


class TargetContext:
    """What the queries about one election, rule and target share.

    Built once per query, on its first read of `DetectionQuery.context`: the
    current winner and the `rules.tally` table of the whole profile it was
    read from; the tie-break ranks live on the instance
    (`ElectionInstance.tb_rank`).  `admissible` is left to the oracle: the
    rankings that place the current winner above the target, with the
    one-ballot table of each.  `first_choices` is left to the STV search:
    the whole profile's first-choice counts per alive-candidate bitmask.
    Queries derived by `DetectionQuery.for_coalition` share their parent's
    context, so a coalition search builds the full table, the admissible
    ballots and the counts of each alive set once.
    """

    def __init__(self, instance: ElectionInstance, rule: VotingRule):
        self.full = tally(instance.m, instance.classes, rule)
        self.winner = winner_from_tally(instance.m, self.full, instance.tb_rank, rule)
        self.admissible = None
        self.first_choices: dict[int, list[int]] = {}


@dataclass(frozen=True)
class DetectionQuery:
    """One detection problem instance, and everything its decision reads.

    `suspects` is the coalition M (used by CPM/CPMW); `actual_winner` is the
    hypothesized truthful winner y (present for CPMW/CPMSW); `bound` is the
    maximum coalition size k (used by CPMS/CPMSW).  Every search refuses
    to run past its budget by `within`, unless `force` is set; the queries
    derived from this one keep it.  `context` holds what every query about
    the same target shares, and `rest` is the `rules.tally` table of every
    voter but the suspects; each is built on first read.  `confirm`
    replays a witness on `rest`.
    """

    instance: ElectionInstance
    rule: VotingRule
    suspects: tuple[int, ...] = ()
    actual_winner: int | None = None
    bound: int | None = None
    force: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        n = self.instance.n
        seen = set()
        for i in self.suspects:
            if not 0 <= i < n:
                raise RosterError(f"suspect index {i} outside 0..{n - 1}")
            if i in seen:
                raise InvalidQueryError(f"duplicate suspect index {i}")
            seen.add(i)
        object.__setattr__(self, "suspects", tuple(sorted(self.suspects)))
        if self.actual_winner is not None and not 0 <= self.actual_winner < self.instance.m:
            raise RosterError(f"actual winner id {self.actual_winner} outside roster")
        if self.bound is not None and self.bound < 0:
            raise InvalidQueryError("coalition bound must be >= 0")

    def for_coalition(self, suspects: tuple[int, ...]) -> "DetectionQuery":
        """The same target and `force` with `suspects` as the coalition; its
        context is this query's, so it never builds its own."""
        query = DetectionQuery(
            self.instance, self.rule, suspects, self.actual_winner, force=self.force
        )
        object.__setattr__(query, "context", self.context)
        return query

    def for_target(self, y: int) -> "DetectionQuery":
        """The same suspects, bound and `force` against target y, with its own context."""
        return DetectionQuery(
            self.instance, self.rule, self.suspects, y, self.bound, force=self.force
        )

    def within(self, cost: int, budget: int, search: str, unit: str) -> None:
        """Refuse a search that needs `cost` units of work past its budget,
        unless the query has `force` set; the error carries both."""
        if cost > budget and not self.force:
            message = f"{search} needs at least {cost} {unit}, budget is {budget}"
            raise BudgetExceededError(message, cost, budget)

    @cached_property
    def context(self) -> TargetContext:
        return TargetContext(self.instance, self.rule)

    @cached_property
    def rest(self):
        return tally_without(self.instance, self.rule, self.context.full, self.suspects)

    def confirm(self, witness: Mapping[int, Preference], method: str, exhaustive=False):
        """The YES verdict of `witness` if casting its ballots for the
        suspects elects the target, else None.  The one replay behind every
        YES: the witness ballots' table added to `rest`."""
        inst, y = self.instance, self.actual_winner
        ballots = [(pref, 1) for pref in witness.values()]
        if winner_from_ballots(inst.m, ballots, inst.tb_rank, self.rule, base=self.rest) == y:
            return yes_verdict(witness, y, method, exhaustive)
        return None


@dataclass
class DetectionVerdict:
    """Outcome of a detection query.

    On YES, `witness` maps each coalition member to the actual preference the
    search found, and replaying those ballots yields `witness_actual_winner`.
    `method` names the decision procedure that produced the verdict;
    `exhaustive` marks brute-force (oracle) paths.  `current_winner` is the
    winner of the election as cast, read from the query's context; it
    describes the election, not the decision, so equality ignores it.
    """

    answer: bool
    witness: dict[int, Preference] | None = None
    witness_actual_winner: int | None = None
    method: str = ""
    coalition: tuple[int, ...] | None = None
    exhaustive: bool = False
    current_winner: int | None = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.answer


def no_verdict(method: str, exhaustive: bool = False) -> DetectionVerdict:
    return DetectionVerdict(False, method=method, exhaustive=exhaustive)


def yes_verdict(
    witness: Mapping[int, Preference],
    actual_winner: int,
    method: str,
    exhaustive: bool = False,
) -> DetectionVerdict:
    w = dict(witness)
    return DetectionVerdict(
        True,
        witness=w,
        witness_actual_winner=actual_winner,
        method=method,
        coalition=tuple(sorted(w)),
        exhaustive=exhaustive,
    )


def require_target(query: DetectionQuery) -> tuple[int, int]:
    """The current winner x and the query's actual-winner candidate y, validated against x."""
    y = query.actual_winner
    if y is None:
        raise InvalidQueryError("this query needs an actual-winner candidate")
    x = query.context.winner
    if y == x:
        raise InvalidQueryError(
            f"actual winner {query.instance.names[y]!r} is already the current winner"
        )
    return x, y


def require_bound(query: DetectionQuery) -> int:
    """The query's coalition bound k, which a bounded search needs."""
    if query.bound is None:
        raise InvalidQueryError("bounded search needs a coalition bound")
    return query.bound


def _first_yes(
    query: DetectionQuery,
    decide: Callable[[int], DetectionVerdict],
    no_target: DetectionVerdict,
) -> DetectionVerdict:
    """The first YES of `decide(y)` over every alternative winner y, in
    tie-break order: the package's one loop over alternative winners, behind
    CPM, CPMS, `oracle_cpm` and the untargeted `oracle.search_coalitions`.

    Without a YES, the last NO, so the verdict names the route that decided
    it; `no_target` when the roster leaves no alternative winner, its only
    candidate being the current winner.  Each `decide(y)` asks about its own
    target, on its own query and context (`DetectionQuery.for_target`).
    """
    if query.instance.m == 1:
        no_target.current_winner = 0
        return no_target
    x = query.context.winner
    for y in query.instance.tiebreak.ranking:
        if y == x:
            continue
        verdict = decide(y)
        if verdict.answer:
            return verdict
    return verdict


def verify_verdict(
    instance: ElectionInstance,
    rule: VotingRule,
    verdict: DetectionVerdict,
    suspects: tuple[int, ...] | None = None,
    *,
    bound: int | None = None,
    actual_winner: int | None = None,
) -> bool:
    """Check a YES verdict end to end.

    The witness must cover exactly the reported coalition (a subset of the
    given suspects, and of at most `bound` voters, when provided), its
    claimed actual winner must be the asked `actual_winner`, when provided,
    every witness ballot must rank the current winner above the claimed
    actual winner, and replaying the witness must elect the claimed actual
    winner.  NO verdicts verify trivially.  A witness ballot that does not
    rank exactly the roster raises `ValidationError`.

    The witness is replayed as a detector replays it: by `confirm` on a
    query whose suspects are the witness voters, so the full-profile table
    is built once, by the query's context, and the current winner is read
    from it.
    """
    if not verdict.answer:
        return True
    if verdict.witness is None or verdict.witness_actual_winner is None:
        return False
    if verdict.coalition is not None and set(verdict.witness) != set(verdict.coalition):
        return False
    if suspects is not None and not set(verdict.witness) <= set(suspects):
        return False
    if bound is not None and len(verdict.witness) > bound:
        return False
    if actual_winner is not None and verdict.witness_actual_winner != actual_winner:
        return False
    witness, y, m = verdict.witness, verdict.witness_actual_winner, instance.m
    query = DetectionQuery(instance, rule, tuple(witness), y)
    x = query.context.winner
    if y == x:
        return False
    for pref in witness.values():
        if pref.m != m:
            raise ValidationError(f"ballot {pref.ranking!r} does not cover the {m}-candidate roster")
        if not pref.prefers(x, y):
            return False
    return query.confirm(witness, verdict.method) is not None
