"""Shared detection types: queries, verdicts, and witness verification.

A coalition of suspects M is a coalition of possible manipulators against a
candidate y when there is an assignment of one preference per suspect, each
ranking the current winner x above y, whose substitution into the profile
makes y the winner.  A YES verdict always carries such a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import ElectionInstance, Preference
from .errors import InvalidQueryError, RosterError, ValidationError
from .rules import VotingRule, tally_without, winner_and_tally, winner_from_ballots


@dataclass(frozen=True)
class DetectionQuery:
    """One detection problem instance.

    `suspects` is the coalition M (used by CPM/CPMW); `actual_winner` is the
    hypothesized truthful winner y (present for CPMW/CPMSW); `bound` is the
    maximum coalition size k (used by CPMS/CPMSW).
    """

    instance: ElectionInstance
    rule: VotingRule
    suspects: tuple[int, ...] = ()
    actual_winner: int | None = None
    bound: int | None = None

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


@dataclass
class DetectionVerdict:
    """Outcome of a detection query.

    On YES, `witness` maps each coalition member to the actual preference the
    search found, and replaying those ballots yields `witness_actual_winner`.
    `method` names the decision procedure that produced the verdict;
    `exhaustive` marks brute-force (oracle) paths.
    """

    answer: bool
    witness: dict[int, Preference] | None = None
    witness_actual_winner: int | None = None
    method: str = ""
    coalition: tuple[int, ...] | None = None
    exhaustive: bool = False

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


def require_target(query: DetectionQuery, x: int) -> int:
    """The query's actual-winner candidate, validated against the current winner x."""
    y = query.actual_winner
    if y is None:
        raise InvalidQueryError("this query needs an actual-winner candidate")
    if y == x:
        raise InvalidQueryError(
            f"actual winner {query.instance.names[y]!r} is already the current winner"
        )
    return y


def replay(instance: ElectionInstance, witness: Mapping[int, Preference]) -> ElectionInstance:
    """The election as it would have been with the witness ballots cast."""
    return instance.with_ballots_replaced(witness)


def verify_verdict(
    instance: ElectionInstance,
    rule: VotingRule,
    verdict: DetectionVerdict,
    suspects: tuple[int, ...] | None = None,
) -> bool:
    """Check a YES verdict end to end.

    The witness must cover exactly the reported coalition (a subset of the
    given suspects, when provided), every witness ballot must rank the current
    winner above the claimed actual winner, and replaying the witness must
    elect the claimed actual winner.  NO verdicts verify trivially.

    The full-profile table is built once: the current winner is read from it,
    and the witness is replayed on top of it minus the table of the witness
    voters' old ballots.
    """
    if not verdict.answer:
        return True
    if verdict.witness is None or verdict.witness_actual_winner is None:
        return False
    if verdict.coalition is not None and set(verdict.witness) != set(verdict.coalition):
        return False
    if suspects is not None and not set(verdict.witness) <= set(suspects):
        return False
    x, full = winner_and_tally(instance, rule)
    y = verdict.witness_actual_winner
    if y == x:
        return False
    witness = verdict.witness
    for pref in witness.values():
        if not pref.prefers(x, y):
            return False
    rest = tally_without(instance, rule, full, witness)
    m = instance.m
    ballots = [(pref, 1) for pref in witness.values()]
    for pref, _ in ballots:
        if pref.m != m:
            raise ValidationError(f"ballot {pref.ranking!r} does not cover the {m}-candidate roster")
    return winner_from_ballots(m, ballots, instance.tiebreak, rule, base=rest) == y
