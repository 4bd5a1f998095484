"""Routing of detection problems to the cheapest complete procedure.

Polynomial algorithms cover: any scoring rule with one suspect; convex
scoring vectors (Borda, k-approval for k >= 2, veto) and plurality for any
coalition; maximin with one suspect; Bucklin for any coalition.  Everything
else (STV, maximin coalitions, irregular scoring vectors with coalitions)
goes to the exhaustive oracle under a replay budget, and the verdict is
flagged as exhaustive.  CPM and CPMS are CPMW and CPMSW tried against every
alternative winner, in tie-break order, by one loop.

Bounded searches (CPMSW) are decided greedily for convex vectors and in
closed form for plurality; every other rule searches one coalition per
multiset of ballot classes (`search_coalitions`), each decided by CPMW.
"""

from __future__ import annotations

from typing import Callable

from .core import ElectionInstance
from .detection import DetectionQuery, DetectionVerdict, no_verdict, require_target
from .detect_bucklin import cpmw_bucklin
from .detect_maximin import cpmw_maximin_single
from .detect_scoring import (
    cpmsw_plurality,
    cpmsw_scoring_greedy,
    cpmw_scoring_coalition,
    cpmw_scoring_single,
)
from .oracle import (
    DEFAULT_REPLAY_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    oracle_cpmw,
    search_coalitions,
)
from .rules import BUCKLIN, MAXIMIN, SCORING, VotingRule, winner


def _first_yes(
    instance: ElectionInstance,
    rule: VotingRule,
    problem: str,
    decide: Callable[[int], DetectionVerdict],
) -> DetectionVerdict:
    """The first YES of `decide(y)` over every alternative winner y, in tie-break order.

    Without a YES, the last NO, so the verdict names the route that decided
    it; `no_verdict(problem)` when the roster leaves no alternative winner.
    """
    if instance.m == 1:
        return no_verdict(problem)
    x = winner(instance, rule)
    for y in instance.tiebreak.ranking:
        if y == x:
            continue
        verdict = decide(y)
        if verdict.answer:
            return verdict
    return verdict


def decide_cpmw(
    instance: ElectionInstance,
    rule: VotingRule,
    suspects,
    y: int,
    *,
    budget: int = DEFAULT_REPLAY_BUDGET,
    force: bool = False,
) -> DetectionVerdict:
    query = DetectionQuery(instance, rule, tuple(suspects), actual_winner=y)
    if rule.kind == SCORING:
        if len(query.suspects) == 1:
            return cpmw_scoring_single(query)
        return cpmw_scoring_coalition(query, budget=budget, force=force)
    if rule.kind == MAXIMIN:
        if len(query.suspects) == 1:
            return cpmw_maximin_single(query)
        return oracle_cpmw(instance, rule, query.suspects, y, budget=budget, force=force)
    if rule.kind == BUCKLIN:
        return cpmw_bucklin(query)
    return oracle_cpmw(instance, rule, query.suspects, y, budget=budget, force=force)


def decide_cpm(
    instance: ElectionInstance,
    rule: VotingRule,
    suspects,
    *,
    budget: int = DEFAULT_REPLAY_BUDGET,
    force: bool = False,
) -> DetectionVerdict:
    query = DetectionQuery(instance, rule, tuple(suspects))
    return _first_yes(
        instance,
        rule,
        "cpm",
        lambda y: decide_cpmw(instance, rule, query.suspects, y, budget=budget, force=force),
    )


def decide_cpmsw(
    instance: ElectionInstance,
    rule: VotingRule,
    y: int,
    k: int,
    *,
    budget: int = DEFAULT_REPLAY_BUDGET,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    force: bool = False,
) -> DetectionVerdict:
    query = DetectionQuery(instance, rule, (), actual_winner=y, bound=k)
    if rule.kind == SCORING and rule.vector.is_convex():
        return cpmsw_scoring_greedy(query)  # validates y against its own score table
    if rule.kind == SCORING and rule.vector.is_plurality_like():
        return cpmsw_plurality(query)  # likewise
    require_target(query, winner(instance, rule))
    return search_coalitions(
        instance,
        rule,
        k,
        y,
        decide=lambda subset: decide_cpmw(
            instance, rule, subset, y, budget=budget, force=force
        ),
        subset_budget=subset_budget,
        force=force,
    )


def decide_cpms(
    instance: ElectionInstance,
    rule: VotingRule,
    k: int,
    *,
    budget: int = DEFAULT_REPLAY_BUDGET,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    force: bool = False,
) -> DetectionVerdict:
    return _first_yes(
        instance,
        rule,
        "cpms",
        lambda y: decide_cpmsw(
            instance, rule, y, k, budget=budget, subset_budget=subset_budget, force=force
        ),
    )
