"""Routing of detection problems to the cheapest complete procedure.

Polynomial algorithms cover: any scoring rule with one suspect; convex
scoring vectors (Borda, k-approval for k >= 2, veto) and plurality for any
coalition; maximin with one suspect; Bucklin for any coalition.  STV, any
coalition, goes to the elimination-tree search (`detect_stv`) under a round
budget.  Everything else (maximin coalitions, irregular scoring vectors
with coalitions) goes to the exhaustive oracle under a replay budget.  The
verdicts of both exhaustive searches are flagged as exhaustive.  CPM and
CPMS are CPMW and CPMSW tried against every alternative winner, in
tie-break order, by `detection._first_yes`.

Bounded searches (CPMSW) are decided greedily for convex vectors and in
closed form for plurality; every other rule searches one coalition per
multiset of ballot classes (`search_coalitions`), each decided by CPMW on a
query derived from the search's own, so every coalition reads the current
winner and the full-profile table from one shared context.  Every verdict
carries the current winner from its query's context.
"""

from __future__ import annotations

from .core import ElectionInstance
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    _first_yes,
    no_verdict,
    require_target,
)
from .detect_bucklin import cpmw_bucklin
from .detect_maximin import cpmw_maximin_single
from .detect_scoring import (
    cpmsw_plurality,
    cpmsw_scoring_greedy,
    cpmw_scoring_coalition,
    cpmw_scoring_single,
)
from .detect_stv import cpmw_stv
from .oracle import (
    DEFAULT_REPLAY_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    oracle_cpmw,
    search_coalitions,
)
from .rules import BUCKLIN, MAXIMIN, SCORING, STV, VotingRule


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
    return _decide_cpmw(query, budget, force)


def _decide_cpmw(query: DetectionQuery, budget: int, force: bool) -> DetectionVerdict:
    rule = query.rule
    if rule.kind == SCORING:
        if len(query.suspects) == 1:
            verdict = cpmw_scoring_single(query)
        else:
            verdict = cpmw_scoring_coalition(query, budget=budget, force=force)
    elif rule.kind == MAXIMIN and len(query.suspects) == 1:
        verdict = cpmw_maximin_single(query)
    elif rule.kind == BUCKLIN:
        verdict = cpmw_bucklin(query)
    elif rule.kind == STV:
        verdict = cpmw_stv(query, budget=budget, force=force)
    else:
        verdict = oracle_cpmw(query, budget=budget, force=force)
    verdict.current_winner = query.context.winner
    return verdict


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
        query,
        lambda y: decide_cpmw(instance, rule, query.suspects, y, budget=budget, force=force),
        no_verdict("cpm"),
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
        verdict = cpmsw_scoring_greedy(query)
    elif rule.kind == SCORING and rule.vector.is_plurality_like():
        verdict = cpmsw_plurality(query)
    else:
        require_target(query)
        verdict = search_coalitions(
            instance,
            rule,
            k,
            y,
            decide=lambda subset: _decide_cpmw(query.for_coalition(subset), budget, force),
            subset_budget=subset_budget,
            force=force,
        )
    verdict.current_winner = query.context.winner
    return verdict


def decide_cpms(
    instance: ElectionInstance,
    rule: VotingRule,
    k: int,
    *,
    budget: int = DEFAULT_REPLAY_BUDGET,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    force: bool = False,
) -> DetectionVerdict:
    query = DetectionQuery(instance, rule)
    return _first_yes(
        query,
        lambda y: decide_cpmsw(
            instance, rule, y, k, budget=budget, subset_budget=subset_budget, force=force
        ),
        no_verdict("cpms"),
    )
