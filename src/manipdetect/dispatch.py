"""Routing of detection problems to the cheapest complete procedure: every
routing decision is made here, and each detector assumes the coverage its
docstring states.  A scoring vector whose length is not m raises
`ConfigError` on every route (`rules.positional_scores`), when the query's
context is first read, before any route-specific work.

Polynomial algorithms cover: any scoring rule with one suspect; convex
scoring vectors (Borda, k-approval for k >= 2, veto) and plurality for any
coalition; maximin with one suspect; Bucklin for any coalition.  STV, any
coalition, goes to the elimination-tree search (`detect_stv`) under a round
budget.  Everything else (maximin coalitions; other scoring vectors with
coalitions, as `oracle-fallback`) goes to the exhaustive oracle under a
replay budget.  The verdicts of both exhaustive searches are flagged as
exhaustive.  CPM and CPMS are CPMW and CPMSW tried against every
alternative winner, in tie-break order, by `detection._first_yes`, each on
the query's `for_target` derivation: the same suspects, bound and `force`.
The instance forms of `decide_*` build that query, `force` included.

Bounded searches (CPMSW) are decided greedily for convex vectors and in
closed form for plurality; every other rule hands its query to
`search_coalitions`, which decides one coalition per multiset of ballot
classes by CPMW on the query's `for_coalition` derivation, so every
coalition keeps its `force` and reads the current winner and the
full-profile table from the query's one context.  Every verdict carries
the current winner from its query's context.
"""

from __future__ import annotations

from .core import ElectionInstance
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    _first_yes,
    no_verdict,
    require_bound,
    require_target,
)
from .detect_bucklin import cpmw_bucklin
from .detect_maximin import cpmw_maximin_single
from .detect_scoring import (
    cpmsw_plurality,
    cpmsw_scoring_greedy,
    cpmw_plurality_coalition,
    cpmw_scoring_coalition,
    cpmw_scoring_single,
)
from .detect_stv import cpmw_stv
from .oracle import oracle_cpmw, search_coalitions
from .rules import BUCKLIN, MAXIMIN, SCORING, STV, VotingRule


def decide_cpmw(
    query: DetectionQuery | ElectionInstance,
    rule: VotingRule | None = None,
    suspects=(),
    y: int | None = None,
    *,
    force: bool = False,
) -> DetectionVerdict:
    """Decide a CPMW query by the cheapest complete route; the instance form
    builds `DetectionQuery(instance, rule, suspects, y, force=force)`."""
    if not isinstance(query, DetectionQuery):
        query = DetectionQuery(query, rule, tuple(suspects), y, force=force)
    return _decide_cpmw(query)


def _decide_cpmw(query: DetectionQuery) -> DetectionVerdict:
    rule = query.rule
    if rule.kind == SCORING and len(query.suspects) == 1:
        verdict = cpmw_scoring_single(query)
    elif rule.kind == SCORING and rule.vector.is_convex():
        verdict = cpmw_scoring_coalition(query)
    elif rule.kind == SCORING and rule.vector.is_plurality_like():
        verdict = cpmw_plurality_coalition(query)
    elif rule.kind == SCORING:
        verdict = oracle_cpmw(query)
        verdict.method = "oracle-fallback"
    elif rule.kind == MAXIMIN and len(query.suspects) == 1:
        verdict = cpmw_maximin_single(query)
    elif rule.kind == BUCKLIN:
        verdict = cpmw_bucklin(query)
    elif rule.kind == STV:
        verdict = cpmw_stv(query)
    else:
        verdict = oracle_cpmw(query)
    verdict.current_winner = query.context.winner
    return verdict


def decide_cpm(
    instance: ElectionInstance, rule: VotingRule, suspects, *, force: bool = False
) -> DetectionVerdict:
    query = DetectionQuery(instance, rule, tuple(suspects), force=force)
    return _first_yes(query, lambda y: decide_cpmw(query.for_target(y)), no_verdict("cpm"))


def decide_cpmsw(
    query: DetectionQuery | ElectionInstance,
    rule: VotingRule | None = None,
    y: int | None = None,
    k: int | None = None,
    *,
    force: bool = False,
) -> DetectionVerdict:
    """Decide a CPMSW query; the instance form builds
    `DetectionQuery(instance, rule, (), y, k, force=force)`."""
    if not isinstance(query, DetectionQuery):
        query = DetectionQuery(query, rule, (), y, k, force=force)
    require_bound(query)
    rule = query.rule
    if rule.kind == SCORING and rule.vector.is_convex():
        verdict = cpmsw_scoring_greedy(query)
    elif rule.kind == SCORING and rule.vector.is_plurality_like():
        verdict = cpmsw_plurality(query)
    else:
        require_target(query)
        verdict = search_coalitions(
            query, decide=lambda subset: _decide_cpmw(query.for_coalition(subset))
        )
    verdict.current_winner = query.context.winner
    return verdict


def decide_cpms(
    instance: ElectionInstance, rule: VotingRule, k: int, *, force: bool = False
) -> DetectionVerdict:
    query = DetectionQuery(instance, rule, bound=k, force=force)
    return _first_yes(query, lambda y: decide_cpmsw(query.for_target(y)), no_verdict("cpms"))
