"""Brute-force decision procedures.

These enumerate the definition directly: every admissible preference per
suspect (all m!/2 rankings placing the current winner above the target), every
combination across the coalition.  They are the reference oracle for the
polynomial algorithms and the solver of last resort for the NP-hard cases
(STV, maximin coalitions).  Searches refuse to start past a replay budget
rather than run open-endedly.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from .core import ElectionInstance, Preference
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    no_verdict,
    require_target,
    yes_verdict,
)
from .errors import BudgetExceededError, InvalidQueryError
from .rules import VotingRule, tally, winner, winner_from_ballots

DEFAULT_REPLAY_BUDGET = 10_000_000
DEFAULT_SUBSET_BUDGET = 1_000_000

ORACLE = "oracle"


def admissible_preferences(m: int, x: int, y: int) -> list[Preference]:
    """All rankings of 0..m-1 that place x above y, in lexicographic order."""
    prefs = []
    for perm in permutations(range(m)):
        if perm.index(x) < perm.index(y):
            prefs.append(Preference(perm))
    return prefs


def oracle_cpmw(
    instance: ElectionInstance,
    rule: VotingRule,
    suspects: Sequence[int],
    y: int,
    *,
    budget: int = DEFAULT_REPLAY_BUDGET,
    force: bool = False,
) -> DetectionVerdict:
    """Decide by exhaustion whether `suspects` can be possible manipulators against y.

    The witness reported on YES is the lexicographically first admissible
    ballot combination (suspects in index order, ballots as id sequences).
    """
    query = DetectionQuery(instance, rule, tuple(suspects), actual_winner=y)
    suspects = query.suspects
    m = instance.m
    x = winner(instance, rule)
    require_target(query, x)

    half = factorial(m) // 2
    cost = half ** len(suspects)
    if cost > budget and not force:
        raise BudgetExceededError(
            f"exhaustive search needs {cost} replays, budget is {budget}", cost, budget
        )

    slots = [(pref, 1) for pref in admissible_preferences(m, x, y)]
    external = tally(m, instance.ballots_excluding(suspects), rule)
    tiebreak = instance.tiebreak
    for combo in product(slots, repeat=len(suspects)):
        if winner_from_ballots(m, combo, tiebreak, rule, base=external) == y:
            witness = {i: pref for i, (pref, _) in zip(suspects, combo)}
            return yes_verdict(witness, y, ORACLE, exhaustive=True)
    return no_verdict(ORACLE, exhaustive=True)


def oracle_cpm(
    instance: ElectionInstance,
    rule: VotingRule,
    suspects: Sequence[int],
    *,
    budget: int = DEFAULT_REPLAY_BUDGET,
    force: bool = False,
) -> DetectionVerdict:
    """Disjunction of oracle_cpmw over every alternative winner, in tie-break order."""
    suspects = DetectionQuery(instance, rule, tuple(suspects)).suspects
    if instance.m == 1:
        return no_verdict(ORACLE, exhaustive=True)
    x = winner(instance, rule)
    for y in instance.tiebreak.ranking:
        if y == x:
            continue
        verdict = oracle_cpmw(instance, rule, suspects, y, budget=budget, force=force)
        if verdict.answer:
            return verdict
    return no_verdict(ORACLE, exhaustive=True)


Decider = Callable[[tuple[int, ...]], DetectionVerdict]


def _subsets_up_to(n: int, k: int) -> Iterable[tuple[int, ...]]:
    for size in range(1, min(k, n) + 1):
        yield from combinations(range(n), size)


def _subset_count(n: int, k: int) -> int:
    return sum(comb(n, size) for size in range(1, min(k, n) + 1))


def _check_search(n: int, k: int, subset_budget: int, force: bool) -> None:
    if k < 0:
        raise InvalidQueryError("coalition bound must be >= 0")
    count = _subset_count(n, k)
    if count > subset_budget and not force:
        raise BudgetExceededError(
            f"search would enumerate {count} coalitions, budget is {subset_budget}",
            count,
            subset_budget,
        )


def _default_decider(
    instance: ElectionInstance,
    rule: VotingRule,
    y: int | None,
    budget: int,
    force: bool,
) -> Decider:
    if y is None:
        return lambda subset: oracle_cpm(instance, rule, subset, budget=budget, force=force)
    return lambda subset: oracle_cpmw(instance, rule, subset, y, budget=budget, force=force)


def search_coalitions(
    instance: ElectionInstance,
    rule: VotingRule,
    k: int,
    y: int | None = None,
    *,
    decide: Decider | None = None,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    budget: int = DEFAULT_REPLAY_BUDGET,
    force: bool = False,
    skip: Callable[[tuple[int, ...]], bool] | None = None,
) -> DetectionVerdict:
    """Is there any coalition of size <= k of possible manipulators (against y, if given)?

    Subsets are tried in size-then-index order; the first hit wins.  Each
    subset is decided by `decide` when supplied (letting callers plug in a
    polynomial procedure), else by the oracle.  Without a hit, the NO of the
    last subset decided, so the verdict names the procedure that decided it;
    the oracle's exhaustive NO when no subset was decided.
    """
    n = instance.n
    _check_search(n, k, subset_budget, force)
    if decide is None:
        decide = _default_decider(instance, rule, y, budget, force)
    verdict = None
    for subset in _subsets_up_to(n, k):
        if skip is not None and skip(subset):
            continue
        verdict = decide(subset)
        if verdict.answer:
            verdict.coalition = subset
            return verdict
    if verdict is None:
        return no_verdict(ORACLE, exhaustive=True)
    return verdict


def all_minimal_coalitions(
    instance: ElectionInstance,
    rule: VotingRule,
    k: int,
    y: int | None = None,
    *,
    decide: Decider | None = None,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    budget: int = DEFAULT_REPLAY_BUDGET,
    force: bool = False,
) -> list[tuple[int, ...]]:
    """Every YES coalition of size <= k that contains no smaller YES coalition."""
    n = instance.n
    _check_search(n, k, subset_budget, force)
    if decide is None:
        decide = _default_decider(instance, rule, y, budget, force)
    hits: list[tuple[int, ...]] = []
    for subset in _subsets_up_to(n, k):
        members = set(subset)
        if any(set(h) < members for h in hits):
            continue
        if decide(subset).answer:
            hits.append(subset)
    return hits
