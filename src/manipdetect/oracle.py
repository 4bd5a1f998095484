"""Brute-force decision procedures.

These enumerate the definition directly: every admissible preference per
suspect (all h = m!/2 rankings placing the current winner above the target),
every multiset of them across the coalition.  Every rule is anonymous, so a
multiset decides as any ordering of it would: C(h + |M| - 1, |M|) replays
instead of h^|M|.  They are the reference oracle for the polynomial
algorithms and for the STV elimination-tree search (`detect_stv`), and the
solver of last resort that `dispatch` sends maximin coalitions and irregular
scoring vectors with coalitions to.  Searches refuse to start past a replay budget
(`DEFAULT_REPLAY_BUDGET`) or a subset budget (`DEFAULT_SUBSET_BUDGET`)
rather than run open-endedly: each hands its cost and budget to the one
check, `DetectionQuery.within`, which refuses unless the query has `force`
set; the queries a search derives, one per target or coalition, keep it.
Both budgets are read when a search checks them, so a test may patch them.
Untargeted searches loop over targets by `detection._first_yes`, as CPM does.
"""

from __future__ import annotations

from bisect import insort
from itertools import permutations
from math import comb, factorial, inf, lcm
from typing import Callable, Iterator, Sequence

from .core import ElectionInstance, Preference
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    _first_yes,
    no_verdict,
    require_bound,
    require_target,
    yes_verdict,
)
from .rules import SCORING, VotingRule, _add_tables, tally, winner_from_tally

DEFAULT_REPLAY_BUDGET = 10_000_000
DEFAULT_SUBSET_BUDGET = 1_000_000

ORACLE = "oracle"


def admissible_preferences(m: int, x: int, y: int) -> list[Preference]:
    """All rankings of 0..m-1 that place x above y, in lexicographic order."""
    return [
        Preference._from_checked(perm)
        for perm in permutations(range(m))
        if perm.index(x) < perm.index(y)
    ]


def oracle_cpmw(
    query: DetectionQuery | ElectionInstance,
    rule: VotingRule | None = None,
    suspects: Sequence[int] = (),
    y: int | None = None,
    *,
    force: bool = False,
) -> DetectionVerdict:
    """Decide by exhaustion whether the query's suspects can be possible
    manipulators against its target.

    `oracle_cpmw(instance, rule, suspects, y, force=...)` decides
    `DetectionQuery(instance, rule, suspects, y, force=force)`; a query
    carries its own `force`.

    The walk is depth first over nondecreasing tuples of admissible ballot
    indices, in lexicographic order (the `combinations_with_replacement`
    order): one tuple, and one winner read, per ballot multiset.  The
    one-ballot table of every admissible ballot is built once per context,
    so every coalition of one search shares them, and the partial sum of
    every prefix is kept, starting from the table of the rest of the
    profile (`query.rest`); a level that moves adds its ballot's table to
    the sum above it, so most leaves cost one table addition.  The budget
    counts the leaves, C(m!/2 + |M| - 1, |M|), and is checked before
    anything is built.

    The witness reported on YES is the lexicographically first admissible
    ballot combination (suspects in index order, ballots as id sequences).
    That combination is nondecreasing, since sorting a YES tuple gives a YES
    tuple no later than it, so the walk reaches it first.
    """
    if not isinstance(query, DetectionQuery):
        query = DetectionQuery(query, rule, tuple(suspects), y, force=force)
    rule, suspects = query.rule, query.suspects
    m, context = query.instance.m, query.context
    x, y = require_target(query)

    cost = comb(factorial(m) // 2 + len(suspects) - 1, len(suspects))
    query.within(cost, DEFAULT_REPLAY_BUDGET, "exhaustive search", "replays")

    # scoring tables times the lcm of the vector's denominators: ints, same maxima and ties
    scale = lcm(*(a.denominator for a in rule.vector.alphas)) if rule.kind == SCORING else 1
    integral = (lambda table: [int(s * scale) for s in table]) if scale > 1 else None
    if context.admissible is None:
        slots = admissible_preferences(m, x, y)
        tables = [tally(m, [(pref, 1)], rule) for pref in slots]
        context.admissible = slots, list(map(integral, tables)) if integral else tables
    slots, tables = context.admissible
    tb_rank = query.instance.tb_rank
    # chosen[d]: the ballot index of level d, nondecreasing in d; sums[d]:
    # the table of the rest of the profile plus the ballots of levels < d
    size, last = len(suspects), len(slots) - 1
    chosen = [0] * size
    sums = [integral(query.rest) if integral else query.rest]
    for _ in range(size):
        sums.append(_add_tables(rule, sums[-1], tables[0]))
    while winner_from_tally(m, sums[-1], tb_rank, rule) != y:
        d = size - 1
        while d >= 0 and chosen[d] == last:
            d -= 1
        if d < 0:
            verdict = no_verdict(ORACLE, exhaustive=True)
            break
        j = chosen[d] + 1
        for e in range(d, size):
            chosen[e] = j
            sums[e + 1] = _add_tables(rule, sums[e], tables[j])
    else:
        witness = {i: slots[j] for i, j in zip(suspects, chosen)}
        verdict = yes_verdict(witness, y, ORACLE, exhaustive=True)
    verdict.current_winner = x
    return verdict


def oracle_cpm(
    instance: ElectionInstance,
    rule: VotingRule,
    suspects: Sequence[int],
    *,
    force: bool = False,
) -> DetectionVerdict:
    """Disjunction of oracle_cpmw over every alternative winner, in tie-break order."""
    query = DetectionQuery(instance, rule, tuple(suspects), force=force)
    return _first_yes(
        query, lambda y: oracle_cpmw(query.for_target(y)), no_verdict(ORACLE, exhaustive=True)
    )


Decider = Callable[[tuple[int, ...]], DetectionVerdict]


def _coalition_count(instance: ElectionInstance, k: int, cap: float = inf) -> int:
    """How many multisets of 1..k ballot classes use no class more often than
    its count (the number of coalitions `_canonical_coalitions` yields), or
    `cap` if that is less.

    The size bound grows by doubling up to min(k, n) and stops as soon as
    the count reaches `cap`.  Every size up to n has a multiset, so the
    bound never passes 2·cap, and a hostile k costs no more than that.
    """
    k = min(k, instance.n)
    size = min(k, 1)
    while True:
        count = _multisets_up_to(instance, size, cap)
        if size == k or count >= cap:
            return count
        size = min(2 * size, k)


def _multisets_up_to(instance: ElectionInstance, k: int, cap: float) -> int:
    ways = [1] + [0] * k  # ways[s]: multisets of size s over the classes so far
    for _, w in instance.classes:
        w = min(w, k)
        if not w:
            continue
        # ways'[s] = ways[s - w] + ... + ways[s], by a running window sum;
        # a sum of terms saturated at `cap` saturates to the same value
        window = 0
        new = []
        for s in range(k + 1):
            window += ways[s]
            if s > w:
                window -= ways[s - w - 1]
            new.append(window if window < cap else cap)
        ways = new
    return min(sum(ways) - 1, cap)


def _canonical_coalitions(instance: ElectionInstance, k: int) -> Iterator[tuple[int, ...]]:
    """One voter subset of size <= k per multiset of ballot classes.

    A multiset is represented by the lowest-index voters of each class it
    uses; the representatives come in size-then-lexicographic order.  Each
    level of the depth-first walk keeps the classes still usable, sorted by
    their next unused voter: a class whose next voter lies below the last
    one taken can no longer be used, since its representative would skip
    that voter.  A branch is entered only if the classes after it still
    hold enough voters to fill the subset, so no branch dead-ends.
    """
    k = min(k, instance.n)
    # the lowest-index min(count, k) voters of every class
    members: list[list[int]] = [[] for _ in instance.classes]
    wanted = sum(min(w, k) for _, w in instance.classes)
    for i, c in enumerate(instance.voter_class):
        if not wanted:
            break
        if len(members[c]) < k:
            members[c].append(i)
            wanted -= 1
    used = [0] * len(members)
    chosen: list[int] = []

    def extend(usable: list[tuple[int, int]], room: int, need: int):
        if not need:
            yield tuple(chosen)
            return
        for j, (v, c) in enumerate(usable):
            if room < need:
                return
            left = len(members[c]) - used[c]
            rest = usable[j + 1:]
            if left > 1:
                insort(rest, (members[c][used[c] + 1], c))
            used[c] += 1
            chosen.append(v)
            yield from extend(rest, room - 1, need - 1)
            chosen.pop()
            used[c] -= 1
            room -= left

    start = sorted((vs[0], c) for c, vs in enumerate(members) if vs)
    total = sum(map(len, members))
    for size in range(1, k + 1):
        yield from extend(start, total, size)


def search_coalitions(
    query: DetectionQuery | ElectionInstance,
    rule: VotingRule | None = None,
    k: int | None = None,
    y: int | None = None,
    *,
    decide: Decider | None = None,
    force: bool = False,
) -> DetectionVerdict:
    """Is there any coalition of at most the query's bound k of possible
    manipulators (against its target, if it has one)?  The instance form
    searches `DetectionQuery(instance, rule, actual_winner=y, bound=k, force=force)`.

    Every rule is anonymous, so a subset's verdict depends only on the
    multiset of its members' ballots.  The search decides one subset per
    multiset of ballot classes: the lowest-index voters of each class it
    uses, in size-then-lexicographic order of those voter tuples.  A YES
    subset's representative is also YES and no later in that order, so the
    first hit is the first YES voter subset in size-then-index order.  The
    subset budget counts these representatives; the count stops at one past
    the budget, so a refusal reports that as its cost.  Each subset is
    decided by `decide` when supplied (letting callers plug in a polynomial
    procedure), else by the oracle on the query's `for_coalition`
    derivation.  Without a target, once its budget is checked, the search
    runs against every alternative winner by `detection._first_yes`, as
    CPMS does.  Without a hit, the NO of the last subset decided, so the
    verdict names the procedure that decided it; the oracle's exhaustive NO
    when no subset was decided (k = 0).  Verdicts carry the current winner.
    """
    if not isinstance(query, DetectionQuery):
        query = DetectionQuery(query, rule, actual_winner=y, bound=k, force=force)
    instance, k = query.instance, require_bound(query)
    x = None if query.actual_winner is None else require_target(query)[0]
    budget = DEFAULT_SUBSET_BUDGET
    count = _coalition_count(instance, k, budget + 1)
    query.within(count, budget, "coalition search", "coalitions")
    if x is None:
        return _first_yes(
            query,
            lambda y: search_coalitions(query.for_target(y), decide=decide),
            no_verdict(ORACLE, exhaustive=True),
        )
    if decide is None:
        decide = lambda subset: oracle_cpmw(query.for_coalition(subset))
    verdict = no_verdict(ORACLE, exhaustive=True)
    for subset in _canonical_coalitions(instance, k):
        verdict = decide(subset)
        if verdict.answer:
            verdict.coalition = subset
            break
    verdict.current_winner = x
    return verdict
