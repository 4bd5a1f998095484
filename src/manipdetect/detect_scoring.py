"""Polynomial possible-manipulator detection for positional scoring rules.

Four procedures cover the scoring family; `dispatch` picks one by vector
shape, and each refuses with `DispatchError` a vector it does not cover:

* single suspect, any vector: slide the (current winner, target) pair through
  all adjacent position pairs of one canonical ballot and replay;
* coalitions under convex vectors (top gap no larger than any other gap,
  e.g. Borda, k-approval for k >= 2, veto): a single canonical test profile
  decides the question, unless the score gap alone puts the target out of reach;
* coalitions under plurality: a capacity count over top-vote reassignments,
  and bounded search (CPMSW) by the same count in closed form;
* bounded search (CPMSW/CPMS) under convex vectors: rank voters by how much
  replacing their ballot closes the gap between target and winner, then grow
  the coalition greedily; when a packed instance's units are its voters,
  they are read from its stored bit planes, once the same gap check passes.
"""

from __future__ import annotations

from itertools import chain, compress, islice, permutations
from typing import Iterator, Sequence

from .core import ElectionInstance, Preference, column_masks
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    no_verdict,
    require_bound,
    require_target,
)
from .errors import DispatchError, InvalidQueryError
from .oracle import ORACLE
from .rules import (
    SCORING,
    Score,
    ScoringVector,
    winner_from_tally,
)

METHOD_SINGLE = "scoring-single"
METHOD_COALITION = "scoring-coalition"
METHOD_CAPACITY = "plurality-capacity"
METHOD_GREEDY = "delta-greedy"


def _require_scoring(query: DetectionQuery) -> ScoringVector:
    if query.rule.kind != SCORING:
        raise DispatchError(f"scoring detector cannot handle a {query.rule.kind} rule")
    vector = query.rule.vector
    if len(vector) != query.instance.m:
        raise DispatchError("scoring vector length does not match the roster")
    return vector


def canonical_manipulated_preference(
    scores: Sequence[Score],
    x: int,
    y: int,
    j: int,
    tb_rank: Sequence[int],
) -> Preference:
    """The canonical ballot with x at position j and y right below it.

    Remaining candidates fill the other positions top to bottom in
    nondecreasing order of their score from the rest of the profile, so the
    strongest outsiders take the lowest-scoring slots.  Equal scores are
    ordered latest in `tb_rank` first: of two equally scored outsiders the
    one the tie-break favors is the more dangerous and goes lower.
    """
    m = len(scores)
    if x == y:
        raise InvalidQueryError("x and y must differ")
    if not 1 <= j <= m - 1:
        raise InvalidQueryError(f"position {j} outside 1..{m - 1}")
    rest = sorted(
        (c for c in range(m) if c != x and c != y),
        key=lambda c: (scores[c], -tb_rank[c]),
    )
    ranking: list[int] = []
    it = iter(rest)
    for pos in range(1, m + 1):
        if pos == j:
            ranking.append(x)
        elif pos == j + 1:
            ranking.append(y)
        else:
            ranking.append(next(it))
    return Preference(ranking)


def cpmw_scoring_single(query: DetectionQuery) -> DetectionVerdict:
    """Single-suspect CPMW for any scoring vector."""
    vector = _require_scoring(query)
    if len(query.suspects) != 1:
        raise DispatchError("this procedure handles exactly one suspect")
    x, y = require_target(query)
    (i,) = query.suspects
    rest, tb_rank = query.rest, query.instance.tb_rank
    for j in range(1, query.instance.m):
        pref = canonical_manipulated_preference(rest, x, y, j, tb_rank)
        verdict = query.confirm({i: pref}, METHOD_SINGLE)
        if verdict:
            return verdict
    return no_verdict(METHOD_SINGLE)


def _coalition_test_ballot(reported: Preference, x: int, y: int) -> Preference:
    rest = tuple(c for c in reported.ranking if c != x and c != y)
    return Preference._from_checked((x, y) + rest)


def _out_of_reach(query: DetectionQuery, x: int, y: int, count: int) -> bool:
    """True when `count` test ballots cannot elect y: each puts x first and
    y second, so it narrows y's deficit to x by at most alphas[1] - alphas[-1],
    and an exact tie goes to whichever of x and y the tie-break puts first."""
    alphas, full, tb_rank = query.rule.vector.alphas, query.context.full, query.instance.tb_rank
    reach = count * (alphas[1] - alphas[-1])
    return (reach, tb_rank[x]) < (full[x] - full[y], tb_rank[y])


def cpmw_scoring_coalition(query: DetectionQuery) -> DetectionVerdict:
    """Coalition CPMW for convex scoring vectors, by one test profile: each
    suspect ballot gets the current winner first and the target second,
    everything else keeping its reported relative order.  A target that |M|
    such ballots cannot reach (`_out_of_reach`) gets NO before any is built."""
    if not _require_scoring(query).is_convex():
        raise DispatchError("test-profile method needs a convex scoring vector")
    x, y = require_target(query)
    if _out_of_reach(query, x, y, len(query.suspects)):
        return no_verdict(METHOD_COALITION)
    reported = query.instance.ballots_of(query.suspects)
    witness = {
        i: _coalition_test_ballot(pref, x, y) for i, (pref, _) in zip(query.suspects, reported)
    }
    return query.confirm(witness, METHOD_COALITION) or no_verdict(METHOD_COALITION)


def cpmw_plurality_coalition(query: DetectionQuery) -> DetectionVerdict:
    """Coalition CPMW for plurality via top-vote capacities.

    Suspects can never top the target y (the current winner must stay above
    it), so y keeps exactly its non-suspect score and each suspect hands one
    top vote to some other candidate.  The question reduces to capacities:
    every candidate must fit under the score that still loses to y, and the
    slack must absorb all suspect votes.  With two candidates only the
    current winner has a capacity, so every suspect vote goes to it.  The
    witness is replayed (`query.confirm`) before YES.
    """
    vector = _require_scoring(query)
    if not vector.is_plurality_like():
        raise DispatchError("capacity method needs a plurality-like vector")
    x, y = require_target(query)
    m, suspects = query.instance.m, query.suspects
    excess = _excess(query, vector, y)[1]
    if any(e > 0 for e in excess.values()) or -sum(excess.values()) < len(suspects):
        return no_verdict(METHOD_CAPACITY)

    assignable = sorted(excess, key=query.instance.tb_rank.__getitem__)
    remaining = {z: -e for z, e in excess.items()}
    witness: dict[int, Preference] = {}
    for i in suspects:
        z = next(c for c in assignable if remaining[c] > 0)
        remaining[z] -= 1
        head = [z, x, y] if z != x else [x, y]
        tail = [c for c in range(m) if c not in head]
        witness[i] = Preference(head + tail)
    return query.confirm(witness, METHOD_CAPACITY) or no_verdict(METHOD_CAPACITY)


def cpmsw_plurality(query: DetectionQuery) -> DetectionVerdict:
    """Bounded coalition search (CPMSW) for plurality in closed form.

    The capacity count of `cpmw_plurality_coalition` reads only the
    coalition's top choices.  No member tops y (dropping such a member
    leaves a smaller YES), so y keeps its tops_y top votes, and z != y may
    keep allowed_z = tops_y - 1 + [y before z in the tie-break order].
    Summed over z, the capacities absorb the coalition's votes exactly when
    sum(allowed_z - tops_z) >= 0, whatever the coalition; z fits only if at
    least e_z = tops_z - allowed_z members top z.  The sum fails when
    tops_y = 0, so otherwise allowed_z >= 0 and e_z <= tops_z: the smallest
    YES has max(1, sum of the positive e_z) members, and the first in
    size-then-index order is the lowest-index e_z voters topping each
    over-capacity z, or the first voter not topping y.  Its witness comes
    from `cpmw_plurality_coalition`.  Without a coalition to try (k = 0, or
    every voter tops y) the NO is the oracle's exhaustive one, as from a
    search that decided no subset.
    """
    vector = _require_scoring(query)
    if not vector.is_plurality_like():
        raise DispatchError("capacity method needs a plurality-like vector")
    inst = query.instance
    k, n = require_bound(query), inst.n
    y = require_target(query)[1]
    tops, excess = _excess(query, vector, y)
    if k == 0 or tops[y] == n:
        return no_verdict(ORACLE, exhaustive=True)
    over = {z: e for z, e in excess.items() if e > 0}
    if sum(excess.values()) > 0 or sum(over.values()) > k:
        return no_verdict(METHOD_CAPACITY)

    class_top = [pref.ranking[0] for pref, _ in inst.classes]

    def voters_topping(keep) -> Iterator[int]:
        mask = [keep(t) for t in class_top]
        return compress(range(n), map(mask.__getitem__, inst.voter_class))

    if over:
        coalition = sorted(
            chain.from_iterable(
                islice(voters_topping(z.__eq__), e) for z, e in over.items()
            )
        )
    else:
        coalition = [next(voters_topping(y.__ne__))]
    return cpmw_plurality_coalition(query.for_coalition(tuple(coalition)))


def _excess(
    query: DetectionQuery, vector: ScoringVector, y: int
) -> tuple[list[int], dict[int, int]]:
    """Top votes per candidate of every voter but the suspects, read off the
    full scores (each voter scores `low` but `top` for their first choice),
    and each z != y's excess over allowed_z = tops_y - 1 + [y before z in
    the tie-break order], the most that still loses to y."""
    top, low = vector.alphas[0], vector.alphas[-1]
    tops = [(s - low * query.instance.n) // (top - low) for s in query.context.full]
    for pref, _ in query.instance.ballots_of(query.suspects):
        tops[pref.ranking[0]] -= 1
    tb_rank = query.instance.tb_rank
    excess = {
        z: tops[z] - tops[y] + 1 - (tb_rank[y] < tb_rank[z]) for z in range(len(tops)) if z != y
    }
    return tops, excess


def _shift(ranking: tuple[int, ...], alphas: Sequence[Score], x: int, y: int) -> Score:
    """How far the test ballot closes the target-minus-winner gap in place of `ranking`."""
    return alphas[1] - alphas[ranking.index(y)] - alphas[0] + alphas[ranking.index(x)]


def _set_bits(mask: int) -> Iterator[int]:
    """The indices of `mask`'s set bits, ascending."""
    digits = bin(mask)[:1:-1]
    v = digits.find("1")
    while v >= 0:
        yield v
        v = digits.find("1", v + 1)


def _shift_groups(inst: ElectionInstance, alphas: Sequence[Score], x: int, y: int):
    """For each shift value, from the highest down, the voters whose shift
    is that value, in ascending order.

    When unit v of a packed profile is voter v (`units_are_voters`), the
    units are all its voters.  With x at position p and y at q, a shift is
    alphas[1] - alphas[0] + alphas[p] - alphas[q], so the group of shift d
    is the set bits of the OR of x-at-p & y-at-q over the pairs (p, q) with
    that shift; x's and y's position planes split into x-at-p and y-at-q
    (`core.column_masks`).  Any other profile takes the class loop, one
    `_shift` per class, and a scan of `voter_class` finds each group's
    voters.
    """
    classes, m = inst.classes, inst.m
    if not getattr(classes, "units_are_voters", False):
        shifts = [_shift(ballot.ranking, alphas, x, y) for ballot, _ in classes]
        for d in sorted(set(shifts), reverse=True):
            flags = [s == d for s in shifts]
            yield compress(range(inst.n), map(flags.__getitem__, inst.voter_class))
        return
    planes, units, _ = classes.pack
    pairs: dict[Score, list[tuple[int, int]]] = {}
    for p, q in permutations(range(m), 2):
        pairs.setdefault(alphas[1] - alphas[0] + alphas[p] - alphas[q], []).append((p, q))
    ones = (1 << units) - 1
    x_at, y_at = column_masks(m, planes[x], ones), column_masks(m, planes[y], ones)
    for d in sorted(pairs, reverse=True):
        mask = 0
        for p, q in pairs[d]:
            mask |= x_at[p] & y_at[q]
        yield _set_bits(mask)


def cpmsw_scoring_greedy(query: DetectionQuery) -> DetectionVerdict:
    """Bounded coalition search (CPMSW) for convex scoring vectors.

    For each voter, replacing their ballot with a winner-first/target-second
    ballot shifts the target-minus-winner score gap by a fixed amount that
    depends only on where the ballot ranks the two.  Ordering voters by that
    shift, ties by voter index, makes every prefix the best coalition of its
    size; the order is taken group by group (`_shift_groups`), so a small
    bound reads only the first groups.  Each prefix is tried on an
    incrementally kept copy of the context's score table, and the first
    that elects the target is replayed (`query.confirm`) before a YES is
    reported; the winner is read only once the target's score has reached
    the current winner's.  A target that min(k, n) test ballots cannot reach
    (`_out_of_reach`) gets NO before any voter is ranked.
    """
    vector = _require_scoring(query)
    if not vector.is_convex():
        raise DispatchError("greedy search needs a convex scoring vector")
    inst = query.instance
    m, count = inst.m, min(require_bound(query), inst.n)
    x, y = require_target(query)
    if _out_of_reach(query, x, y, count):
        return no_verdict(METHOD_GREEDY)
    scores = list(query.context.full)
    alphas = vector.alphas
    order = chain.from_iterable(_shift_groups(inst, alphas, x, y))

    witness: dict[int, Preference] = {}
    for idx in islice(order, count):
        old = inst.classes[inst.voter_class[idx]][0]
        new = _coalition_test_ballot(old, x, y)
        for p, c in enumerate(old.ranking):
            scores[c] -= alphas[p]
        for p, c in enumerate(new.ranking):
            scores[c] += alphas[p]
        witness[idx] = new
        if scores[y] >= scores[x] and winner_from_tally(m, scores, inst.tb_rank, query.rule) == y:
            verdict = query.for_coalition(tuple(witness)).confirm(witness, METHOD_GREEDY)
            return verdict or no_verdict(METHOD_GREEDY)
    return no_verdict(METHOD_GREEDY)
