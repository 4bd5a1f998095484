"""Polynomial possible-manipulator detection for positional scoring rules.

Four procedures cover the scoring family:

* single suspect, any vector: slide the (current winner, target) pair through
  all adjacent position pairs of one canonical ballot and replay;
* coalitions under convex vectors (top gap no larger than any other gap,
  e.g. Borda, k-approval for k >= 2, veto): a single canonical test profile
  decides the question;
* coalitions under plurality: a capacity count over top-vote reassignments;
* bounded search (CPMSW/CPMS) under convex vectors: rank voters by how much
  replacing their ballot closes the gap between target and winner, then grow
  the coalition greedily.
"""

from __future__ import annotations

from itertools import chain, compress, islice
from typing import Sequence

from .core import Preference
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    current_winner,
    no_verdict,
    require_target,
    yes_verdict,
)
from .errors import DispatchError, InvalidQueryError
from .oracle import DEFAULT_REPLAY_BUDGET, oracle_cpmw
from .rules import (
    SCORING,
    Score,
    ScoreTable,
    ScoringVector,
    positional_scores,
    winner_from_ballots,
)

METHOD_SINGLE = "scoring-single"
METHOD_COALITION = "scoring-coalition"
METHOD_CAPACITY = "plurality-capacity"
METHOD_GREEDY = "delta-greedy"
METHOD_FALLBACK = "oracle-fallback"


def _require_scoring(query: DetectionQuery) -> ScoringVector:
    if query.rule.kind != SCORING:
        raise DispatchError(f"scoring detector cannot handle a {query.rule.kind} rule")
    vector = query.rule.vector
    if len(vector) != query.instance.m:
        raise DispatchError("scoring vector length does not match the roster")
    return vector


def canonical_manipulated_preference(
    external_scores: ScoreTable | Sequence[Score],
    x: int,
    y: int,
    j: int,
    tiebreak: Preference,
) -> Preference:
    """The canonical ballot with x at position j and y right below it.

    Remaining candidates fill the other positions top to bottom in
    nondecreasing order of their score from the rest of the profile, so the
    strongest outsiders take the lowest-scoring slots.  Equal scores are
    ordered tie-break-latest first: of two equally scored outsiders the one
    favored by the tie-break order is the more dangerous and goes lower.
    """
    scores = external_scores.scores if isinstance(external_scores, ScoreTable) else external_scores
    m = len(scores)
    if x == y:
        raise InvalidQueryError("x and y must differ")
    if not 1 <= j <= m - 1:
        raise InvalidQueryError(f"position {j} outside 1..{m - 1}")
    tb_rank = tiebreak.positions()
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
    inst = query.instance
    x = current_winner(query)
    y = require_target(query, x)
    (i,) = query.suspects
    m = inst.m
    external = positional_scores(m, inst.ballots_excluding([i]), vector)
    for j in range(1, m):
        pref = canonical_manipulated_preference(external, x, y, j, inst.tiebreak)
        if winner_from_ballots(m, [(pref, 1)], inst.tiebreak, query.rule, base=external) == y:
            return yes_verdict({i: pref}, y, METHOD_SINGLE)
    return no_verdict(METHOD_SINGLE)


def _coalition_test_ballot(reported: Preference, x: int, y: int) -> Preference:
    rest = [c for c in reported.ranking if c != x and c != y]
    return Preference([x, y] + rest)


def cpmw_scoring_coalition(
    query: DetectionQuery,
    *,
    budget: int = DEFAULT_REPLAY_BUDGET,
    force: bool = False,
) -> DetectionVerdict:
    """Coalition CPMW for scoring rules.

    Convex vectors are decided by one test profile: each suspect ballot gets
    the current winner first and the target second, everything else keeping
    its reported relative order.  Plurality goes through the capacity method;
    any other vector falls back to the exhaustive oracle (verdict annotated).
    """
    vector = _require_scoring(query)
    inst = query.instance
    x = current_winner(query)
    y = require_target(query, x)
    if vector.is_convex():
        witness = {
            i: _coalition_test_ballot(inst.ballots[i], x, y) for i in query.suspects
        }
        replay = inst.ballots_excluding(query.suspects)
        replay += [(pref, 1) for pref in witness.values()]
        if winner_from_ballots(inst.m, replay, inst.tiebreak, query.rule) == y:
            return yes_verdict(witness, y, METHOD_COALITION)
        return no_verdict(METHOD_COALITION)
    if vector.is_plurality_like():
        return cpmw_plurality_coalition(query)
    verdict = oracle_cpmw(inst, query.rule, query.suspects, y, budget=budget, force=force)
    verdict.method = METHOD_FALLBACK
    return verdict


def cpmw_plurality_coalition(query: DetectionQuery) -> DetectionVerdict:
    """Coalition CPMW for plurality via top-vote capacities.

    Suspects can never top the target y (the current winner must stay above
    it), so y keeps exactly its non-suspect score and each suspect hands one
    top vote to some other candidate.  The question reduces to capacities:
    every candidate must fit under the score that still loses to y, and the
    slack must absorb all suspect votes.  With two candidates every suspect
    vote is forced onto the current winner.
    """
    vector = _require_scoring(query)
    if not vector.is_plurality_like():
        raise DispatchError("capacity method needs a plurality-like vector")
    inst = query.instance
    x = current_winner(query)
    y = require_target(query, x)
    m, suspects = inst.m, query.suspects
    tb_rank = inst.tiebreak.positions()

    base = [0] * m
    for ballot, w in inst.ballots_excluding(suspects):
        base[ballot.ranking[0]] += w
    cap = {}
    for z in range(m):
        if z == y:
            continue
        allowed = base[y] - 1 + (1 if tb_rank[y] < tb_rank[z] else 0)
        cap[z] = allowed - base[z]
    if any(c < 0 for c in cap.values()):
        return no_verdict(METHOD_CAPACITY)
    if m == 2:
        feasible = cap[x] >= len(suspects)
    else:
        feasible = sum(cap.values()) >= len(suspects)
    if not feasible:
        return no_verdict(METHOD_CAPACITY)

    assignable = [x] if m == 2 else sorted(cap, key=lambda z: tb_rank[z])
    remaining = dict(cap)
    witness: dict[int, Preference] = {}
    for i in suspects:
        z = next(c for c in assignable if remaining[c] > 0)
        remaining[z] -= 1
        head = [z, x, y] if z != x else [x, y]
        tail = [c for c in range(m) if c not in head]
        witness[i] = Preference(head + tail)
    if not witness:
        return no_verdict(METHOD_CAPACITY)
    return yes_verdict(witness, y, METHOD_CAPACITY)


def cpmsw_scoring_greedy(query: DetectionQuery) -> DetectionVerdict:
    """Bounded coalition search (CPMSW) for convex scoring vectors.

    For each voter, replacing their ballot with a winner-first/target-second
    ballot shifts the target-minus-winner score gap by a fixed amount that
    depends only on the ballot, so it is computed once per ballot class.
    Ordering voters by that shift makes every prefix the best coalition of
    its size.  Each prefix is confirmed by full winner determination
    (maintained incrementally) before a YES is reported; the current winner
    is read from the same score table before the search starts.
    """
    vector = _require_scoring(query)
    if not vector.is_convex():
        raise DispatchError("greedy search needs a convex scoring vector")
    inst = query.instance
    m, n = inst.m, inst.n
    scores = positional_scores(m, inst.classes, vector)
    tb_rank = inst.tiebreak.positions()

    def leader() -> int:
        best = max(scores)
        return min((c for c in range(m) if scores[c] == best), key=lambda c: tb_rank[c])

    x = leader()
    y = require_target(query, x)
    if query.bound is None:
        raise InvalidQueryError("bounded search needs a coalition bound")
    k = query.bound
    alphas = vector.alphas
    if k == 0:
        return no_verdict(METHOD_GREEDY)

    shift = []
    for ballot, _ in inst.classes:
        pos = ballot.positions()
        shift.append(alphas[1] - alphas[pos[y]] - alphas[0] + alphas[pos[x]])
    # Voters by largest shift first, ties by voter index: one lazy scan of the
    # voters per shift value, so a small k reads only the first few groups.
    groups = ([s == d for s in shift] for d in sorted(set(shift), reverse=True))
    order = chain.from_iterable(
        compress(range(n), map(group.__getitem__, inst.voter_class)) for group in groups
    )

    witness: dict[int, Preference] = {}
    for idx in islice(order, k):
        old = inst.ballots[idx]
        new = _coalition_test_ballot(old, x, y)
        for p, c in enumerate(old.ranking):
            scores[c] -= alphas[p]
        for p, c in enumerate(new.ranking):
            scores[c] += alphas[p]
        witness[idx] = new
        if leader() == y:
            return yes_verdict(witness, y, METHOD_GREEDY)
    return no_verdict(METHOD_GREEDY)
