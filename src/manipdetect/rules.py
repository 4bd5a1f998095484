"""Winner determination for positional scoring rules, maximin, Bucklin, and STV.

Every rule is a co-winner correspondence composed with lexicographic
tie-breaking: the reported winner is the tie-break-earliest member of the
co-winner set.  All arithmetic is exact (ints or fractions); no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .core import ElectionInstance, Preference, Profile, margin_matrix
from .errors import ConfigError, DegenerateRosterError

Score = int | Fraction

SCORING = "scoring"
MAXIMIN = "maximin"
BUCKLIN = "bucklin"
STV = "stv"


@dataclass(frozen=True)
class ScoringVector:
    """Non-increasing position scores with a strict top-to-bottom drop."""

    alphas: tuple[Score, ...]

    def __init__(self, alphas: Sequence[Score]):
        alphas = tuple(alphas)
        if len(alphas) < 1:
            raise ConfigError("scoring vector must be non-empty")
        for i in range(len(alphas) - 1):
            if alphas[i] < alphas[i + 1]:
                raise ConfigError("scoring vector must be non-increasing")
        if alphas[0] <= alphas[-1]:
            raise ConfigError("scoring vector must satisfy alpha_1 > alpha_m")
        object.__setattr__(self, "alphas", alphas)

    def __len__(self) -> int:
        return len(self.alphas)

    @classmethod
    def borda(cls, m: int) -> "ScoringVector":
        return cls(tuple(range(m - 1, -1, -1)))

    @classmethod
    def approval(cls, k: int, m: int) -> "ScoringVector":
        if not 1 <= k <= m - 1:
            raise ConfigError(f"k-approval needs 1 <= k <= m-1, got k={k}, m={m}")
        return cls((1,) * k + (0,) * (m - k))

    @classmethod
    def plurality(cls, m: int) -> "ScoringVector":
        return cls.approval(1, m)

    @classmethod
    def veto(cls, m: int) -> "ScoringVector":
        return cls.approval(m - 1, m)

    def is_convex(self) -> bool:
        """True when the top gap is the smallest gap (alpha_1 - alpha_2 <= alpha_i - alpha_i+1)."""
        a = self.alphas
        top = a[0] - a[1]
        return all(top <= a[i] - a[i + 1] for i in range(len(a) - 1))

    def is_plurality_like(self) -> bool:
        """True when only the top position scores (all lower entries equal)."""
        a = self.alphas
        return len(a) >= 2 and all(v == a[-1] for v in a[1:])


@dataclass(frozen=True)
class VotingRule:
    """Tagged rule descriptor: scoring(vector), maximin, bucklin, or stv."""

    kind: str
    vector: ScoringVector | None = None

    def __post_init__(self):
        if self.kind not in (SCORING, MAXIMIN, BUCKLIN, STV):
            raise ConfigError(f"unknown rule kind {self.kind!r}")
        if self.kind == SCORING and self.vector is None:
            raise ConfigError("scoring rule needs a vector")
        if self.kind != SCORING and self.vector is not None:
            raise ConfigError(f"{self.kind} rule takes no vector")

    @classmethod
    def scoring(cls, vector: ScoringVector) -> "VotingRule":
        return cls(SCORING, vector)

    @classmethod
    def maximin(cls) -> "VotingRule":
        return cls(MAXIMIN)

    @classmethod
    def bucklin(cls) -> "VotingRule":
        return cls(BUCKLIN)

    @classmethod
    def stv(cls) -> "VotingRule":
        return cls(STV)


@dataclass(frozen=True)
class ScoreTable:
    """Per-candidate positional scores."""

    scores: tuple[Score, ...]


# ---------------------------------------------------------------------------
# Weighted-profile internals.  These take (ballot, count) pairs and skip
# instance re-validation, so that search loops can replay candidate ballots
# on top of the table of the rest of the profile cheaply.
# ---------------------------------------------------------------------------


def positional_scores(m: int, profile: Profile, vector: ScoringVector) -> list[Score]:
    if len(vector) != m:
        raise ConfigError(f"scoring vector length {len(vector)} does not match roster size {m}")
    alphas = vector.alphas
    scores: list[Score] = [0] * m
    for ballot, w in profile:
        weighted = alphas if w == 1 else [a * w for a in alphas]
        for p, c in enumerate(ballot.ranking):
            scores[c] += weighted[p]
    return scores


def maximin_scores_from_margins(margins: Sequence[Sequence[int]]) -> list[int]:
    m = len(margins)
    if m < 2:
        raise DegenerateRosterError("maximin needs at least two candidates")
    return [min(margins[c][z] for z in range(m) if z != c) for c in range(m)]


def topk_counts(m: int, profile: Profile) -> list[list[int]]:
    """counts[c][l] = number of voters ranking c within the top l (l in 0..m)."""
    first = [[0] * (m + 1) for _ in range(m)]
    for ballot, w in profile:
        for p, c in enumerate(ballot.ranking, 1):
            first[c][p] += w
    for c in range(m):
        row = first[c]
        for l in range(1, m + 1):
            row[l] += row[l - 1]
    return first


def bucklin_levels(m: int, profile: Profile) -> list[int]:
    """Least level l at which each candidate is in the top l of at least half the voters."""
    return bucklin_levels_from_counts(topk_counts(m, profile))


def bucklin_levels_from_counts(counts: Sequence[Sequence[int]]) -> list[int]:
    """Bucklin levels read from a `topk_counts` table."""
    m = len(counts)
    n = counts[0][m]  # every voter ranks every candidate within the top m
    levels = []
    for c in range(m):
        row = counts[c]
        for l in range(1, m + 1):
            if 2 * row[l] >= n:
                levels.append(l)
                break
    return levels


def stv_order(m: int, profile: Profile, tb_rank: Sequence[int]) -> list[int]:
    """Elimination order, winner last.

    Each round drops the candidate with the least count of voters whose
    ballot currently tops it; among tied candidates the one latest in the
    tie-break order is dropped, so tie-break-favored candidates stay alive.
    Only the ballots that topped the dropped candidate move on, each to its
    next candidate still alive.
    """
    alive = [True] * m
    counts = [0] * m
    piles: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(m)]
    for ballot, w in profile:
        r = ballot.ranking
        counts[r[0]] += w
        piles[r[0]].append((r, 0, w))
    order: list[int] = []
    for _ in range(m - 1):
        least = min(counts[c] for c in range(m) if alive[c])
        drop = max(
            (c for c in range(m) if alive[c] and counts[c] == least),
            key=lambda c: tb_rank[c],
        )
        alive[drop] = False
        order.append(drop)
        for r, p, w in piles[drop]:
            p += 1
            while not alive[r[p]]:
                p += 1
            counts[r[p]] += w
            piles[r[p]].append((r, p, w))
    order.append(alive.index(True))
    return order


def _pick_first(candidates: Iterable[int], tb_rank: Sequence[int]) -> int:
    return min(candidates, key=lambda c: tb_rank[c])


def tally(m: int, profile: Profile, rule: VotingRule):
    """The rule's additive aggregate table of a weighted profile.

    Positional scores, the margin matrix, or the top-k counts; for STV, the
    weighted profile itself.  The table of two profiles put together is the
    sum of their tables (concatenation for STV), so a replay can add the
    table of a few ballots to a table built once for the rest.
    """
    if rule.kind == SCORING:
        return positional_scores(m, profile, rule.vector)
    if rule.kind == MAXIMIN:
        return margin_matrix(m, profile)
    if rule.kind == BUCKLIN:
        return topk_counts(m, profile)
    return profile


def _add_tables(rule: VotingRule, base, table):
    if rule.kind == SCORING:
        return list(map(add, base, table))
    if rule.kind == STV:
        return [*base, *table]
    return [list(map(add, r, s)) for r, s in zip(base, table)]


def co_winners_from_tally(m: int, table, tb_rank: Sequence[int], rule: VotingRule) -> list[int]:
    """The co-winner set read from a `tally` table."""
    if rule.kind == STV:
        return [stv_order(m, table, tb_rank)[-1]]
    if rule.kind == BUCKLIN:
        levels = bucklin_levels_from_counts(table)
        best = min(levels)
        return [c for c in range(m) if levels[c] == best]
    scores = table if rule.kind == SCORING else maximin_scores_from_margins(table)
    best = max(scores)
    return [c for c in range(m) if scores[c] == best]


def co_winners_from_ballots(
    m: int, profile: Profile, tb_rank: Sequence[int], rule: VotingRule
) -> list[int]:
    return co_winners_from_tally(m, tally(m, profile, rule), tb_rank, rule)


def winner_from_ballots(
    m: int, profile: Profile, tiebreak: Preference, rule: VotingRule, base=None
) -> int:
    """The winner of `profile`, or, given `base = tally(m, rest, rule)`, of
    `rest + profile`: a replay then costs the table of `profile` only."""
    table = tally(m, profile, rule)
    if base is not None:
        table = _add_tables(rule, base, table)
    tb_rank = tiebreak.positions()
    return _pick_first(co_winners_from_tally(m, table, tb_rank, rule), tb_rank)


# ---------------------------------------------------------------------------
# Instance-level operations.
# ---------------------------------------------------------------------------


def evaluate_scores(instance: ElectionInstance, vector: ScoringVector) -> ScoreTable:
    """Positional score of every candidate under the given vector."""
    return ScoreTable(tuple(positional_scores(instance.m, instance.classes, vector)))


def maximin_score(instance: ElectionInstance, candidate: int) -> int:
    """Worst pairwise margin of `candidate` against any opponent."""
    return maximin_scores_from_margins(margin_matrix(instance.m, instance.classes))[candidate]


def bucklin_score(instance: ElectionInstance, candidate: int) -> int:
    """Bucklin level of `candidate` (always in 1..m)."""
    return bucklin_levels(instance.m, instance.classes)[candidate]


def stv_elimination_order(instance: ElectionInstance) -> tuple[int, ...]:
    """m-1 eliminated candidates in order, then the surviving winner."""
    return tuple(stv_order(instance.m, instance.classes, instance.tiebreak.positions()))


def co_winners(instance: ElectionInstance, rule: VotingRule) -> tuple[int, ...]:
    """The rule's co-winner set before tie-breaking (singleton for STV)."""
    return tuple(
        co_winners_from_ballots(instance.m, instance.classes, instance.tiebreak.positions(), rule)
    )


def winner(instance: ElectionInstance, rule: VotingRule) -> int:
    """The unique winner: tie-break-earliest member of the co-winner set."""
    return winner_from_ballots(instance.m, instance.classes, instance.tiebreak, rule)
