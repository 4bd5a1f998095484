"""Winner determination for positional scoring rules, maximin, Bucklin, and STV.

Every rule is a co-winner correspondence composed with lexicographic
tie-breaking: the reported winner is the tie-break-earliest member of the
co-winner set.  All arithmetic is exact (ints or fractions); no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from numbers import Rational
from operator import add, or_, sub
from typing import Iterable, Sequence

from .core import ElectionInstance, Profile, column_masks, margin_matrix
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
        if not all(isinstance(a, Rational) for a in alphas):
            raise ConfigError("scoring vector entries must be exact: ints or fractions, no floats")
        for i in range(len(alphas) - 1):
            if alphas[i] < alphas[i + 1]:
                raise ConfigError("scoring vector must be non-increasing")
        if alphas[0] <= alphas[-1]:
            raise ConfigError("scoring vector must satisfy alpha_1 > alpha_m")
        object.__setattr__(self, "alphas", alphas)
        # the leading entries above the last one, less the last one: all that
        # `positional_scores` visits per ballot
        low = alphas[-1]
        object.__setattr__(self, "_excess", tuple(a - low for a in alphas if a != low))
        # the drop per position of an affine vector (Borda and its
        # scalings), else None; read by `positional_scores`.  Its packed
        # paths take vectors of one number type only, so that their scores
        # keep the loops' types.
        step = alphas[0] - alphas[1]
        affine = len(set(map(type, alphas))) == 1 and all(
            a - b == step for a, b in zip(alphas, alphas[1:])
        )
        object.__setattr__(self, "_step", step if affine else None)
        # k when the vector's excess is one entry, of one type, over the top
        # 2^k positions (plurality, 2-approval, ...), else None; read by
        # `positional_scores`
        excess = self._excess
        top = len(excess).bit_length() - 1
        alike = len(set(excess)) == len(set(map(type, excess))) == 1
        object.__setattr__(self, "_top", top if alike and len(excess) == 1 << top else None)

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


# ---------------------------------------------------------------------------
# Weighted-profile internals.  These take (ballot, count) pairs and skip
# instance re-validation, so that search loops can replay candidate ballots
# on top of the table of the rest of the profile cheaply.
# ---------------------------------------------------------------------------


def positional_scores(m: int, profile: Profile, vector: ScoringVector) -> list[Score]:
    """Positional scores of a weighted profile.

    Every position scores at least the last entry, so each ballot adds only
    the excess of the positions that score more, and the last entry times
    the total weight is added once at the end: plurality costs one step per
    ballot class, not m.  An instance's packed classes (`core._Classes`)
    are counted from each candidate's position planes instead.  An affine
    vector's excess at position p is step·(m − 1 − p), so a candidate's
    excess is step times units·(m − 1) less the sum of its positions,
    Σⱼ 2ʲ·popcount(plane j): one `bit_count()` per plane.  A vector that
    scores its top 2ᵏ positions alike counts the units ranking c there,
    units − popcount(OR of planes k and up): plurality ORs them all.  Any
    other vector splits the planes by position (`core.column_masks`), only
    as far as the positions it scores.
    """
    if len(vector) != m:
        raise ConfigError(f"scoring vector length {len(vector)} does not match roster size {m}")
    excess, step = vector._excess, vector._step
    planes, total, profile = getattr(profile, "pack", (None, 0, profile))
    scores: list[Score] = [0] * m
    if planes is not None:
        ones, last, top = (1 << total) - 1, total * (m - 1), vector._top
        for c, own in enumerate(planes):
            # a candidate no unit ranks at a scored position adds nothing,
            # an int 0, as in the loops
            if step is not None:
                below = last - sum(plane.bit_count() << j for j, plane in enumerate(own))
                if below:
                    scores[c] += step * below
            elif top is not None:
                count = total - reduce(or_, own[top:]).bit_count()
                if count:
                    scores[c] += excess[0] * count
            else:
                for a, mask in zip(excess, column_masks(len(excess), own, ones)):
                    if mask:
                        scores[c] += a * mask.bit_count()
    for ballot, w in profile:
        total += w
        if w == 1:
            for a, c in zip(excess, ballot.ranking):
                scores[c] += a
        else:
            for a, c in zip(excess, ballot.ranking):
                scores[c] += a * w
    low = vector.alphas[-1]
    if low:
        base = low * total
        return [s + base for s in scores]
    return scores


def maximin_scores_from_margins(margins: Sequence[Sequence[int]]) -> list[int]:
    m = len(margins)
    if m < 2:
        raise DegenerateRosterError("maximin needs at least two candidates")
    return [min(margins[c][z] for z in range(m) if z != c) for c in range(m)]


def topk_counts(m: int, profile: Profile) -> list[list[int]]:
    """counts[c][l] = number of voters ranking c within the top l (l in 0..m).

    An instance's packed classes (`core._Classes`) are counted candidate by
    candidate: `core.column_masks` splits c's position planes by position.
    """
    planes, units, profile = getattr(profile, "pack", (None, 0, profile))
    first = [[0] * (m + 1) for _ in range(m)]
    if planes is not None:
        ones = (1 << units) - 1
        for row, own in zip(first, planes):
            row[1:] = [mask.bit_count() for mask in column_masks(m, own, ones)]
    for ballot, w in profile:
        for p, c in enumerate(ballot.ranking, 1):
            first[c][p] += w
    for c in range(m):
        row = first[c]
        for l in range(1, m + 1):
            row[l] += row[l - 1]
    return first


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


def stv_loser(counts: Sequence[int], alive: Iterable[int], tb_rank: Sequence[int]) -> int:
    """The candidate an STV round drops: of the `alive` ids, the one with the
    least count; among tied candidates the one latest in the tie-break order,
    so tie-break-favored candidates stay alive."""
    drop = least = None
    for c in alive:
        count = counts[c]
        if drop is None or count < least or count == least and tb_rank[c] > tb_rank[drop]:
            drop, least = c, count
    return drop


def stv_order(m: int, profile: Profile, tb_rank: Sequence[int]) -> list[int]:
    """Elimination order, winner last.

    Each round drops the `stv_loser` of the counts of voters whose ballot
    currently tops each candidate.  Only the ballots that topped the dropped
    candidate move on, each to its next candidate still alive.  An
    instance's packed classes (`core._Classes`) keep each pile of units as a
    mask, and `_hand_over` moves them; the other pairs move as ballots.
    """
    planes, units, profile = getattr(profile, "pack", (None, 0, profile))
    alive = [True] * m
    counts = [0] * m
    piles: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(m)]
    if planes is not None:
        at = [column_masks(m, own, (1 << units) - 1) for own in planes]
        held = [row[0] for row in at]
        counts = [mask.bit_count() for mask in held]
    for ballot, w in profile:
        r = ballot.ranking
        counts[r[0]] += w
        piles[r[0]].append((r, 0, w))
    order: list[int] = []
    for _ in range(m - 1):
        drop = stv_loser(counts, [c for c in range(m) if alive[c]], tb_rank)
        alive[drop] = False
        order.append(drop)
        if planes is not None:
            _hand_over(held[drop], 1, at, alive, held, counts)
        for r, p, w in piles[drop]:
            p += 1
            while not alive[r[p]]:
                p += 1
            counts[r[p]] += w
            piles[r[p]].append((r, p, w))
    order.append(alive.index(True))
    return order


def _hand_over(units: int, p: int, at, alive, held: list[int], counts: list[int]) -> None:
    """Give each of the `units` (a mask), which rank no alive candidate above
    position p, to the first alive one it ranks there or below: into `held[c]`
    and `counts[c]`, read from `at[c][q]`, the units ranking c at q."""
    while units:
        for c, row in enumerate(at):
            got = alive[c] and units & row[p]
            if got:
                units ^= got
                held[c] |= got
                counts[c] += got.bit_count()
        p += 1


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


def _sub_tables(rule: VotingRule, full, table):
    """The inverse of `_add_tables` for every rule but STV."""
    if rule.kind == SCORING:
        return list(map(sub, full, table))
    return [list(map(sub, r, s)) for r, s in zip(full, table)]


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


def winner_from_tally(m: int, table, tb_rank: Sequence[int], rule: VotingRule) -> int:
    """The winner read from a `tally` table: the tie-break-earliest co-winner."""
    return min(co_winners_from_tally(m, table, tb_rank, rule), key=tb_rank.__getitem__)


def winner_from_ballots(
    m: int, profile: Profile, tb_rank: Sequence[int], rule: VotingRule, base=None
) -> int:
    """The winner of `profile`, or, given `base = tally(m, rest, rule)`, of
    `rest + profile`: a replay then costs the table of `profile` only."""
    table = tally(m, profile, rule)
    if base is not None:
        table = _add_tables(rule, base, table)
    return winner_from_tally(m, table, tb_rank, rule)


# ---------------------------------------------------------------------------
# Instance-level operations.
# ---------------------------------------------------------------------------


def winner(instance: ElectionInstance, rule: VotingRule) -> int:
    """The unique winner: tie-break-earliest member of the co-winner set."""
    table = tally(instance.m, instance.classes, rule)
    return winner_from_tally(instance.m, table, instance.tb_rank, rule)


def tally_without(instance: ElectionInstance, rule: VotingRule, full, voters: Iterable[int]):
    """The `tally` table of every voter but `voters` (distinct indices).

    `full` is the `tally` table of the whole profile; the table of the
    listed voters' ballots is subtracted from it, so the rest of the
    profile is never recounted.  For STV, whose table is the profile
    itself, this is `ballots_excluding(voters)`.
    """
    if rule.kind == STV:
        return instance.ballots_excluding(voters)
    return _sub_tables(rule, full, tally(instance.m, instance.ballots_of(voters), rule))
