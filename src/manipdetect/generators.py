"""Instance construction: prescribed-margin profiles, random profiles, and
hard STV detection instances built from exact-cover-by-3-sets inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

from . import ballotfile, oracle
from .core import ElectionInstance, Preference
from .errors import ValidationError


@dataclass(frozen=True)
class MarginFunction:
    """A target pairwise-margin table: square, zero on the diagonal,
    antisymmetric (`margins[a][b] == -margins[b][a]`) and even throughout."""

    margins: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = self.margins
        m = len(d)
        if any(len(row) != m for row in d):
            raise ValidationError("margin matrix must be square")
        if any(d[a][a] for a in range(m)):
            raise ValidationError("margin matrix must have a zero diagonal")
        if any(d[a][b] != -d[b][a] for a in range(m) for b in range(a)):
            raise ValidationError("margin matrix must be antisymmetric")
        if any(v % 2 for row in d for v in row):
            raise ValidationError("margins must all be even")

    @classmethod
    def from_pairs(cls, m: int, pairs: Mapping[tuple[int, int], int]) -> "MarginFunction":
        """The table of `pairs`, each (a, b) -> v setting v_ab = v and v_ba = -v;
        a pair given in both orientations must agree."""
        table = [[0] * m for _ in range(m)]
        for (a, b), v in pairs.items():
            if not (0 <= a < m and 0 <= b < m):
                raise ValidationError(f"pair ({a},{b}) outside roster 0..{m - 1}")
            if a != b and pairs.get((b, a), -v) != -v:
                raise ValidationError(f"margins of ({a},{b}) and ({b},{a}) disagree")
            table[a][b] = v
            table[b][a] = -v
        return cls(tuple(tuple(row) for row in table))


def mcgarvey_ballots(f: MarginFunction) -> tuple[Preference, ...]:
    """A ballot list realizing the target margins exactly.

    Each unordered pair with margin 2t contributes t ballot pairs
    {a > b > rest-in-roster-order, reversed-rest > a > b}: the pair nets +2 on
    the (a, b) margin and cancels everywhere else, so the total ballot count
    is the sum of |margin| over unordered pairs.  An all-zero table yields an
    empty ballot list, which is a valid margin target but not an election.
    A total past `ballotfile.MAX_BALLOTS` is refused before any ballot is built.
    """
    m = len(f.margins)
    total = sum(abs(v) for row in f.margins for v in row) // 2
    if total > ballotfile.MAX_BALLOTS:
        limit = ballotfile.MAX_BALLOTS
        raise ValidationError(f"margins need {total} ballots; an election holds at most {limit}")
    ballots: list[Preference] = []
    for a in range(m):
        for b in range(a + 1, m):
            v = f.margins[a][b]
            if v == 0:
                continue
            hi, lo = (a, b) if v > 0 else (b, a)
            rest = [c for c in range(m) if c != a and c != b]
            forward = Preference([hi, lo] + rest)
            backward = Preference(list(reversed(rest)) + [hi, lo])
            ballots.extend([forward, backward] * (abs(v) // 2))
    return tuple(ballots)


def random_profile(m: int, n: int, seed: int) -> ElectionInstance:
    """n ballots drawn independently and uniformly, reproducible from the
    seed; n past `ballotfile.MAX_BALLOTS` (read at call time) is refused."""
    if m < 1 or n < 1:
        raise ValidationError("random profile needs m >= 1 and n >= 1")
    limit = ballotfile.MAX_BALLOTS
    if n > limit:
        raise ValidationError(f"{n} ballots asked; an election holds at most {limit}")
    rng = random.Random(seed)
    ballots = []
    base = list(range(m))
    for _ in range(n):
        ballot = base[:]
        rng.shuffle(ballot)
        ballots.append(ballot)
    return ElectionInstance([f"c{i}" for i in range(m)], ballots)


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: a universe 1..n (n divisible by 3) and 3-element subsets."""

    universe: int
    triples: tuple[tuple[int, int, int], ...]

    def __init__(self, universe: int, triples: Iterable[Sequence[int]]):
        if universe % 3 != 0 or universe <= 0:
            raise ValidationError("universe size must be a positive multiple of 3")
        norm = []
        for t in triples:
            t = tuple(sorted(t))
            if len(t) != 3 or len(set(t)) != 3:
                raise ValidationError(f"subset {t!r} is not a 3-element set")
            if not all(1 <= e <= universe for e in t):
                raise ValidationError(f"subset {t!r} leaves the universe 1..{universe}")
            norm.append(t)
        if not norm:
            raise ValidationError("at least one subset is required")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "triples", tuple(norm))


def find_exact_cover(inst: X3CInstance) -> tuple[int, ...] | None:
    """Brute-force search for an exact cover; returns 0-based triple indices.
    Past `oracle.DEFAULT_SUBSET_BUDGET` (read at call time) choices of
    universe/3 triples, it refuses before it starts."""
    want = set(range(1, inst.universe + 1))
    size = inst.universe // 3
    cost, budget = comb(len(inst.triples), size), oracle.DEFAULT_SUBSET_BUDGET
    if cost > budget:
        raise ValidationError(f"exact-cover search needs {cost} subsets, budget is {budget}")
    for idxs in combinations(range(len(inst.triples)), size):
        covered: set[int] = set()
        for i in idxs:
            covered.update(inst.triples[i])
        if covered == want:
            return idxs
    return None


@dataclass(frozen=True)
class StvGadget:
    """An STV detection instance built from an X3C input.

    The suspect votes for the reported winner x first; replaying the
    cover-derived ballot of `cover_witness_ballot` elects the target y exactly
    when the chosen triples form an exact cover.
    """

    instance: ElectionInstance
    suspect: int
    reported_winner: int  # x
    target: int  # y
    source: X3CInstance


def _gadget_names(mm: int, n: int) -> list[str]:
    names = ["x", "y"]
    names += [f"a{i}" for i in range(1, mm + 1)]
    names += [f"abar{i}" for i in range(1, mm + 1)]
    names += [f"b{i}" for i in range(1, mm + 1)]
    names += [f"bbar{i}" for i in range(1, mm + 1)]
    names += [f"d{i}" for i in range(0, n + 1)]
    names += [f"g{i}" for i in range(1, mm + 1)]
    return names


def x3c_to_stv(inst: X3CInstance) -> StvGadget:
    """Build the STV election in which an exact cover makes the suspect a
    possible manipulator against the target.

    A cover implies a YES single-suspect CPMW against y, witnessed by
    `cover_witness_ballot`.  The converse fails: X3CInstance(6, [(1, 2, 3),
    (3, 4, 5), (1, 5, 6)]) has no exact cover, yet the ballot
    a1 > a2 > a3 > d0 > x > y > ... elects y in its gadget.

    Vote counts follow a fixed table over the roster x, y, a_i, abar_i, b_i,
    bbar_i, d_0..d_n, g_i; unspecified ballot tails are filled in roster
    order.  The tie-break order protects y and the d-block, resolves each
    (a_i, abar_i) elimination tie by dropping a_i, and puts x last.
    """
    n = inst.universe
    mm = len(inst.triples)
    names = _gadget_names(mm, n)
    ids = {name: i for i, name in enumerate(names)}
    m = len(names)

    def prefix_ballot(*front: str) -> list[int]:
        head = [ids[name] for name in front]
        seen = set(head)
        return head + [c for c in range(m) if c not in seen]

    votes: list[tuple[int, list[int]]] = []
    votes.append((12 * mm, prefix_ballot("y", "x")))
    votes.append((12 * mm - 1, prefix_ballot("x", "y")))
    votes.append((10 * mm + 2 * n // 3, prefix_ballot("d0", "x", "y")))
    for i in range(1, n + 1):
        votes.append((12 * mm - 2, prefix_ballot(f"d{i}", "x", "y")))
    for i in range(1, mm + 1):
        votes.append((12 * mm, prefix_ballot(f"g{i}", "x", "y")))
    for i in range(1, mm + 1):
        votes.append((6 * mm + 4 * i - 5, prefix_ballot(f"b{i}", f"bbar{i}", "x", "y")))
        for j in inst.triples[i - 1]:
            votes.append((2, prefix_ballot(f"b{i}", f"d{j}", "x", "y")))
        votes.append((6 * mm + 4 * i - 1, prefix_ballot(f"bbar{i}", f"b{i}", "x", "y")))
        votes.append((2, prefix_ballot(f"bbar{i}", "d0", "x", "y")))
        votes.append((6 * mm + 4 * i - 3, prefix_ballot(f"a{i}", f"g{i}", "x", "y")))
        votes.append((1, prefix_ballot(f"a{i}", f"b{i}", f"g{i}", "x", "y")))
        votes.append((2, prefix_ballot(f"a{i}", f"abar{i}", f"g{i}", "x", "y")))
        votes.append((6 * mm + 4 * i - 3, prefix_ballot(f"abar{i}", f"g{i}", "x", "y")))
        votes.append((1, prefix_ballot(f"abar{i}", f"bbar{i}", f"g{i}", "x", "y")))
        votes.append((2, prefix_ballot(f"abar{i}", f"a{i}", f"g{i}", "x", "y")))

    suspect_index = sum(count for count, _ in votes)
    votes.append((1, prefix_ballot("x")))

    # Tie-break: y first, then the d-block, then g, b, bbar, abar, a, x last.
    # Dropping the tie-break-last candidate must take a_i before abar_i (so
    # the default elimination keeps every bbar-before-b pattern) and must
    # never take y or a d-candidate ahead of the pair blocks.
    tb_names = (
        ["y"]
        + [f"d{i}" for i in range(0, n + 1)]
        + [f"g{i}" for i in range(1, mm + 1)]
        + [f"b{i}" for i in range(1, mm + 1)]
        + [f"bbar{i}" for i in range(1, mm + 1)]
        + [f"abar{i}" for i in range(1, mm + 1)]
        + [f"a{i}" for i in range(1, mm + 1)]
        + ["x"]
    )
    tiebreak = Preference([ids[name] for name in tb_names])

    instance = ElectionInstance(
        names, [ballot for _, ballot in votes], tiebreak, counts=[count for count, _ in votes]
    )
    return StvGadget(instance, suspect_index, ids["x"], ids["y"], inst)


def cover_witness_ballot(gadget: StvGadget, cover: Iterable[int]) -> Preference:
    """The suspect ballot derived from an exact cover (0-based triple indices).

    The ballot tops the a-candidates of the chosen triples in index order so
    each of their elimination ties flips, then parks on a long-lived
    g-candidate before reaching x > y; that keeps x one vote short at the
    decisive round.
    """
    inst = gadget.instance
    names = list(inst.names)
    ids = {name: i for i, name in enumerate(names)}
    chosen = sorted(set(cover))
    mm = len(gadget.source.triples)
    for i in chosen:
        if not 0 <= i < mm:
            raise ValidationError(f"triple index {i} outside 0..{mm - 1}")
    head = [ids[f"a{i + 1}"] for i in chosen] + [ids["g1"], gadget.reported_winner, gadget.target]
    seen = set(head)
    return Preference(head + [c for c in range(inst.m) if c not in seen])
