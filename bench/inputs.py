"""Election inputs written by the benchmark itself.

Every input is drawn from a `random.Random` seeded by the workload name and
the run seed, and written straight into the ballot-file format (including
`tiebreak:` and `Nx` lines).  Nothing here calls the program's generators or
renderer, so a change to the program cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Election:
    """One generated election: ballots as (ranking, count) lines in file order."""

    names: tuple[str, ...]
    lines: tuple[tuple[tuple[int, ...], int], ...]
    tiebreak: tuple[int, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def n(self) -> int:
        return sum(count for _, count in self.lines)

    @property
    def order(self) -> tuple[int, ...]:
        """The tie-break order the file declares (the roster order by default)."""
        return self.tiebreak if self.tiebreak is not None else tuple(range(self.m))

    def text(self) -> str:
        names = self.names
        out = ["candidates: " + ",".join(names)]
        if self.tiebreak is not None:
            out.append("tiebreak: " + ",".join(names[c] for c in self.tiebreak))
        for ranking, count in self.lines:
            body = ">".join(names[c] for c in ranking)
            out.append(body if count == 1 else f"{count}x {body}")
        return "\n".join(out) + "\n"



def names_for(m: int) -> tuple[str, ...]:
    return tuple(f"c{i:02d}" for i in range(m))


def shuffled(rng: random.Random, m: int) -> tuple[int, ...]:
    order = list(range(m))
    rng.shuffle(order)
    return tuple(order)


def tallied(rankings) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple(Counter(rankings).items())


def wide(rng: random.Random, m: int = 20, n: int = 10_000) -> Election:
    """n uniform random rankings of m candidates, all distinct, one line each."""
    seen: set[tuple[int, ...]] = set()
    lines = []
    while len(lines) < n:
        ranking = shuffled(rng, m)
        if ranking not in seen:
            seen.add(ranking)
            lines.append((ranking, 1))
    return Election(names_for(m), tuple(lines))


def tall(rng: random.Random, m: int = 5, n: int = 100_000, distinct: int = 120) -> Election:
    """n voters over `distinct` rankings with Zipf-skewed `Nx` counts, random tie-break."""
    rankings: set[tuple[int, ...]] = set()
    while len(rankings) < distinct:
        rankings.add(shuffled(rng, m))
    order = sorted(rankings)
    rng.shuffle(order)
    weights = [1.0 / (r + 1) ** 1.1 for r in range(len(order))]
    total = sum(weights)
    counts = [max(1, int(n * w / total)) for w in weights]
    counts[0] += n - sum(counts)
    return Election(names_for(m), tuple(zip(order, counts)), shuffled(rng, m))


def small(rng: random.Random, m: int) -> Election:
    """n in 7..15 uniform rankings, repeats tallied, default or random tie-break."""
    n = rng.randint(7, 15)
    lines = tallied(shuffled(rng, m) for _ in range(n))
    tiebreak = shuffled(rng, m) if rng.random() < 0.5 else None
    return Election(names_for(m), lines, tiebreak)


def _with_top(rng: random.Random, m: int, top: tuple[int, ...]) -> tuple[int, ...]:
    """A random ranking that starts with `top`."""
    return top + tuple(c for c in shuffled(rng, m) if c not in top)


def landslide(rng: random.Random, m: int, n: int) -> tuple[Election, int]:
    """A random winner x ranked first by 70% of the voters; returns (election, x).

    No coalition of at most two voters can change the outcome under any rule
    the benchmark queries, so every such search must scan all coalitions.
    """
    x = rng.randrange(m)
    tops = -(-7 * n // 10)
    rankings = [_with_top(rng, m, (x,)) for _ in range(tops)]
    while len(rankings) < n:
        ranking = shuffled(rng, m)
        if ranking[0] != x:
            rankings.append(ranking)
    rng.shuffle(rankings)
    return Election(names_for(m), tuple((r, 1) for r in rankings)), x


def planted(rng: random.Random, m: int, n: int) -> tuple[Election, int, int]:
    """A planted near-tie that voter 0 alone can break; returns (election, x, y).

    n is even.  x tops n/2 ballots (x > y > ...), y tops n/2 - 1 and one voter
    tops a third candidate; the tie-break order puts y first and x second.
    x wins under plurality and Bucklin, and voter 0, who ranks x first, can
    hand the win to y while still ranking x above y, so a search for a
    coalition against y succeeds at its first subset.
    """
    x, y = rng.sample(range(m), 2)
    z = rng.choice([c for c in range(m) if c not in (x, y)])
    rest = [_with_top(rng, m, (x, y)) for _ in range(n // 2 - 1)]
    rest += [_with_top(rng, m, (y,)) for _ in range(n // 2 - 1)]
    rest.append(_with_top(rng, m, (z,)))
    rng.shuffle(rest)
    rankings = [_with_top(rng, m, (x, y))] + rest
    tiebreak = (y, x) + tuple(c for c in shuffled(rng, m) if c not in (x, y))
    return Election(names_for(m), tuple((r, 1) for r in rankings), tiebreak), x, y
