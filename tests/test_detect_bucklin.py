import random
import signal
from itertools import combinations, permutations

import pytest

from manipdetect.ballotfile import parse_election
from manipdetect.core import ElectionInstance
from manipdetect import detect_bucklin
from manipdetect.detection import DetectionQuery, verify_verdict
from manipdetect.detect_bucklin import cpmw_bucklin
from manipdetect.dispatch import decide_cpm, decide_cpmsw
from manipdetect.errors import InvalidQueryError
from manipdetect.oracle import oracle_cpm, oracle_cpmw
from manipdetect.rules import VotingRule, bucklin_levels_from_counts, topk_counts, winner

from samples import e3, e4

BUCKLIN = VotingRule.bucklin()


def test_e4_setup():
    inst = e4()
    assert winner(inst, BUCKLIN) == 0  # a and b both reach a majority at level 1; tie -> a


def test_e4_yes_with_expected_witness():
    inst = e4()
    verdict = cpmw_bucklin(DetectionQuery(inst, BUCKLIN, (0,), actual_winner=1))
    assert verdict.answer
    # b reaches a majority at level 1 without v0, so v0's ballot is a
    # non-helping one at level 1: its top holds c, then a, then b
    assert verdict.witness[0].ranking == (2, 0, 1)  # c>a>b
    assert verify_verdict(inst, BUCKLIN, verdict, suspects=(0,))
    # replay: level-1 counts a=1, b=2, c=1 -> b alone holds a majority
    replayed = inst.with_ballots_replaced(verdict.witness)
    assert bucklin_levels_from_counts(topk_counts(3, replayed.classes))[1] == 1
    assert winner(replayed, BUCKLIN) == 1


def test_e3_no():
    assert not cpmw_bucklin(DetectionQuery(e3(), BUCKLIN, (0,), actual_winner=1)).answer


def test_rejects_current_winner_target():
    with pytest.raises(InvalidQueryError):
        cpmw_bucklin(DetectionQuery(e4(), BUCKLIN, (0,), actual_winner=0))


def test_cpm_examples():
    assert decide_cpm(e4(), BUCKLIN, (0,)).answer
    assert not decide_cpm(e3(), BUCKLIN, (0,)).answer


def test_cpm_unanimous_profile_single_suspect_no():
    inst = ElectionInstance(("a", "b", "c"), [(0, 1, 2)] * 4)
    assert not decide_cpm(inst, BUCKLIN, (1,)).answer


def test_witness_realizes_an_enumerated_level():
    # Every witness ballot ranks x above y and has one of the two shapes at
    # y's level beta in the replay: helping (x, y on top) or non-helping
    # (y just below the top beta, x directly above y if not inside it).
    rng = random.Random(42)
    found = helping = 0
    for _ in range(150):
        m = rng.randint(2, 5)
        n = rng.randint(1, 6)
        perms = list(permutations(range(m)))
        inst = ElectionInstance(
            [f"c{i}" for i in range(m)],
            [rng.choice(perms) for _ in range(n)],
            tiebreak=rng.sample(range(m), m),
        )
        x = winner(inst, BUCKLIN)
        suspects = tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
        for y in range(m):
            if y == x:
                continue
            verdict = cpmw_bucklin(DetectionQuery(inst, BUCKLIN, suspects, actual_winner=y))
            if not verdict.answer:
                continue
            found += 1
            replayed = inst.with_ballots_replaced(verdict.witness)
            assert winner(replayed, BUCKLIN) == y
            beta = bucklin_levels_from_counts(topk_counts(m, replayed.classes))[y]
            for w in verdict.witness.values():
                assert w.prefers(x, y)
                # 1-based positions, as Bucklin levels count
                py, px = w.ranking.index(y) + 1, w.ranking.index(x) + 1
                if py <= beta:
                    helping += 1
                    assert w.ranking[:2] == (x, y)
                else:
                    assert py in {beta + 1, beta + 2}
                    if py == beta + 2:
                        assert px == beta + 1
    assert found > 0 and helping > 0


def test_matches_oracle_singles():
    rng = random.Random(55)
    for _ in range(120):
        m = rng.randint(2, 4)
        n = rng.randint(1, 5)
        perms = list(permutations(range(m)))
        tb = list(range(m))
        rng.shuffle(tb)
        inst = ElectionInstance(
            [f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)], tiebreak=tb
        )
        x = winner(inst, BUCKLIN)
        for i in range(n):
            for y in range(m):
                if y == x:
                    continue
                got = cpmw_bucklin(DetectionQuery(inst, BUCKLIN, (i,), actual_winner=y))
                want = oracle_cpmw(inst, BUCKLIN, (i,), y)
                assert got.answer == want.answer, (inst.ballots, tb, i, y)
                assert verify_verdict(inst, BUCKLIN, got, suspects=(i,))


def test_matches_oracle_pairs():
    rng = random.Random(56)
    for _ in range(40):
        m = rng.randint(2, 4)
        n = rng.randint(2, 5)
        perms = list(permutations(range(m)))
        inst = ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])
        x = winner(inst, BUCKLIN)
        for pair in combinations(range(n), 2):
            for y in range(m):
                if y == x:
                    continue
                got = cpmw_bucklin(DetectionQuery(inst, BUCKLIN, pair, actual_winner=y))
                want = oracle_cpmw(inst, BUCKLIN, pair, y)
                assert got.answer == want.answer, (inst.ballots, pair, y)
                assert verify_verdict(inst, BUCKLIN, got, suspects=pair)


def test_cpm_matches_oracle():
    rng = random.Random(57)
    for _ in range(50):
        m = rng.randint(2, 4)
        n = rng.randint(1, 4)
        perms = list(permutations(range(m)))
        inst = ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])
        for i in range(n):
            got = decide_cpm(inst, BUCKLIN, (i,))
            want = oracle_cpm(inst, BUCKLIN, (i,))
            assert got.answer == want.answer


def test_landslide_no_rules_out_every_level_before_enumeration(monkeypatch):
    # x tops every ballot and y is never above third: at every level the
    # rest of the profile alone already leaves x over its cap or y short of
    # a majority, so no flow network is ever built
    from manipdetect import detect_bucklin

    calls = []
    original = detect_bucklin._fit

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(detect_bucklin, "_fit", counted)
    m = 5
    inst = ElectionInstance(
        [f"c{i}" for i in range(m)],
        [(0, 1, 2, 3, 4), (0, 2, 1, 4, 3), (0, 1, 3, 2, 4)] * 3,
        tiebreak=(4, 3, 2, 1, 0),
    )
    for y in range(1, m):
        for suspects in ((0,), (0, 4), (1, 2, 5)):
            verdict = cpmw_bucklin(DetectionQuery(inst, BUCKLIN, suspects, actual_winner=y))
            assert not verdict.answer
            assert not oracle_cpmw(inst, BUCKLIN, suspects, y).answer
    assert calls == []


def _planted_boundary(rng, m, c, e):
    """An election that x = c0 wins under both tie-break orders of x and a
    target y, with c suspects among the t = maj + e + c ballots x tops: once
    their ballots are out, x tops maj + e, so x's level-1 cap in the
    full-table pass (x before y) is -1 - e.  Returns (ballots, suspects, y,
    the tie-break order of the other candidates)."""
    while True:
        n = rng.randint(2 * c + 2, 2 * c + 8)
        t = (n + 1) // 2 + e + c
        if t > n:
            continue
        ballots = [[0] + rng.sample(range(1, m), m - 1) for _ in range(t)]
        for _ in range(n - t):
            ranking = rng.sample(range(1, m), m - 1)
            ranking.insert(rng.randint(1, m - 1), 0)
            ballots.append(ranking)
        rng.shuffle(ballots)
        suspects = tuple(sorted(rng.sample([i for i, b in enumerate(ballots) if b[0] == 0], c)))
        y = rng.randrange(1, m)
        others = rng.sample([z for z in range(1, m) if z != y], m - 2)
        names = [f"c{i}" for i in range(m)]
        if all(
            winner(ElectionInstance(names, ballots, tiebreak=[*pair, *others]), BUCKLIN) == 0
            for pair in ((0, y), (y, 0))
        ):
            return ballots, suspects, y, others


def _boundary_differential(monkeypatch, m, c, trials):
    """Bucklin CPMW against the oracle on `_planted_boundary` elections, with
    x's full-table cap at 1, 0 and -1, under both tie-break orders of x and
    y; every YES is replayed.  Returns how many verdicts the full-table pass
    decided alone, how many it let through to the rest-of-profile table,
    and how many YES there were."""
    passes = []
    original = detect_bucklin._levels

    def spy(table, slack, *args):
        record = [slack, False]  # did any level pass
        passes.append(record)
        for level in original(table, slack, *args):
            record[1] = True
            yield level

    monkeypatch.setattr(detect_bucklin, "_levels", spy)
    rng = random.Random(f"boundary-{m}-{c}")
    names = [f"c{i}" for i in range(m)]
    bound = through = yes = 0
    for _ in range(trials):
        for e in (-2, -1, 0):
            ballots, suspects, y, others = _planted_boundary(rng, m, c, e)
            for pair in ((0, y), (y, 0)):
                inst = ElectionInstance(names, ballots, tiebreak=[*pair, *others])
                passes.clear()
                got = cpmw_bucklin(DetectionQuery(inst, BUCKLIN, suspects, actual_winner=y))
                want = oracle_cpmw(inst, BUCKLIN, suspects, y)
                assert got.answer == want.answer, (ballots, pair, others, suspects)
                assert verify_verdict(inst, BUCKLIN, got, suspects=suspects)
                assert passes[0][0] == c  # the full-table pass runs first, caps raised by |M|
                if passes[0][1]:
                    through += 1
                else:
                    assert len(passes) == 1 and not got.answer
                    bound += 1
                yes += got.answer
    return bound, through, yes


@pytest.mark.parametrize("m, c", [(3, 1), (4, 2), (4, 3), (5, 2)])
def test_full_table_pass_matches_oracle_at_the_cap_boundary(monkeypatch, m, c):
    bound, through, yes = _boundary_differential(monkeypatch, m, c, trials=6)
    assert bound and through and yes


@pytest.mark.slow
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_full_table_pass_matches_oracle_at_the_cap_boundary_long(monkeypatch, m, c):
    # the oracle walks about C(362, 3) = 7.8 * 10^6 leaves per NO at m = 6
    trials = {(6, 3): 1, (6, 2): 4, (5, 3): 4}.get((m, c), 12)
    bound, through, _ = _boundary_differential(monkeypatch, m, c, trials)
    assert bound and through


def test_full_table_no_never_builds_the_rest_of_profile_table(monkeypatch):
    # x tops 7 of 10 ballots, so no two voters take x under a majority at
    # any level: CPMW, CPM and CPMSW answer NO before any `rest` is read
    def unread(query):
        raise AssertionError("rest-of-profile table built")

    monkeypatch.setattr(DetectionQuery, "rest", property(unread))
    m = 5
    inst = ElectionInstance(
        [f"c{i}" for i in range(m)],
        [(0, 1, 2, 3, 4), (0, 2, 1, 4, 3), (0, 3, 4, 1, 2), (0, 4, 3, 2, 1)]
        + [(0, 1, 2, 3, 4), (0, 2, 1, 4, 3), (0, 3, 4, 1, 2)]
        + [(1, 2, 0, 3, 4), (2, 1, 3, 0, 4), (3, 4, 1, 2, 0)],
    )
    assert winner(inst, BUCKLIN) == 0
    for y in range(1, m):
        assert not cpmw_bucklin(DetectionQuery(inst, BUCKLIN, (0, 9), actual_winner=y)).answer
        assert not decide_cpmsw(inst, BUCKLIN, y, 2).answer
    assert not decide_cpm(inst, BUCKLIN, (0, 9)).answer


# Two skewed NO instances on which a search over x's positions with a
# backtracking fill ran for minutes; each must decide in well under a second.
SKEWED = [
    (
        """candidates: c0,c1,c2,c3,c4,c5,c6
tiebreak: c0,c4,c6,c1,c5,c2,c3
c5>c6>c2>c3>c0>c1>c4
c4>c3>c0>c2>c6>c5>c1
c5>c6>c2>c3>c0>c1>c4
c4>c3>c0>c2>c6>c5>c1
3x c5>c6>c2>c3>c0>c1>c4
c4>c3>c0>c2>c6>c5>c1
c5>c6>c2>c3>c0>c1>c4
""",
        (0, 2, 3, 5, 6, 8),
        "c2",
    ),
    (
        """candidates: c0,c1,c2,c3,c4,c5,c6
tiebreak: c0,c5,c2,c3,c1,c4,c6
c1>c4>c2>c5>c0>c3>c6
c0>c5>c2>c4>c6>c3>c1
c1>c3>c6>c4>c0>c5>c2
c0>c5>c2>c4>c6>c3>c1
2x c1>c4>c2>c5>c0>c3>c6
4x c1>c3>c6>c4>c0>c5>c2
2x c1>c4>c2>c5>c0>c3>c6
c0>c5>c2>c4>c6>c3>c1
""",
        (2, 3, 4, 5, 10, 12),
        "c4",
    ),
]


@pytest.mark.parametrize("text, suspects, target", SKEWED, ids=["seven-by-nine", "seven-by-thirteen"])
def test_skewed_no_decides_without_search(text, suspects, target):
    inst = parse_election(text)
    query = DetectionQuery(inst, BUCKLIN, suspects, actual_winner=inst.names.index(target))

    def timeout(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        verdict = cpmw_bucklin(query)
    except TimeoutError:
        verdict = None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if verdict is None:
        pytest.fail("Bucklin CPMW took over 5 s", pytrace=False)
    assert not verdict.answer


def test_split_deals_every_holding_to_distinct_slots():
    # Holdings summed from random ballots, as a saturating flow gives them,
    # are dealt back out in full: each ballot holds `demand` distinct
    # candidates, and every capped and free holding is used.
    from manipdetect.detect_bucklin import _split

    rng = random.Random(71)
    for _ in range(400):
        pool = list(range(rng.randint(1, 7)))
        late = set(rng.sample(pool, rng.randint(0, len(pool))))
        count, demand = rng.randint(0, 6), rng.randint(0, len(pool))
        capped = dict.fromkeys(pool, 0)
        free = dict.fromkeys(pool, 0)
        for _ in range(count):
            ballot = rng.sample(pool, demand)
            spare = next((z for z in ballot if z in late), None)
            for z in ballot:
                if z == spare and rng.random() < 0.7:
                    free[z] += 1
                else:
                    capped[z] += 1
        tops = _split(count, demand, ["head"], capped, free)
        assert len(tops) == count
        for top in tops:
            assert top[0] == "head" and len(top) == demand + 1 == len(set(top))
        assert not any(capped.values()) and not any(free.values())
