import random
from itertools import combinations, permutations

import pytest

from manipdetect.core import ElectionInstance
from manipdetect.detection import DetectionQuery, verify_verdict
from manipdetect.detect_bucklin import cpmw_bucklin
from manipdetect.dispatch import decide_cpm
from manipdetect.errors import InvalidQueryError
from manipdetect.oracle import oracle_cpm, oracle_cpmw
from manipdetect.rules import VotingRule, bucklin_score, winner

from samples import e3, e4

BUCKLIN = VotingRule.bucklin()


def test_e4_setup():
    inst = e4()
    assert winner(inst, BUCKLIN) == 0  # a and b both reach a majority at level 1; tie -> a


def test_e4_yes_with_expected_witness():
    inst = e4()
    verdict = cpmw_bucklin(DetectionQuery(inst, BUCKLIN, (0,), actual_winner=1))
    assert verdict.answer
    assert verdict.witness[0].ranking == (2, 0, 1)  # c>a>b
    assert verify_verdict(inst, BUCKLIN, verdict, suspects=(0,))
    # replay: level-1 counts a=1, b=2, c=1 -> b alone holds a majority
    replayed = inst.with_ballots_replaced(verdict.witness)
    assert bucklin_score(replayed, 1) == 1
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
    rng = random.Random(42)
    found = 0
    for _ in range(100):
        m = rng.randint(2, 4)
        n = rng.randint(1, 5)
        perms = list(permutations(range(m)))
        inst = ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])
        x = winner(inst, BUCKLIN)
        for i in range(n):
            for y in range(m):
                if y == x:
                    continue
                verdict = cpmw_bucklin(DetectionQuery(inst, BUCKLIN, (i,), actual_winner=y))
                if not verdict.answer:
                    continue
                found += 1
                w = verdict.witness[i]
                assert w.position_of(y) == w.position_of(x) + 1
                replayed = inst.with_ballots_replaced(verdict.witness)
                beta = bucklin_score(replayed, y)
                assert w.position_of(x) in {1, beta - 1, beta, beta + 1}
    assert found > 0


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
    # rest of the profile alone already fails x's or y's majority check, so
    # no case composition is ever built
    from manipdetect import detect_bucklin

    calls = []
    original = detect_bucklin._compositions

    def counted(total, parts):
        calls.append((total, parts))
        return original(total, parts)

    monkeypatch.setattr(detect_bucklin, "_compositions", counted)
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
