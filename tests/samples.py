"""Small elections shared across the test modules.

Candidate ids follow listing order, e.g. for roster a,b,c: a=0, b=1, c=2.
"""

from manipdetect.core import ElectionInstance

A, B, C = 0, 1, 2


def reference_margin(instance: ElectionInstance, a: int, b: int) -> int:
    """How many voters rank `a` above `b`, minus how many rank `b` above `a`,
    counted class by class with `Preference.prefers`: a reference for
    `core.margin_matrix` that shares none of its code."""
    if a == b:
        return 0
    return sum(w if pref.prefers(a, b) else -w for pref, w in instance.classes)


def e1() -> ElectionInstance:
    # v0: a>c>b, v1: b>a>c, v2: b>a>c; tie-break a>b>c
    return ElectionInstance(("a", "b", "c"), [(A, C, B), (B, A, C), (B, A, C)])


def e2() -> ElectionInstance:
    return ElectionInstance(("a", "b", "c"), [(A, B, C), (A, C, B), (B, A, C)])


def e3() -> ElectionInstance:
    return ElectionInstance(("a", "b", "c"), [(A, B, C), (B, A, C), (C, A, B)])


def e4() -> ElectionInstance:
    # v0 is the suspect in the Bucklin examples
    return ElectionInstance(("a", "b", "c"), [(A, C, B), (A, B, C), (B, C, A), (B, A, C)])


def e5() -> ElectionInstance:
    return ElectionInstance(
        ("a", "b", "c"),
        [(A, C, B), (A, C, B), (B, A, C), (B, A, C), (B, A, C)],
    )


def e6() -> ElectionInstance:
    # roster a, b, y with tie-break y>a>b; v0 is the suspect
    return ElectionInstance(
        ("a", "b", "y"),
        [(0, 1, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1)],
        tiebreak=(2, 0, 1),
    )
