"""The dimension-2 closed form on every evaluation set, up to equivalence.

The plain code on uD + v (u != 0) has the enumerator of the code on D, and
the extended code keeps it under translations alone (test_properties.py
checks both against brute force on random sets).  So one representative of
each class of sets of two or more points stands for all of them: cwe_rs2
must equal brute force on each.  The fields up to q = 13 run in tier-1;
q = 16 and 17 are marked `grid`.
"""

import pytest

from rscwe import CodeSpec, build_field, cwe_bruteforce, cwe_equal, cwe_rs2


def affine_maps(ctx, extended):
    """The maps that keep the enumerator, each as the list of its images:
    x -> ux + v (u != 0) when plain, x -> x + v when extended."""
    q = ctx.q
    units = [1] if extended else range(1, q)
    return [[ctx.add(ctx.mul(u, x), v) for x in range(q)] for u in units for v in range(q)]


def set_classes(ctx, extended):
    """One representative, as a tuple of points, of each class of sets of
    two or more points of ctx under affine_maps: the first set of its class
    met in the order of bit masks (point x at bit x)."""
    q = ctx.q
    maps = affine_maps(ctx, extended)
    seen = bytearray(1 << q)
    classes = []
    for mask in range(1 << q):
        if seen[mask] or mask & (mask - 1) == 0:  # seen, empty or one point
            continue
        points = [x for x in range(q) if mask >> x & 1]
        classes.append(tuple(points))
        for image in maps:
            seen[sum(1 << image[x] for x in points)] = 1
    return classes


def burnside_count(ctx, extended):
    """The number of classes set_classes lists, by Burnside's lemma: the
    mean over the maps of the sets of two or more points each one fixes."""
    q = ctx.q
    maps = affine_maps(ctx, extended)
    fixed = 0
    for image in maps:
        cycles, left = 0, set(range(q))
        while left:
            cycles += 1
            x = left.pop()
            while (x := image[x]) in left:
                left.remove(x)
        points = sum(image[x] == x for x in range(q))
        fixed += 2**cycles - 1 - points  # less the empty set and single points
    count, rest = divmod(fixed, len(maps))
    assert rest == 0
    return count


# (plain classes, extended classes) of the largest fields, as first counted
CLASS_COUNTS = {13: (72, 630), 16: (302, 4334), 17: (520, 7710)}

FIELDS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    pytest.param(2, 4, marks=pytest.mark.grid),
    pytest.param(17, 1, marks=pytest.mark.grid),
]


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
@pytest.mark.parametrize("p,m", FIELDS)
def test_rs2_on_every_set_class(p, m, extended):
    ctx = build_field(p, m)
    classes = set_classes(ctx, extended)
    assert len(classes) == burnside_count(ctx, extended)
    if ctx.q in CLASS_COUNTS:
        assert len(classes) == CLASS_COUNTS[ctx.q][extended]
    for alpha in classes:
        closed = cwe_rs2(ctx, alpha, extended)
        assert cwe_equal(closed, cwe_bruteforce(CodeSpec(ctx, 2, alpha, extended))) == (
            True, None
        ), alpha
