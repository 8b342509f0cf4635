from __future__ import annotations

import random

import pytest

from docqa_forge import geometry
from docqa_forge.errors import InvalidBBox
from docqa_forge.geometry import (
    BoundingBox,
    COARSE_ADMITS,
    REGION_NAMES,
    SpatialRelation,
    in_region,
    spatial_relation,
)
from docqa_forge.programs import _CARDINALS


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def test_stacked_boxes_are_bottom():
    a = box(0, 0, 1, 0.2)
    b = box(0, 0.5, 1, 0.7)
    assert spatial_relation(a, b) == SpatialRelation.BOTTOM


def test_swapped_arguments_give_top():
    a = box(0, 0, 1, 0.2)
    b = box(0, 0.5, 1, 0.7)
    assert spatial_relation(b, a) == SpatialRelation.TOP


def test_diagonal_bottom_right():
    a = box(0, 0, 0.4, 0.2)
    b = box(0.6, 0.5, 1.0, 0.8)
    assert spatial_relation(a, b) == SpatialRelation.BOTTOM_RIGHT


def test_identical_boxes_have_no_relation():
    a = box(0.1, 0.1, 0.5, 0.5)
    assert spatial_relation(a, a) is None


def test_side_by_side_boxes():
    left = box(0.05, 0.2, 0.45, 0.6)
    right = box(0.55, 0.2, 0.95, 0.6)
    assert spatial_relation(left, right) == SpatialRelation.RIGHT
    assert spatial_relation(right, left) == SpatialRelation.LEFT


def test_every_relation_has_an_involutive_inverse():
    for rel in SpatialRelation:
        assert rel.inverse.inverse == rel


def test_degenerate_box_rejected():
    with pytest.raises(InvalidBBox):
        box(0.5, 0.1, 0.5, 0.2)
    with pytest.raises(InvalidBBox):
        box(0.3, 0.4, 0.2, 0.5)


def test_out_of_range_box_rejected():
    with pytest.raises(InvalidBBox):
        box(-0.1, 0.0, 0.5, 0.5)
    with pytest.raises(InvalidBBox):
        box(0.0, 0.0, 1.2, 0.5)


def test_region_membership_halves_and_quadrants():
    topleft = box(0.1, 0.1, 0.3, 0.3)  # center (0.2, 0.2)
    assert in_region(topleft, "top")
    assert in_region(topleft, "left")
    assert in_region(topleft, "top-left")
    assert not in_region(topleft, "bottom")
    assert not in_region(topleft, "right")
    assert not in_region(topleft, "bottom-right")


def test_center_exactly_on_split_belongs_to_neither_half():
    centered = box(0.25, 0.25, 0.75, 0.75)  # center exactly (0.5, 0.5)
    for region in REGION_NAMES:
        assert not in_region(centered, region)


def test_top_bottom_partition_property():
    rng = random.Random(42)
    for _ in range(500):
        x0 = rng.randint(0, 100) / 128
        y0 = rng.randint(0, 100) / 128
        b = box(x0, y0, x0 + rng.randint(1, 27) / 128, y0 + rng.randint(1, 27) / 128)
        cy = b.center[1]
        in_top, in_bottom = in_region(b, "top"), in_region(b, "bottom")
        if cy == 0.5:
            assert not in_top and not in_bottom
        else:
            assert in_top != in_bottom


def test_exclusivity_never_two_relations():
    # the classifier returns a single value by construction; check the
    # vertical/horizontal gate cannot both fire on crafted near-threshold boxes
    a = box(0.0, 0.0, 0.5, 0.5)
    b = box(0.25, 0.25, 0.75, 0.75)  # 50% overlap on both axes
    assert spatial_relation(a, b) is None


# Pairs whose displacement along one axis is set as the dead zone: (a, b, axis,
# relation of b from a, relation of a from b) while that displacement is outside it.
_DEAD_ZONE_PAIRS = {
    "stacked": (box(0, 0, 1, 0.2), box(0, 0.5, 1, 0.7), 1,
                SpatialRelation.BOTTOM, SpatialRelation.TOP),
    "side-by-side": (box(0.05, 0.2, 0.45, 0.6), box(0.55, 0.2, 0.95, 0.6), 0,
                     SpatialRelation.RIGHT, SpatialRelation.LEFT),
    # diagonal: the other axis moves further, so only this axis can decide
    "diagonal-x": (box(0, 0, 0.2, 0.2), box(0.3, 0.6, 0.5, 0.8), 0,
                   SpatialRelation.BOTTOM_RIGHT, SpatialRelation.TOP_LEFT),
    "diagonal-y": (box(0, 0, 0.2, 0.2), box(0.6, 0.3, 0.8, 0.5), 1,
                   SpatialRelation.BOTTOM_RIGHT, SpatialRelation.TOP_LEFT),
}


@pytest.mark.parametrize("name", list(_DEAD_ZONE_PAIRS))
def test_a_displacement_exactly_at_epsilon_stays_undecided(name, monkeypatch):
    a, b, axis, forward, backward = _DEAD_ZONE_PAIRS[name]
    assert (spatial_relation(a, b), spatial_relation(b, a)) == (forward, backward)
    # b - a and a - b round to the same magnitude, so both signs sit on the bound
    monkeypatch.setattr(geometry, "EPSILON", b.center[axis] - a.center[axis])
    assert spatial_relation(a, b) is None
    assert spatial_relation(b, a) is None


# --- direction tables derived from the relation names ---------------------------
# The tables below are written out by hand, one entry per relation; the
# package derives each from the eight relation names and must agree.

LITERAL_REGION_NAMES = (
    "top", "bottom", "left", "right",
    "top-left", "top-right", "bottom-left", "bottom-right",
)

LITERAL_INVERSE = {
    "top": "bottom", "bottom": "top", "left": "right", "right": "left",
    "top-left": "bottom-right", "bottom-right": "top-left",
    "top-right": "bottom-left", "bottom-left": "top-right",
}

LITERAL_COARSE_ADMITS = {
    "top": {"top", "top-left", "top-right"},
    "bottom": {"bottom", "bottom-left", "bottom-right"},
    "left": {"left", "top-left", "bottom-left"},
    "right": {"right", "top-right", "bottom-right"},
    "top-left": {"top-left"},
    "top-right": {"top-right"},
    "bottom-left": {"bottom-left"},
    "bottom-right": {"bottom-right"},
}

LITERAL_REGION_HALVES = {
    "top": (("y", -1),),
    "bottom": (("y", 1),),
    "left": (("x", -1),),
    "right": (("x", 1),),
    "top-left": (("y", -1), ("x", -1)),
    "top-right": (("y", -1), ("x", 1)),
    "bottom-left": (("y", 1), ("x", -1)),
    "bottom-right": (("y", 1), ("x", 1)),
}


def literal_in_region(b: BoundingBox, region: str) -> bool:
    cx, cy = b.center
    for axis, sign in LITERAL_REGION_HALVES[region]:
        c = cx if axis == "x" else cy
        if sign < 0 and not c < 0.5:
            return False
        if sign > 0 and not c > 0.5:
            return False
    return True


def test_region_names_are_the_relation_names_in_order():
    assert REGION_NAMES == LITERAL_REGION_NAMES
    assert tuple(r.value for r in SpatialRelation) == LITERAL_REGION_NAMES


def test_inverse_matches_the_literal_table():
    assert {r.value: r.inverse.value for r in SpatialRelation} == LITERAL_INVERSE


def test_coarse_admits_matches_the_literal_table():
    assert {q.value: {r.value for r in admitted} for q, admitted in COARSE_ADMITS.items()} \
        == LITERAL_COARSE_ADMITS


def test_cardinals_are_the_one_side_relations():
    assert _CARDINALS == {"top", "bottom", "left", "right"}


def test_in_region_matches_the_literal_halves_on_a_grid():
    # Centers k/16 (0.5 included) plus values just off the split line.
    coords = [k / 16 for k in range(1, 16)] + [0.5 - 2 ** -30, 0.5 + 2 ** -30]
    half = 2 ** -6
    checked = 0
    for cx in coords:
        for cy in coords:
            b = box(cx - half, cy - half, cx + half, cy + half)
            for region in LITERAL_REGION_NAMES:
                assert in_region(b, region) == literal_in_region(b, region), (cx, cy, region)
                checked += 1
    assert checked == 17 * 17 * 8
