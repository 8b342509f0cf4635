"""Box geometry: the eight directional relations and page-region membership.

All coordinates are page-normalized to [0, 1] with y increasing downward,
so thresholds below are fractions of the page.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidBBox

# Overlap ratio at and above which two boxes count as aligned on that axis.
OVERLAP_TAU = 0.5
# Dead zone for center displacements; below this the direction is undecidable.
EPSILON = 1e-6


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box, page-normalized, y increasing downward."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise InvalidBBox(f"degenerate box {self.as_tuple()}")
        for v in self.as_tuple():
            if not (0.0 <= v <= 1.0):
                raise InvalidBBox(f"coordinate {v} outside [0, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.x1, self.y1)

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def edge_gap(self, other: "BoundingBox") -> float:
        """Euclidean edge-to-edge distance; zero when the boxes touch/overlap."""
        dx = max(0.0, other.x0 - self.x1, self.x0 - other.x1)
        dy = max(0.0, other.y0 - self.y1, self.y0 - other.y1)
        return (dx * dx + dy * dy) ** 0.5


# Each page side is a half-page predicate on the box center, as (axis, sign):
# center[axis] below 0.5 (sign -1) or above it (+1); axis 0 is x, 1 is y (downward).
_SIDES = {"top": (1, -1), "bottom": (1, 1), "left": (0, -1), "right": (0, 1)}
_OPPOSITE = {side: other for side, (axis, sign) in _SIDES.items()
             for other, half in _SIDES.items() if half == (axis, -sign)}


class SpatialRelation(str, Enum):
    """A direction, named by the page sides it points to ("top-left")."""

    TOP = "top"
    BOTTOM = "bottom"
    LEFT = "left"
    RIGHT = "right"
    TOP_LEFT = "top-left"
    TOP_RIGHT = "top-right"
    BOTTOM_LEFT = "bottom-left"
    BOTTOM_RIGHT = "bottom-right"

    @property
    def sides(self) -> tuple[str, ...]:
        return tuple(self.value.split("-"))

    @property
    def inverse(self) -> "SpatialRelation":
        return SpatialRelation("-".join(_OPPOSITE[side] for side in self.sides))


# Coarse directional queries admit every relation pointing to all of the
# query's sides, which folds the adjacent diagonals into each cardinal.
COARSE_ADMITS = {
    query: frozenset(r for r in SpatialRelation if set(query.sides) <= set(r.sides))
    for query in SpatialRelation
}


def _axis_overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def spatial_relation(a: BoundingBox, b: BoundingBox) -> SpatialRelation | None:
    """Relation of b as seen from a ("b is <relation> of a"), or None.

    Axis alignment is gated by interval overlap relative to the smaller box:
    boxes that overlap strongly on both axes are "the same place" and get no
    relation; strong overlap on exactly one axis yields a cardinal relation
    along the other axis; weak overlap on both yields a diagonal. Center
    displacements inside the EPSILON dead zone stay undecided.
    """
    (acx, acy), (bcx, bcy) = a.center, b.center
    dx = bcx - acx
    dy = bcy - acy
    ox = _axis_overlap(a.x0, a.x1, b.x0, b.x1) / min(a.width, b.width)
    oy = _axis_overlap(a.y0, a.y1, b.y0, b.y1) / min(a.height, b.height)

    if ox >= OVERLAP_TAU and oy >= OVERLAP_TAU:
        return None
    if ox >= OVERLAP_TAU:
        if dy < -EPSILON:
            return SpatialRelation.TOP
        if dy > EPSILON:
            return SpatialRelation.BOTTOM
        return None
    if oy >= OVERLAP_TAU:
        if dx < -EPSILON:
            return SpatialRelation.LEFT
        if dx > EPSILON:
            return SpatialRelation.RIGHT
        return None
    if abs(dx) <= EPSILON or abs(dy) <= EPSILON:
        return None
    if dy < 0:
        return SpatialRelation.TOP_LEFT if dx < 0 else SpatialRelation.TOP_RIGHT
    return SpatialRelation.BOTTOM_LEFT if dx < 0 else SpatialRelation.BOTTOM_RIGHT


REGION_NAMES = tuple(r.value for r in SpatialRelation)

# Each region is the conjunction of its sides' half-page predicates on the
# box center. Centers exactly on the 0.5 split line belong to neither half.
_REGION_HALVES = {r.value: tuple(_SIDES[side] for side in r.sides) for r in SpatialRelation}


def in_region(box: BoundingBox, region: str) -> bool:
    """True when the box center lies in the named page half or quadrant."""
    center = box.center
    for axis, sign in _REGION_HALVES[region]:
        c = center[axis]
        if not (c < 0.5 if sign < 0 else c > 0.5):
            return False
    return True
