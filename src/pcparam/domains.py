"""Planar parameter domains built from line and circular-arc segments.

A domain is one outer loop plus zero or more hole loops; each loop is a
closed chain of segments (endpoints matching within 1e-9). The region is
closed: points within 1e-12 of the outer or hole boundaries count as
inside. Every other point is classified by the even-odd rule on a
horizontal ray to its right, counted with the half-open crossing rule
(Haines, "Point in Polygon Strategies", Graphics Gems IV, 1994): each
segment is cut into y-monotone pieces (a line is one piece, a horizontal
line none, an arc is cut where it turns in y), and a piece from y0 to y1
crosses the ray of (px, py) when (y0 > py) != (y1 > py) and px lies left
of the piece at height py. Each loop vertex takes one y value, the start y
of the segment that begins there, so a ray through a vertex counts both
pieces that meet there by that one value. Loops are assumed
non-self-intersecting (not checked).

Samplers are deterministic per seed: area sampling rejects from the bounding
box, boundary sampling is proportional to arc length across all loops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Line",
    "Arc",
    "Domain",
    "domain_to_json",
    "domain_from_json",
    "save_domain",
    "load_domain",
    "preset_domain",
    "PRESETS",
]

TWO_PI = 2.0 * math.pi
_CHAIN_TOL = 1e-9
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Line:
    start: tuple[float, float]
    end: tuple[float, float]

    def __post_init__(self) -> None:
        a = np.asarray(self.start, dtype=np.float64)
        b = np.asarray(self.end, dtype=np.float64)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("non-finite line endpoint")
        if np.linalg.norm(b - a) <= 1e-12:
            raise ValueError(f"zero-length line segment at {self.start}")
        object.__setattr__(self, "start", (float(a[0]), float(a[1])))
        object.__setattr__(self, "end", (float(b[0]), float(b[1])))

    @property
    def p0(self) -> np.ndarray:
        return np.array(self.start)

    @property
    def p1(self) -> np.ndarray:
        return np.array(self.end)

    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))

    def point_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return self.p0 + np.multiply.outer(t, self.p1 - self.p0)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        e = self.p1 - self.p0
        t = np.clip(((pts - self.p0) @ e) / (e @ e), 0.0, 1.0)
        proj = self.p0 + t[:, None] * e
        return np.linalg.norm(pts - proj, axis=1)

    def pieces(self, y_end: float) -> list:
        """The y-monotone pieces (y0, y1, x_at) of the segment, ending at the
        y its loop gives the end vertex; x_at(py) is the piece's x at py."""
        (x0, y0), (x1, _) = self.start, self.end
        if y_end == y0:
            return []
        slope = (x1 - x0) / (y_end - y0)
        return [(y0, y_end, lambda py: x0 + (py - y0) * slope)]

    def polyline(self, step: float) -> np.ndarray:
        k = max(int(math.ceil(self.length() / step)), 1)
        return self.point_at(np.arange(k) / k)


@dataclass(frozen=True)
class Arc:
    """Circular arc from start_angle to end_angle, ccw or cw.

    Equal angles denote a full circle. Angles are radians; the traversed
    sweep never exceeds one full turn.
    """

    center: tuple[float, float]
    radius: float
    start_angle: float
    end_angle: float
    ccw: bool = True

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=np.float64)
        if not (np.isfinite(c).all() and np.isfinite(self.radius)):
            raise ValueError("non-finite arc data")
        if self.radius <= 0:
            raise ValueError(f"arc radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", (float(c[0]), float(c[1])))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "start_angle", float(self.start_angle))
        object.__setattr__(self, "end_angle", float(self.end_angle))

    @property
    def c(self) -> np.ndarray:
        return np.array(self.center)

    @property
    def sweep(self) -> float:
        """Signed sweep; positive ccw, negative cw, magnitude in (0, 2 pi]."""
        if self.ccw:
            d = (self.end_angle - self.start_angle) % TWO_PI
            return d if d > 0 else TWO_PI
        d = (self.start_angle - self.end_angle) % TWO_PI
        return -(d if d > 0 else TWO_PI)

    @property
    def full_circle(self) -> bool:
        return abs(abs(self.sweep) - TWO_PI) < 1e-12

    def length(self) -> float:
        return abs(self.sweep) * self.radius

    def point_at(self, t) -> np.ndarray:
        ang = self.start_angle + np.asarray(t, dtype=np.float64) * self.sweep
        return self.c + self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def _rel_angle(self, ang: np.ndarray) -> np.ndarray:
        """Angle measured from start along the traversal direction, in [0, 2pi)."""
        sgn = 1.0 if self.sweep > 0 else -1.0
        return (sgn * (ang - self.start_angle)) % TWO_PI

    def distance(self, pts: np.ndarray) -> np.ndarray:
        v = pts - self.c
        rho = np.linalg.norm(v, axis=1)
        ring = np.abs(rho - self.radius)
        if self.full_circle:
            return ring
        ang = np.arctan2(v[:, 1], v[:, 0])
        on_arc = self._rel_angle(ang) <= abs(self.sweep)
        d_start = np.linalg.norm(pts - self.point_at(0.0), axis=1)
        d_end = np.linalg.norm(pts - self.point_at(1.0), axis=1)
        return np.where(on_arc, ring, np.minimum(d_start, d_end))

    def pieces(self, y_end: float) -> list:
        """The y-monotone pieces (y0, y1, x_at) of the arc, cut at the angles
        pi/2 + k pi strictly inside its sweep, the last ending at the y its
        loop gives the end vertex; x_at(py) is the piece's x at py."""
        (cx, cy), r = self.center, self.radius
        sgn = 1.0 if self.sweep > 0 else -1.0
        span = abs(self.sweep)
        cuts = np.array([0.5 * math.pi, 1.5 * math.pi])
        inner = sorted((float(t), cy + r * math.sin(c))
                       for t, c in zip(self._rel_angle(cuts), cuts) if 0.0 < t < span)
        ends = [(0.0, float(self.point_at(0.0)[1])), *inner, (span, y_end)]
        out = []
        for (ra, ya), (rb, yb) in zip(ends, ends[1:]):
            side = 1.0 if math.cos(self.start_angle + sgn * 0.5 * (ra + rb)) > 0 else -1.0
            out.append((ya, yb, lambda py, side=side: (
                cx + side * np.sqrt(np.maximum(r * r - (py - cy) ** 2, 0.0)))))
        return out

    def polyline(self, step: float) -> np.ndarray:
        k = max(int(math.ceil(self.length() / step)), 2)
        return self.point_at(np.arange(k) / k)


Segment = Line | Arc


def _endpoints(seg: Segment) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(seg, Line):
        return seg.p0, seg.p1
    return seg.point_at(0.0), seg.point_at(1.0)


def _segment_bbox(seg: Segment) -> tuple[np.ndarray, np.ndarray]:
    a, b = _endpoints(seg)
    pts = [a, b]
    if isinstance(seg, Arc):
        for k in range(4):
            ang = k * math.pi / 2.0
            if seg.full_circle or seg._rel_angle(np.array([ang]))[0] <= abs(seg.sweep):
                pts.append(seg.c + seg.radius * np.array([math.cos(ang), math.sin(ang)]))
    pts = np.array(pts)
    return pts.min(axis=0), pts.max(axis=0)


def _loop_pieces(loop: list[Segment]) -> list:
    """The y-monotone pieces of a loop; each vertex takes the start y of the
    segment that begins there."""
    starts = [float(_endpoints(seg)[0][1]) for seg in loop]
    return [p for i, seg in enumerate(loop) for p in seg.pieces(starts[(i + 1) % len(loop)])]


def _odd_crossings(pieces: list, pts: np.ndarray) -> np.ndarray:
    """Per point, whether the horizontal ray to its right crosses the pieces
    an odd number of times, by the half-open rule."""
    px, py = pts[:, 0], pts[:, 1]
    odd = np.zeros(len(pts), dtype=bool)
    for y0, y1, x_at in pieces:
        rows = np.flatnonzero((y0 > py) != (y1 > py))
        odd[rows] ^= px[rows] < x_at(py[rows])
    return odd


class Domain:
    """Closed planar region: one outer loop, optional hole loops."""

    def __init__(self, loops: list[list[Segment]]):
        if not loops or not all(loops):
            raise ValueError("a domain needs at least one non-empty loop")
        for li, loop in enumerate(loops):
            for si, seg in enumerate(loop):
                nxt = loop[(si + 1) % len(loop)]
                end = _endpoints(seg)[1]
                start = _endpoints(nxt)[0]
                if np.linalg.norm(end - start) > _CHAIN_TOL:
                    raise ValueError(
                        f"loop {li} is not closed: segment {si} ends at {tuple(end)}, "
                        f"next starts at {tuple(start)}"
                    )
        self.loops = [list(loop) for loop in loops]
        los, his = zip(*(_segment_bbox(s) for loop in loops for s in loop))
        self._lo = np.min(np.array(los), axis=0)
        self._hi = np.max(np.array(his), axis=0)
        if not ((self._hi - self._lo) > 0).all():
            raise ValueError("degenerate (zero-area) domain")
        pieces = [_loop_pieces(loop) for loop in self.loops]
        self._pieces = [p for loop in pieces for p in loop]
        for li, loop in enumerate(self.loops[1:], start=1):
            probe = np.array([_endpoints(s)[0] for s in loop])
            if not _odd_crossings(pieces[0], probe).all():
                raise ValueError(f"hole loop {li} is not inside the outer loop")

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lo.copy(), self._hi.copy()

    def _segments(self):
        for loop in self.loops:
            yield from loop

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        return np.min([seg.distance(pts) for seg in self._segments()], axis=0)

    def contains_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be (n, 2), got shape {pts.shape}")
        # the crossing rule puts a point on a segment on either side of it,
        # so the points it puts outside are tested for the boundary too
        result = _odd_crossings(self._pieces, pts)
        out = ~result
        if out.any():
            result[out] = self.boundary_distance(pts[out]) <= _BOUNDARY_TOL
        return result

    def sample_area(self, n: int, seed) -> np.ndarray:
        """n uniform points by rejection from the bounding box; deterministic per seed."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        lo, hi = self._lo, self._hi
        out: list[np.ndarray] = []
        have = 0
        for _ in range(200):
            chunk = max(2 * (n - have), 1024)
            cand = rng.uniform(lo, hi, size=(chunk, 2))
            good = cand[self.contains_many(cand)]
            if len(good):
                out.append(good[: n - have])
                have += len(out[-1])
            if have >= n:
                return np.vstack(out)
        raise RuntimeError("area sampler failed: acceptance rate too low (degenerate domain?)")

    def sample_boundary(self, n: int, seed) -> np.ndarray:
        """n boundary points, distributed proportionally to arc length over all loops."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        segs = list(self._segments())
        lengths = np.array([s.length() for s in segs])
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        u = rng.uniform(0.0, cum[-1], size=n)
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(segs) - 1)
        pts = np.empty((n, 2))
        for si in range(len(segs)):
            mask = idx == si
            if mask.any():
                t = (u[mask] - cum[si]) / lengths[si]
                pts[mask] = segs[si].point_at(t)
        return pts


# --- JSON serialization ------------------------------------------------------


def _segment_to_json(seg: Segment) -> dict:
    if isinstance(seg, Line):
        return {"type": "line", "start": list(seg.start), "end": list(seg.end)}
    return {
        "type": "arc",
        "center": list(seg.center),
        "radius": seg.radius,
        "start_angle": seg.start_angle,
        "end_angle": seg.end_angle,
        "ccw": seg.ccw,
    }


def _segment_from_json(doc: dict) -> Segment:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError(f"segment record must be an object with a 'type': {doc!r}")
    kind = doc["type"]
    try:
        if kind == "line":
            return Line(tuple(doc["start"]), tuple(doc["end"]))
        if kind == "arc":
            return Arc(
                tuple(doc["center"]),
                float(doc["radius"]),
                float(doc["start_angle"]),
                float(doc["end_angle"]),
                bool(doc.get("ccw", True)),
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} segment: {exc}") from exc
    raise ValueError(f"unknown segment type {kind!r}")


def domain_to_json(domain: Domain) -> dict:
    return {"loops": [[_segment_to_json(s) for s in loop] for loop in domain.loops]}


def domain_from_json(doc: dict) -> Domain:
    if not isinstance(doc, dict) or "loops" not in doc:
        raise ValueError("domain JSON must be an object with a 'loops' list")
    return Domain([[_segment_from_json(s) for s in loop] for loop in doc["loops"]])


def save_domain(path, domain: Domain) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(domain_to_json(domain), f, indent=1)
        f.write("\n")


def load_domain(path) -> Domain:
    with open(path, "r", encoding="utf-8") as f:
        return domain_from_json(json.load(f))


# --- shipped presets ---------------------------------------------------------


def _half_disk_hole(cx: float, cy: float, r: float, flat_edge: str) -> list[Segment]:
    """Half-disk loop; flat_edge names where the straight side sits."""
    if flat_edge == "up":  # lower half-disk, chord on top
        return [
            Arc((cx, cy), r, math.pi, 0.0, ccw=True),
            Line((cx + r, cy), (cx - r, cy)),
        ]
    if flat_edge == "down":  # upper half-disk, chord on the bottom
        return [
            Arc((cx, cy), r, 0.0, math.pi, ccw=True),
            Line((cx - r, cy), (cx + r, cy)),
        ]
    raise ValueError(f"flat_edge must be 'up' or 'down', got {flat_edge!r}")


def _car_domain() -> Domain:
    """Car silhouette: 1.6 x 0.5 body, quarter-circle wheel arches, arc roofline.

    Body spans [-0.8, 0.8] x [-0.25, 0.25] so the landmark target lines
    [-0.5, 0.5] x {+-0.25} lie on the top/bottom edge lines. The roofline is
    the circular arc through (+-0.8, 0.25) with apex (0, 0.45): center
    (0, -1.25), radius 1.7.
    """
    w = 0.15  # wheel-arch radius
    roof_c = (0.0, -1.25)
    roof_r = 1.7
    ang = math.atan2(0.25 - roof_c[1], 0.8)  # angle of (0.8, 0.25) from center
    loop: list[Segment] = [
        Line((-0.8 + w, -0.25), (0.8 - w, -0.25)),
        Arc((0.8, -0.25), w, math.pi, math.pi / 2.0, ccw=False),
        Line((0.8, -0.25 + w), (0.8, 0.25)),
        Arc(roof_c, roof_r, ang, math.pi - ang, ccw=True),
        Line((-0.8, 0.25), (-0.8, -0.25 + w)),
        Arc((-0.8, -0.25), w, math.pi / 2.0, 0.0, ccw=False),
    ]
    return Domain([loop])


def _build_preset(name: str) -> Domain:
    if name == "square":
        return Domain(
            [[
                Line((0.0, 0.0), (1.0, 0.0)),
                Line((1.0, 0.0), (1.0, 1.0)),
                Line((1.0, 1.0), (0.0, 1.0)),
                Line((0.0, 1.0), (0.0, 0.0)),
            ]]
        )
    if name == "disk":
        return Domain([[Arc((0.0, 0.0), 1.0, 0.0, 0.0, ccw=True)]])
    if name == "smiling_face":
        return Domain(
            [
                [Arc((0.0, 0.0), 1.0, 0.0, 0.0, ccw=True)],
                _half_disk_hole(-0.35, 0.30, 0.15, "up"),
                _half_disk_hole(0.35, 0.30, 0.15, "up"),
                _half_disk_hole(0.0, -0.30, 0.30, "down"),
            ]
        )
    if name == "car":
        return _car_domain()
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")


PRESETS = ("square", "disk", "smiling_face", "car")


def preset_domain(name: str) -> Domain:
    """One of the shipped domains: square, disk, smiling_face, car."""
    return _build_preset(name)
