"""Planar parameter domains built from line and circular-arc segments.

A domain is one outer loop plus zero or more hole loops; each loop is a
closed chain of segments (endpoints matching within 1e-9). Membership uses
the even-odd rule with arc intersections solved analytically, treating the
region as closed: points on the outer or hole boundaries count as inside.
Loops are assumed non-self-intersecting (not checked).

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
    "landmark_targets_lines",
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
# grazing tolerances for the ray cast; affected points retry with a rotated ray
_EPS_S = 1e-12
_EPS_U = 1e-11
_EPS_ANG = 1e-10


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

    def ray_crossings(self, pts: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(crossing counts, grazing mask) for rays pts + s d, s > 0."""
        a, e = self.p0, self.p1 - self.p0
        rhs = a - pts  # (n, 2)
        det = e[0] * d[1] - e[1] * d[0]
        graze = np.zeros(len(pts), dtype=bool)
        if abs(det) < 1e-14:
            # parallel; grazing only if the segment lies on the ray's line
            graze |= np.abs(d[0] * rhs[:, 1] - d[1] * rhs[:, 0]) < 1e-9
            return np.zeros(len(pts), dtype=np.int64), graze
        s = (e[0] * rhs[:, 1] - e[1] * rhs[:, 0]) / det
        u = (d[0] * rhs[:, 1] - d[1] * rhs[:, 0]) / det
        near_end = (np.abs(u) <= _EPS_U) | (np.abs(u - 1.0) <= _EPS_U)
        graze |= (s > -_EPS_S) & near_end
        graze |= (np.abs(s) <= _EPS_S) & (u > -_EPS_U) & (u < 1.0 + _EPS_U)
        cross = (s > _EPS_S) & (u > _EPS_U) & (u < 1.0 - _EPS_U)
        return cross.astype(np.int64), graze

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

    def ray_crossings(self, pts: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = pts - self.c
        b = q @ d
        cterm = (q * q).sum(axis=1) - self.radius * self.radius
        disc = b * b - cterm
        graze = np.abs(disc) <= 1e-14 * max(self.radius * self.radius, 1.0)
        count = np.zeros(len(pts), dtype=np.int64)
        ok = disc > 0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for root in (-b - sq, -b + sq):
            hit = ok & (root > _EPS_S)
            graze |= ok & (np.abs(root) <= _EPS_S)
            if not hit.any():
                continue
            px = q[:, 0] + root * d[0]
            py = q[:, 1] + root * d[1]
            ang = np.arctan2(py, px)
            if self.full_circle:
                count += hit.astype(np.int64)
                continue
            rel = self._rel_angle(ang)
            span = abs(self.sweep)
            graze |= hit & ((rel <= _EPS_ANG) | (np.abs(rel - span) <= _EPS_ANG))
            count += (hit & (rel > _EPS_ANG) & (rel < span - _EPS_ANG)).astype(np.int64)
        return count, graze

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
        for li, loop in enumerate(self.loops[1:], start=1):
            probe = np.array([_endpoints(s)[0] for s in loop])
            inside = self._even_odd(probe, loops=self.loops[:1])
            if not inside.all():
                raise ValueError(f"hole loop {li} is not inside the outer loop")

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lo.copy(), self._hi.copy()

    def _segments(self, loops=None):
        for loop in self.loops if loops is None else loops:
            yield from loop

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        return np.min([seg.distance(pts) for seg in self._segments()], axis=0)

    def _even_odd(self, pts: np.ndarray, loops=None) -> np.ndarray:
        """Vectorized even-odd test; grazing points retried with rotated rays."""
        n = len(pts)
        inside = np.zeros(n, dtype=bool)
        pending = np.arange(n)
        for attempt in range(64):
            ang = 0.5412345678901 + attempt * 2.399963229728653
            d = np.array([math.cos(ang), math.sin(ang)])
            sub = pts[pending]
            total = np.zeros(len(sub), dtype=np.int64)
            graze = np.zeros(len(sub), dtype=bool)
            for seg in self._segments(loops):
                cnt, gz = seg.ray_crossings(sub, d)
                total += cnt
                graze |= gz
            done = ~graze
            inside[pending[done]] = (total[done] % 2) == 1
            pending = pending[graze]
            if pending.size == 0:
                return inside
        raise RuntimeError(f"ray casting failed to settle for point {pts[pending[0]]}")

    def contains_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be (n, 2), got shape {pts.shape}")
        # settle boundary points first: a point on a segment grazes every
        # ray direction, so it must never reach the even-odd cast
        result = self.boundary_distance(pts) <= _BOUNDARY_TOL
        off = ~result
        if off.any():
            result[off] = self._even_odd(pts[off])
        return result

    def contains(self, point) -> bool:
        """True iff the point is in the closed region (boundary points included)."""
        return bool(self.contains_many(np.asarray(point, dtype=np.float64).reshape(1, 2))[0])

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


def landmark_targets_lines() -> np.ndarray:
    """400 target points: 200 each on [-0.5, 0.5] x {-0.25} and x {+0.25}."""
    x = np.linspace(-0.5, 0.5, 200)
    bottom = np.stack([x, np.full(200, -0.25)], axis=1)
    top = np.stack([x, np.full(200, 0.25)], axis=1)
    return np.vstack([bottom, top])


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
