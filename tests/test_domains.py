"""Parameter domains: membership, sampling, serialization, presets."""

import json
import math

import numpy as np
import pytest

from pcparam.domains import (
    PRESETS,
    Arc,
    Domain,
    Line,
    domain_from_json,
    domain_to_json,
    load_domain,
    preset_domain,
    save_domain,
)


def test_presets_all_build():
    assert set(PRESETS) == {"square", "disk", "smiling_face", "car"}
    for name in PRESETS:
        dom = preset_domain(name)
        lo, hi = dom.bbox
        assert (hi > lo).all()
    with pytest.raises(ValueError, match="square"):
        preset_domain("hexagon")


def test_square_membership():
    dom = preset_domain("square")
    lo, hi = dom.bbox
    np.testing.assert_array_equal(lo, [0.0, 0.0])
    np.testing.assert_array_equal(hi, [1.0, 1.0])
    np.testing.assert_array_equal(
        dom.contains_many(np.array([(0.5, 0.5), (1.5, 0.5), (-0.01, 0.5)])),
        [True, False, False],
    )
    # the region is closed: corners and edge midpoints belong to it
    edge = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0), (1, 0.5), (0.5, 1), (0, 0.5)]
    assert dom.contains_many(np.array(edge, dtype=np.float64)).all()


def test_disk_membership_matches_radius_oracle():
    dom = preset_domain("disk")
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.3, 1.3, (4000, 2))
    r = np.linalg.norm(pts, axis=1)
    clear = np.abs(r - 1.0) > 1e-6  # keep away from the boundary knife edge
    got = dom.contains_many(pts[clear])
    np.testing.assert_array_equal(got, r[clear] <= 1.0)
    # boundary points count as inside
    assert dom.contains_many(np.array([(1.0, 0.0), (0.0, -1.0)])).all()


def test_disk_area_fraction():
    dom = preset_domain("disk")
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (20000, 2))
    frac = dom.contains_many(pts).mean()
    assert frac == pytest.approx(math.pi / 4.0, abs=0.02)


def test_smiling_face_holes():
    dom = preset_domain("smiling_face")
    pts = np.array([
        # eye holes are lower half-disks below their chord at y = 0.30
        (-0.35, 0.25), (0.35, 0.25), (-0.35, 0.36),  # the last just above the chord
        # mouth is an upper half-disk between y = -0.30 and 0
        (0.0, -0.15), (0.0, -0.45), (0.0, 0.8), (1.2, 0.0),
    ])
    np.testing.assert_array_equal(
        dom.contains_many(pts), [False, False, True, False, True, True, False]
    )


def test_sample_area_contained_and_deterministic():
    for name in PRESETS:
        dom = preset_domain(name)
        a = dom.sample_area(500, 42)
        b = dom.sample_area(500, 42)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (500, 2)
        assert dom.contains_many(a).all()
        c = dom.sample_area(500, 43)
        assert not np.array_equal(a, c)


def test_sample_area_rejects_bad_n():
    with pytest.raises(ValueError):
        preset_domain("square").sample_area(0, 1)


def test_sample_boundary_on_boundary_and_proportional():
    dom = preset_domain("square")
    pts = dom.sample_boundary(4000, 7)
    assert dom.boundary_distance(pts).max() < 1e-9
    # equal side lengths: roughly a quarter of the points per side
    on_left = np.abs(pts[:, 0]) < 1e-12
    on_right = np.abs(pts[:, 0] - 1.0) < 1e-12
    on_bottom = np.abs(pts[:, 1]) < 1e-12
    on_top = np.abs(pts[:, 1] - 1.0) < 1e-12
    counts = np.array([on_left.sum(), on_right.sum(), on_bottom.sum(), on_top.sum()])
    assert counts.sum() == 4000
    assert counts.min() > 800 and counts.max() < 1200
    np.testing.assert_array_equal(pts, dom.sample_boundary(4000, 7))


def test_sample_boundary_disk_radius():
    dom = preset_domain("disk")
    pts = dom.sample_boundary(300, 1)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_segment_distance_against_polyline_oracle():
    rng = np.random.default_rng(5)
    segs = [
        Line((0.0, 0.0), (2.0, 1.0)),
        Arc((0.5, -0.5), 1.25, 0.3, 2.4, ccw=True),
        Arc((0.0, 0.0), 1.0, 2.0, 0.5, ccw=False),
    ]
    pts = rng.uniform(-2, 2, (40, 2))
    for seg in segs:
        dense = seg.polyline(1e-3)
        brute = np.sqrt(
            ((pts[:, None, :] - dense[None, :, :]) ** 2).sum(axis=2)
        ).min(axis=1)
        np.testing.assert_allclose(seg.distance(pts), brute, atol=2e-3)


def test_arc_length_and_endpoints():
    full = Arc((0.0, 0.0), 2.0, 0.0, 0.0, ccw=True)
    assert full.length() == pytest.approx(4 * math.pi)
    quarter = Arc((1.0, 1.0), 1.0, 0.0, math.pi / 2, ccw=True)
    assert quarter.length() == pytest.approx(math.pi / 2)
    np.testing.assert_allclose(quarter.point_at(0.0), [2.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(quarter.point_at(1.0), [1.0, 2.0], atol=1e-12)


def test_domain_validation_errors():
    with pytest.raises(ValueError, match="not closed"):
        Domain([[Line((0, 0), (1, 0)), Line((1, 0.5), (0, 0))]])
    with pytest.raises(ValueError):
        Domain([])
    with pytest.raises(ValueError, match="zero-length"):
        Line((0.3, 0.3), (0.3, 0.3))
    # hole loop outside the outer square
    square = [
        Line((0, 0), (1, 0)), Line((1, 0), (1, 1)),
        Line((1, 1), (0, 1)), Line((0, 1), (0, 0)),
    ]
    far_hole = [Arc((5.0, 5.0), 0.2, 0.0, 0.0, ccw=True)]
    with pytest.raises(ValueError, match="hole"):
        Domain([square, far_hole])


def test_json_round_trip(tmp_path):
    for name in PRESETS:
        dom = preset_domain(name)
        doc = domain_to_json(dom)
        json.dumps(doc)  # serializable
        back = domain_from_json(doc)
        assert back.loops == dom.loops
        np.testing.assert_array_equal(
            back.sample_area(100, 3), dom.sample_area(100, 3)
        )
    path = tmp_path / "dom.json"
    save_domain(path, preset_domain("car"))
    again = load_domain(path)
    assert again.loops == preset_domain("car").loops


def test_json_malformed_documents():
    for doc in ({"segments": []}, {"loops": 5}, {"loops": [5]}):
        with pytest.raises(ValueError, match="loops"):
            domain_from_json(doc)
    with pytest.raises(ValueError, match="type"):
        domain_from_json({"loops": [[{"start": [0, 0], "end": [1, 1]}]]})
    with pytest.raises(ValueError, match="unknown segment type"):
        domain_from_json({"loops": [[{"type": "bezier"}]]})
    with pytest.raises(ValueError, match="malformed"):
        domain_from_json({"loops": [[{"type": "arc", "center": [0, 0]}]]})


ARC = {"type": "arc", "center": [0, 0], "radius": 1, "start_angle": 0, "end_angle": math.pi,
       "ccw": False}
LINE = {"type": "line", "start": [-1, 0], "end": [1, 0]}


@pytest.mark.parametrize("record, message", [
    # a string is not a bool: "false" must not sample the other half-disk
    pytest.param({**ARC, "ccw": "false"}, "ccw must be a bool, got 'false'", id="ccw-string"),
    pytest.param({**ARC, "radius": "2"}, "radius must be positive and finite, got '2'",
                 id="radius-string"),
    pytest.param({**ARC, "end_angle": True}, "end_angle must be finite, got True",
                 id="angle-true"),
    pytest.param({**LINE, "start": [0]}, "start must be a point [x, y], got [0]",
                 id="start-one-number"),
    pytest.param({**LINE, "start": [0, 0, 5]}, "start must be a point [x, y], got [0, 0, 5]",
                 id="start-three-numbers"),
    pytest.param({**LINE, "width": 1}, "unexpected keyword argument 'width'",
                 id="unknown-key"),
    # past the float range, so float() would raise OverflowError
    pytest.param({**ARC, "radius": 10**400}, "radius must be positive and finite, got 1000",
                 id="radius-huge-integer"),
])
def test_json_segment_fields_are_checked(record, message):
    with pytest.raises(ValueError, match="malformed") as info:
        domain_from_json({"loops": [[record, LINE]]})
    assert message in str(info.value)


def test_json_ccw_false_is_the_lower_half_disk():
    lower = domain_from_json({"loops": [[ARC, LINE]]})
    pts = lower.sample_area(200, 0)
    assert (pts[:, 1] <= 1e-12).all()
    # ccw may be left out, and then the arc runs counter-clockwise
    upper = domain_from_json({"loops": [[{k: v for k, v in ARC.items() if k != "ccw"}, LINE]]})
    assert (upper.sample_area(200, 0)[:, 1] >= -1e-12).all()


def test_landmark_target_lines():
    # 200 landmark targets on each of [-0.5, 0.5] x {-0.25} and x {+0.25}
    x = np.linspace(-0.5, 0.5, 200)
    t = np.vstack([np.column_stack([x, np.full(200, y)]) for y in (-0.25, 0.25)])
    # both lines lie inside the car silhouette, the bottom one on its boundary
    car = preset_domain("car")
    assert car.contains_many(t).all()
    bottom = t[t[:, 1] == -0.25]
    assert car.boundary_distance(bottom).max() < 1e-12
