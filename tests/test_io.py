"""File formats: XYZ/CSV clouds, OBJ/OFF meshes, CSV tables."""

import numpy as np
import pytest

from pcparam.geometry import TriangleMesh
from pcparam.io import (
    load_cloud,
    load_mesh,
    load_numbered_table,
    load_table,
    save_cloud,
    save_mesh,
    save_table,
)


def _cloud3():
    rng = np.random.default_rng(1)
    return rng.normal(0, 1, (17, 3))


def test_xyz_round_trip_bitwise(tmp_path):
    cloud = _cloud3()
    path = tmp_path / "pts.xyz"
    save_cloud(path, cloud)
    back = load_cloud(path)
    np.testing.assert_array_equal(back, cloud)


def test_csv_round_trip_bitwise(tmp_path):
    for cols in (2, 3):
        cloud = _cloud3()[:, :cols]
        path = tmp_path / f"pts{cols}.csv"
        save_cloud(path, cloud)
        text = path.read_text()
        assert text.splitlines()[0] == ("x,y" if cols == 2 else "x,y,z")
        back = load_cloud(path)
        np.testing.assert_array_equal(back, cloud)


def test_csv_header_sniffing(tmp_path):
    # headerless CSV: first line is data and must not be swallowed
    path = tmp_path / "raw.csv"
    path.write_text("1.5,2.5\n3.0,4.0\n")
    back = load_cloud(path)
    np.testing.assert_array_equal(back, [[1.5, 2.5], [3.0, 4.0]])
    # the header is the first record, wherever it starts
    path.write_text("\nx,y\n1.5,2.5\n")
    np.testing.assert_array_equal(load_cloud(path), [[1.5, 2.5]])


def test_xyz_comments_and_blank_lines(tmp_path):
    path = tmp_path / "pts.xyz"
    path.write_text("# a comment\n\n1 2 3\n4 5 6  # trailing note\n")
    back = load_cloud(path)
    np.testing.assert_array_equal(back, [[1, 2, 3], [4, 5, 6]])


def test_cloud_error_messages(tmp_path):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2 3\n1 two 3\n")
    with pytest.raises(ValueError, match=r"bad\.xyz:2"):
        load_cloud(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("x,y\n")
    with pytest.raises(ValueError, match="no points"):
        load_cloud(empty)
    ragged = tmp_path / "ragged.xyz"
    ragged.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="inconsistent"):
        load_cloud(ragged)
    # the first short line is named, not the last
    ragged.write_text("1 2 3\n\n4 5 6\n7 8\n9\n")
    with pytest.raises(ValueError,
                       match=r"ragged\.xyz: inconsistent column counts, first at line 4"):
        load_cloud(ragged)
    # an empty cell is an error, not a narrower row
    gap = tmp_path / "gap.csv"
    for text in ("x,y,z\n0.12,,0.64\n", "x,y\n0.1,0.2,\n"):
        gap.write_text(text)
        with pytest.raises(ValueError, match=r"gap\.csv:2: not a numeric row"):
            load_cloud(gap)
    # a quoted cell over lines 2-3 leaves the next record on line 4
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('x,y\n"1.0\n",2.0\n3.0,abc\n')
    with pytest.raises(ValueError, match=r"quoted\.csv:4: not a numeric row"):
        load_cloud(quoted)


def _mesh():
    verts = np.array([[0.0, 0.0, 0.1], [1.0, 0.0, 0.2], [1.0, 1.0, 0.3], [0.0, 1.0, 0.4]])
    return TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def test_obj_round_trip(tmp_path):
    mesh = _mesh()
    path = tmp_path / "m.obj"
    save_mesh(path, mesh)
    back = load_mesh(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)


def test_off_round_trip(tmp_path):
    mesh = _mesh()
    path = tmp_path / "m.off"
    save_mesh(path, mesh)
    text = path.read_text()
    assert text.startswith("OFF\n4 2 0\n")
    back = load_mesh(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    # comments may sit between the header, the counts and the rows
    lines = text.splitlines()
    path.write_text("\n".join(["OFF # header", "# counts next", lines[1], "# vertices",
                               *lines[2:6], "  # faces", *lines[6:]]) + "\n")
    back = load_mesh(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)


def test_save_mesh_pads_planar_vertices(tmp_path):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    path = tmp_path / "flat.obj"
    save_mesh(path, mesh)
    back = load_mesh(path)
    np.testing.assert_array_equal(back.vertices[:, 2], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(back.vertices[:, :2], verts)


def test_obj_slash_indices_and_comments(tmp_path):
    path = tmp_path / "tex.obj"
    path.write_text(
        "# exported\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
    )
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])


def test_mesh_error_paths(tmp_path):
    quad = tmp_path / "quad.obj"
    quad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n\nf 1 2 3 4\n")
    with pytest.raises(ValueError, match=r"quad\.obj:6: only triangle faces"):
        load_mesh(quad)
    # a cell that is not a number, or a short vertex, names its line
    for name, text, where in [
        ("face.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", r"face\.obj:4: "),
        ("vertex.obj", "v 0 0 0\n# two coordinates\nv 1 0\nv 0 1 0\nf 1 2 3\n",
         r"vertex\.obj:3: "),
        ("vertex.off", "OFF\n3 1 0\n0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n", r"vertex\.off:4: "),
        # a negative count would read as no vertices or no faces
        ("faces.off", "OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n", r"faces\.off:2: negative"),
        ("verts.off", "# counts on line 3\nOFF\n-3 0 0\n", r"verts\.off:3: negative"),
    ]:
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_mesh(bad)
    noverts = tmp_path / "empty.obj"
    noverts.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no vertices"):
        load_mesh(noverts)
    noheader = tmp_path / "x.off"
    noheader.write_text("3 1 0\n")
    with pytest.raises(ValueError, match="OFF header"):
        load_mesh(noheader)
    quadoff = tmp_path / "q.off"
    quadoff.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(ValueError, match="4-gon"):
        load_mesh(quadoff)
    for text in ("OFF\n", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"):  # no counts, no face
        short = tmp_path / "short.off"
        short.write_text(text)
        with pytest.raises(ValueError, match="ends before its declared counts"):
            load_mesh(short)
    with pytest.raises(ValueError, match="unsupported"):
        load_mesh(tmp_path / "m.stl")
    with pytest.raises(ValueError, match="unsupported"):
        save_mesh(tmp_path / "m.ply", _mesh())


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    save_table(path, ["name", "value", "note"], [
        ["alpha", 0.1, None],
        ["beta", 2.0, "ok"],
    ])
    header, rows = load_table(path)
    assert header == ["name", "value", "note"]
    assert rows == [["alpha", "0.1", ""], ["beta", "2.0", "ok"]]
    assert float(rows[0][1]) == 0.1  # repr floats round-trip


def test_numbered_table_gives_each_rows_first_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b\n\n1,2\n"x\ny",3\n\n4,5\n')
    header, rows = load_numbered_table(path)
    assert header == ["a", "b"]
    assert rows == [(3, ["1", "2"]), (4, ["x\ny", "3"]), (7, ["4", "5"])]
    assert load_table(path) == (header, [row for _, row in rows])
    # only a .csv file is CSV; any other splits on whitespace after '#'
    path = tmp_path / "t.txt"
    path.write_text("a b  # names\n\n1 2\n")
    assert load_numbered_table(path) == (["a", "b"], [(3, ["1", "2"])])


def test_table_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty table"):
        load_table(path)
