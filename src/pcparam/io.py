"""Readers and writers for clouds (XYZ/CSV), meshes (OBJ/OFF), and tables.

Floats are written with repr so files round-trip bit for bit and identical
runs produce identical bytes.

Every text input is read as records by one rule. A file is CSV exactly
when its suffix is `.csv`: its records are the csv module's (a quoted cell
may span lines), each cell stripped and empty cells kept. Any other file
is split on whitespace, a record a line, after cutting `#` comments.
Records without a non-empty cell are skipped; an error names the line a
record starts on. A numeric table (a cloud, a plotted or audited table)
skips a CSV's first record as a header when its first cell is not a
number. Every other cell must be a number, an empty one is an error, and
every row must be as long as the first.
"""

from __future__ import annotations

import csv
import io as _io
from pathlib import Path

import numpy as np

from .geometry import TriangleMesh, as_cloud

__all__ = [
    "load_numeric_table",
    "load_cloud",
    "save_cloud",
    "load_mesh",
    "save_mesh",
    "save_table",
    "load_table",
    "load_numbered_table",
]


def _is_csv(path: Path) -> bool:
    return path.suffix.lower() == ".csv"


def _records(path: Path):
    """(line, cells) for each record with a non-empty cell, `line` the file
    line the record starts on, counting from 1; see the module docstring."""
    if _is_csv(path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            start = 1
            for rec in reader:
                cells = [c.strip() for c in rec]
                if any(cells):
                    yield start, cells
                start = reader.line_num + 1
    else:
        with open(path) as fh:
            for line, text in enumerate(fh, start=1):
                cells = text.split("#", 1)[0].split()
                if cells:
                    yield line, cells


def _parse_float_row(parts: list[str], path, lineno: int) -> list[float]:
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: not a numeric row: {parts!r}") from exc


def load_numeric_table(path) -> np.ndarray:
    """Read rows of numbers from a .csv file or a whitespace-separated one,
    as an (n, k) float array; (0, 0) when there are no rows. The rules are
    the module docstring's."""
    path = Path(path)
    rows: list[list[float]] = []
    ragged = None
    for k, (line, cells) in enumerate(_records(path)):
        if k == 0 and _is_csv(path):
            try:
                float(cells[0])
            except ValueError:
                continue  # header
        rows.append(_parse_float_row(cells, path, line))
        if ragged is None and len(cells) != len(rows[0]):
            ragged = line
    if not rows:
        return np.empty((0, 0))
    if ragged is not None:
        raise ValueError(f"{path}: inconsistent column counts, first at line {ragged}")
    return np.array(rows)


def load_cloud(path) -> np.ndarray:
    """Read a 2-d or 3-d point cloud from a .xyz or .csv file, as
    `load_numeric_table` reads it."""
    rows = load_numeric_table(path)
    if not rows.size:
        raise ValueError(f"{path}: no points found")
    return as_cloud(rows)


def save_cloud(path, cloud) -> None:
    """Write a cloud as .xyz (bare floats) or .csv (x,y[,z] header)."""
    cloud = as_cloud(cloud)
    path = Path(path)
    if _is_csv(path):
        save_table(path, list("xyz"[: cloud.shape[1]]), cloud.tolist())
        return
    buf = _io.StringIO()
    for row in cloud:
        buf.write(" ".join(repr(float(v)) for v in row) + "\n")
    path.write_text(buf.getvalue())


def _load_obj(path: Path) -> TriangleMesh:
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    for line, cells in _records(path):
        if cells[0] == "v":
            if len(cells) < 4:
                raise ValueError(f"{path}:{line}: a vertex needs x, y and z: {cells!r}")
            verts.append(_parse_float_row(cells[1:4], path, line))
        elif cells[0] == "f":
            try:
                idx = [int(p.split("/", 1)[0]) for p in cells[1:]]
            except ValueError:
                raise ValueError(f"{path}:{line}: not a numeric face: {cells!r}") from None
            if len(idx) != 3:
                raise ValueError(f"{path}:{line}: only triangle faces supported")
            faces.append([i - 1 for i in idx])
    if not verts:
        raise ValueError(f"{path}: no vertices")
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64).reshape(-1, 3))


def _load_off(path: Path) -> TriangleMesh:
    tokens = [(line, t) for line, cells in _records(path) for t in cells]
    if not tokens or tokens[0][1] != "OFF":
        raise ValueError(f"{path}: missing OFF header")

    def take(pos: int, count: int, kind=int) -> list:
        """The count tokens from pos as numbers; an error names the line of
        the first one that is not."""
        if pos + count > len(tokens):
            raise ValueError(f"{path}: OFF file ends before its declared counts")
        out = []
        for line, t in tokens[pos : pos + count]:
            try:
                out.append(kind(t))
            except ValueError:
                raise ValueError(f"{path}:{line}: not a number: {t!r}") from None
        return out

    nv, nf = take(1, 2)
    if nv < 0 or nf < 0:
        raise ValueError(f"{path}:{tokens[1][0]}: negative vertex or face count: {nv} {nf}")
    pos = 4  # skip edge count
    verts = np.array(take(pos, 3 * nv, float), dtype=np.float64).reshape(nv, 3)
    pos += 3 * nv
    faces = []
    for _ in range(nf):
        cnt = take(pos, 1)[0]
        if cnt != 3:
            raise ValueError(f"{path}: only triangle faces supported, got {cnt}-gon")
        faces.append(take(pos + 1, 3))
        pos += 4
    return TriangleMesh(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))


def load_mesh(path) -> TriangleMesh:
    """Read a triangle mesh from .obj or .off."""
    path = Path(path)
    ext = path.suffix.lower()
    if ext == ".obj":
        return _load_obj(path)
    if ext == ".off":
        return _load_off(path)
    raise ValueError(f"{path}: unsupported mesh format {ext!r}")


def save_mesh(path, mesh: TriangleMesh) -> None:
    """Write a mesh as .obj or .off; 2-d vertices get z = 0."""
    path = Path(path)
    verts = mesh.vertices
    if verts.shape[1] == 2:
        verts = np.hstack([verts, np.zeros((len(verts), 1))])
    ext = path.suffix.lower()
    buf = _io.StringIO()
    if ext == ".obj":
        for v in verts:
            buf.write("v " + " ".join(repr(float(c)) for c in v) + "\n")
        for a, b, c in mesh.triangles:
            buf.write(f"f {a + 1} {b + 1} {c + 1}\n")
    elif ext == ".off":
        buf.write("OFF\n")
        buf.write(f"{len(verts)} {len(mesh.triangles)} 0\n")
        for v in verts:
            buf.write(" ".join(repr(float(c)) for c in v) + "\n")
        for a, b, c in mesh.triangles:
            buf.write(f"3 {a} {b} {c}\n")
    else:
        raise ValueError(f"{path}: unsupported mesh format {ext!r}")
    path.write_text(buf.getvalue())


def save_table(path, header: list[str], rows) -> None:
    """CSV with repr-formatted floats; None cells come out empty."""
    buf = _io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for val in row:
            if val is None:
                cells.append("")
            elif isinstance(val, (float, np.floating)):
                cells.append(repr(float(val)))
            else:
                cells.append(str(val))
        buf.write(",".join(cells) + "\n")
    Path(path).write_text(buf.getvalue())


def load_numbered_table(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Read a table as (header, rows), each row a (line number, string
    cells) pair, counting the file's first line as 1; records are read as
    the module docstring says, so a CSV's empty cells are kept."""
    recs = list(_records(Path(path)))
    if not recs:
        raise ValueError(f"{path}: empty table")
    return recs[0][1], recs[1:]


def load_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a table as (header, string rows), as `load_numbered_table`."""
    header, rows = load_numbered_table(path)
    return header, [row for _, row in rows]
