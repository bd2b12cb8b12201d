"""File outputs: atomic writes, VTK legacy grids, OBJ interfaces, CSV logs."""

import csv
import io
import json
import os
import tempfile

import numpy as np


def atomic_write_text(path, text):
    """Write via temp file + rename so interrupted runs leave no torn files."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# legacy VTK cell type and title by cell width
_VTK_CELLS = {4: (10, "sharptop grid"), 3: (5, "sharptop interface")}


def _lines(fmt, rows):
    """One `fmt` line per row of `rows`, each ending in a newline, from a
    single format call; no rows give the empty string."""
    rows = np.asarray(rows)
    return (fmt + "\n") * len(rows) % tuple(rows.ravel().tolist())


def write_vtk_unstructured(path, points, cells, cell_data=None,
                           point_data=None):
    """VTK legacy ASCII 3.0 unstructured grid of tetrahedra or triangles.

    The cell width (4 or 3 vertex ids) picks the cell type and the title.
    """
    points = np.asarray(points, float)
    cells = np.asarray(cells, int)
    width = cells.shape[1]
    cell_type, title = _VTK_CELLS[width]
    out = [
        f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(points)} double\n",
        _lines("%.17g %.17g %.17g", points),
        f"CELLS {len(cells)} {(width + 1) * len(cells)}\n",
        _lines(str(width) + " %d" * width, cells),
        f"CELL_TYPES {len(cells)}\n",
        f"{cell_type}\n" * len(cells),
    ]
    for kind, n, data in (("CELL_DATA", len(cells), cell_data),
                          ("POINT_DATA", len(points), point_data)):
        if data:
            out.append(f"{kind} {n}\n")
            for name, values in data.items():
                out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                out.append(_lines("%.17g", np.asarray(values, float)))
    atomic_write_text(path, "".join(out))


def write_vtk_surface(path, vertices, faces, point_data=None):
    """VTK legacy ASCII triangle surface with per-vertex scalars."""
    write_vtk_unstructured(path, vertices, faces, point_data=point_data)


def write_obj(path, vertices, faces, face_normals):
    """Wavefront OBJ triangle mesh with one normal per face."""
    faces = np.asarray(faces, int)
    ids = np.empty((len(faces), 6), int)   # vertex, normal for each corner
    ids[:, 0::2] = faces.reshape(-1, 3) + 1
    ids[:, 1::2] = np.arange(1, len(faces) + 1)[:, None]
    atomic_write_text(path, "".join([
        _lines("v %.17g %.17g %.17g", np.asarray(vertices, float)),
        _lines("vn %.17g %.17g %.17g", np.asarray(face_normals, float)),
        _lines("f %d//%d %d//%d %d//%d", ids)]))
