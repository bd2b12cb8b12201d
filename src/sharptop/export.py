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
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} double",
    ]
    out += ["%.17g %.17g %.17g" % tuple(p) for p in points]
    out.append(f"CELLS {len(cells)} {(width + 1) * len(cells)}")
    fmt = str(width) + " %d" * width
    out += [fmt % tuple(c) for c in cells]
    out.append(f"CELL_TYPES {len(cells)}")
    out += [str(cell_type)] * len(cells)
    for kind, n, data in (("CELL_DATA", len(cells), cell_data),
                          ("POINT_DATA", len(points), point_data)):
        if data:
            out.append(f"{kind} {n}")
            for name, values in data.items():
                out.append(f"SCALARS {name} double 1")
                out.append("LOOKUP_TABLE default")
                out += ["%.17g" % v for v in np.asarray(values, float)]
    atomic_write_text(path, "\n".join(out) + "\n")


def write_vtk_surface(path, vertices, faces, point_data=None):
    """VTK legacy ASCII triangle surface with per-vertex scalars."""
    write_vtk_unstructured(path, vertices, faces, point_data=point_data)


def write_obj(path, vertices, faces, face_normals):
    """Wavefront OBJ triangle mesh with one normal per face."""
    out = ["v %.17g %.17g %.17g" % tuple(v)
           for v in np.asarray(vertices, float)]
    out += ["vn %.17g %.17g %.17g" % tuple(n)
            for n in np.asarray(face_normals, float)]
    out += [f"f {a}//{i} {b}//{i} {c}//{i}"
            for i, (a, b, c) in enumerate(np.asarray(faces, int) + 1, 1)]
    atomic_write_text(path, "\n".join(out) + "\n")
