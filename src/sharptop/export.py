"""File outputs: atomic writes, VTK legacy grids, OBJ interfaces, CSV logs."""

import csv
import io
import json
import os
import tempfile

import numpy as np


def atomic_write_text(path, text):
    """Write via temp file + rename so interrupted runs leave no torn files.

    An OSError from any step is raised again with `path` as its filename.
    """
    path = os.fspath(path)
    try:
        _replace_text(path, text)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _replace_text(path, text):
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
    """One `fmt` line per row of `rows`, each ending in a newline; no rows
    give the empty string.

    Two row sets of at least `_ARRAY_MIN` values are built in array passes
    (`_integer_lines`): integer or bool rows whose every field is %d, such
    as tet and triangle connectivity and OBJ face ids, and float rows whose
    every field is %.17g and whose every value is integral and below 2**53
    in magnitude, such as phase labels. Their text equals the %d and %.17g
    text byte for byte. Every other row set, non-integral floats included,
    takes one % call (`_percent_lines`).
    """
    rows = np.asarray(rows)
    text = _integer_lines(fmt, rows)
    return _percent_lines(fmt, rows) if text is None else text


def _percent_lines(fmt, rows):
    """`_lines` from a single format call."""
    return (fmt + "\n") * len(rows) % tuple(rows.ravel().tolist())


# 10**1 .. 10**19: an unsigned 64-bit value has one digit more than the
# number of these it reaches
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)
# the fewest values for which the array passes beat one % call: their
# fixed cost, 25 us on warm caches and about twice that amid other work,
# is that of formatting about 2000 ints or 500 floats
_ARRAY_MIN = {"%d": 2048, "%.17g": 512}


def _integer_lines(fmt, rows):
    """`_lines` in array passes, or None if `fmt` or `rows` do not suit.

    Each value's decimal text is gathered from a digit table of the values
    between the least and the largest, or, when those are sparse, taken by
    integer division of the values themselves. The text of a field and the
    literal after it fill one fixed-width slot of a uint8 line matrix, the
    zero-byte padding of short numbers is dropped in one compaction, and
    the bytes are decoded once.
    """
    kind = rows.dtype.kind
    spec = "%.17g" if kind == "f" else "%d"
    pieces = (fmt + "\n").split(spec)
    if (kind not in "biuf" or rows.dtype.itemsize > 8
            or rows.size < _ARRAY_MIN[spec]
            or rows.ndim not in (1, 2) or not fmt.isascii() or "\0" in fmt
            or len(pieces) - 1 != (rows.shape[1] if rows.ndim == 2 else 1)
            or "%" in "".join(pieces)):
        return None
    values = rows.reshape(-1)
    if kind == "f":
        # %.17g prints an integral float below 2**53 as its integer, but
        # -0.0 as "-0"; NaN fails the first test and infinities the second
        if not ((np.trunc(values) == values).all()
                and (np.abs(values) < 2.0 ** 53).all()):
            return None
        ints = values.astype(np.int64)
        if (np.signbit(values) > (ints < 0)).any():
            return None
    else:
        ints = values.astype(np.uint64 if kind == "u" else np.int64,
                             copy=False)
    n, lo, hi = len(rows), int(ints.min()), int(ints.max())
    if hi - lo < len(ints):     # dense: gather from the text of lo..hi
        table = np.arange(hi - lo + 1, dtype=ints.dtype)
        table += ints.dtype.type(lo)
        text = _integer_text(table)
        index = (ints - table[0]).reshape(n, -1)
    else:
        text = _integer_text(ints)
        index = np.arange(len(ints)).reshape(n, -1)
    slots = [len(tail) + text.shape[1] for tail in pieces[1:]]
    line = np.empty((n, len(pieces[0]) + sum(slots)), np.uint8)
    line[:, :len(pieces[0])] = np.frombuffer(pieces[0].encode(), np.uint8)
    col, tokens = len(pieces[0]), {}
    for j, (tail, slot) in enumerate(zip(pieces[1:], slots)):
        if tail not in tokens:   # each text row and `tail`, as one item
            token = np.empty((len(text), slot), np.uint8)
            token[:, :text.shape[1]] = text
            token[:, text.shape[1]:] = np.frombuffer(tail.encode(), np.uint8)
            tokens[tail] = token.view(f"V{slot}")[:, 0]
        line[:, col:col + slot].view(f"V{slot}")[:, 0] = \
            tokens[tail].take(index[:, j])
        col += slot
    if not text[:, 0].all():     # some text is shorter than its field
        line = line[line != 0]
    return line.tobytes().decode("ascii")


def _integer_text(ints):
    """The decimal text of each of `ints` (int64 or uint64), right-aligned
    in the rows of a uint8 matrix, with zero bytes on the left."""
    neg = ints < 0
    signed = bool(neg.any())
    mag = ints.view(np.uint64)
    if signed:
        mag = np.where(neg, 0 - mag, mag)     # exact for INT64_MIN too
    digits = len(str(int(mag.max())))
    text = np.zeros((len(ints), digits + signed), np.uint8)
    q = mag
    for p in range(1, digits + 1):     # the p-th digit from the right
        started = q != 0
        q, r = np.divmod(q, np.uint64(10))
        column = r.astype(np.uint8) + np.uint8(48)
        if p > 1:               # zeros above the leading digit are padding
            column *= started
        text[:, -p] = column
    if signed:                  # a sign just left of the leading digit
        i = np.flatnonzero(neg)
        text[i, -2 - np.searchsorted(_POW10, mag[i], side="right")] = 45
    return text


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
