from hypothesis import example, given, settings, strategies as hs
import numpy as np

import sharptop as st
from sharptop import export
from sharptop.export import _lines, write_obj, write_vtk_surface, \
    write_vtk_unstructured
from sharptop.surfaces import icosphere

from conftest import jittered_box_mesh, obj_text_oracle, vtk_text_oracle

HEADER = ["# vtk DataFile Version 3.0", None, "ASCII",
          "DATASET UNSTRUCTURED_GRID"]
TET_POINTS = ["POINTS 4 double", "0 0 0", "1 0 0", "0 1 0", "0 0.5 1"]
POINTS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0.5, 1.0]])


def lines(path):
    return path.read_text().splitlines()


def test_vtk_tet_grid(tmp_path):
    write_vtk_unstructured(tmp_path / "g.vtk", POINTS, [[0, 1, 2, 3]],
                           cell_data={"phase": np.array([1], np.int8)})
    assert lines(tmp_path / "g.vtk") == (
        HEADER[:1] + ["sharptop grid"] + HEADER[2:] + TET_POINTS
        + ["CELLS 1 5", "4 0 1 2 3", "CELL_TYPES 1", "10", "CELL_DATA 1",
           "SCALARS phase double 1", "LOOKUP_TABLE default", "1"])


def test_vtk_triangle_surface(tmp_path):
    write_vtk_surface(tmp_path / "s.vtk", POINTS, [[0, 1, 2], [1, 3, 2]],
                      point_data={"H": [0.5, 0.25, 0.1, 2.0],
                                  "K": [0, 0, 0, -1]})
    assert lines(tmp_path / "s.vtk") == (
        HEADER[:1] + ["sharptop interface"] + HEADER[2:] + TET_POINTS
        + ["CELLS 2 8", "3 0 1 2", "3 1 3 2", "CELL_TYPES 2", "5", "5",
           "POINT_DATA 4", "SCALARS H double 1", "LOOKUP_TABLE default",
           "0.5", "0.25", "0.10000000000000001", "2",
           "SCALARS K double 1", "LOOKUP_TABLE default",
           "0", "0", "0", "-1"])


def test_obj_with_face_normals(tmp_path):
    write_obj(tmp_path / "i.obj", POINTS[:3], [[0, 1, 2]], [[0, 0, 1.0]])
    assert lines(tmp_path / "i.obj") == [
        "v 0 0 0", "v 1 0 0", "v 0 1 0", "vn 0 0 1", "f 1//1 2//1 3//1"]


def test_vtk_and_obj_bytes_match_line_by_line_oracle(tmp_path):
    rng = np.random.default_rng(4)
    grid = jittered_box_mesh((3, 2, 2), rng, 0.2)
    grid_data = dict(cell_data={"phase": rng.integers(0, 2, grid.n_tets)},
                     point_data={"u": rng.standard_normal(grid.n_vertices)})
    vertices, faces = icosphere(1)
    normals = rng.standard_normal((len(faces), 3))
    surface_data = {"H": rng.standard_normal(len(vertices)),
                    "K": np.arange(len(vertices))}
    # blocks large enough for the array passes
    box = jittered_box_mesh((5, 5, 5), rng, 0.2)
    fine_vertices, fine_faces = icosphere(3)
    many = rng.standard_normal((12_000, 3))
    sparse_ids = rng.integers(0, len(many), (600, 4))
    dense_ids = rng.integers(9_990, 10_040, (600, 4))
    many_faces = rng.integers(0, len(many), (2_500, 3))
    many_normals = rng.standard_normal((len(many_faces), 3))
    cases = [
        (write_vtk_unstructured, vtk_text_oracle,
         (grid.vertices, grid.tets), grid_data),
        (write_vtk_surface, vtk_text_oracle,
         (vertices, faces), dict(point_data=surface_data)),
        (write_obj, obj_text_oracle, (vertices, faces, normals), {}),
        (write_vtk_unstructured, vtk_text_oracle,
         (st.build_box_mesh(1, 1, 1).vertices, np.zeros((0, 4), int)), {}),
        # int8 phase labels, as the CLI passes them
        (write_vtk_unstructured, vtk_text_oracle, (box.vertices, box.tets),
         dict(cell_data={"phase": rng.integers(0, 2, box.n_tets, np.int8)})),
        # vertex ids of up to five digits, sparse and dense
        (write_vtk_unstructured, vtk_text_oracle, (many, sparse_ids), {}),
        (write_vtk_unstructured, vtk_text_oracle, (many, dense_ids), {}),
        (write_obj, obj_text_oracle, (many, many_faces, many_normals), {}),
        (write_obj, obj_text_oracle,
         (many, sparse_ids[:, 1:], many_normals[:len(sparse_ids)]), {}),
        # negative integer and integral-float point data
        (write_vtk_surface, vtk_text_oracle, (fine_vertices, fine_faces),
         dict(point_data={
             "n": rng.integers(-500, 500, len(fine_vertices)),
             "f": rng.integers(-9, 10, len(fine_vertices)).astype(float)})),
    ]
    for i, (write, oracle, args, kwargs) in enumerate(cases):
        path = tmp_path / f"out{i}"
        write(path, *args, **kwargs)
        assert path.read_bytes() == oracle(*args, **kwargs).encode()


def test_integer_columns_skip_the_percent_call(tmp_path, monkeypatch):
    """Connectivity, labels and integral coordinates are built in array
    passes: with the % fallback made to raise, an 8^3 box of integral
    coordinates with int8 labels and an OBJ of its boundary are written,
    and equal the line-by-line text."""
    mesh = st.build_box_mesh(8, 8, 8, extent=(8.0, 8.0, 8.0))
    labels = (np.arange(mesh.n_tets) % 2).astype(np.int8)
    faces = mesh.boundary_faces
    normals = np.zeros((len(faces), 3))
    normals[:, 2] = -1.0
    want_vtk = vtk_text_oracle(mesh.vertices, mesh.tets,
                               cell_data={"phase": labels})
    want_obj = obj_text_oracle(mesh.vertices, faces, normals)

    def no_percent(fmt, rows):
        raise AssertionError(f"{fmt!r} took the % call")
    monkeypatch.setattr(export, "_percent_lines", no_percent)
    write_vtk_unstructured(tmp_path / "g.vtk", mesh.vertices, mesh.tets,
                           cell_data={"phase": labels})
    write_obj(tmp_path / "i.obj", mesh.vertices, faces, normals)
    assert (tmp_path / "g.vtk").read_bytes() == want_vtk.encode()
    assert (tmp_path / "i.obj").read_bytes() == want_obj.encode()


def percent_oracle(fmt, rows):
    return (fmt + "\n") * len(rows) % tuple(np.asarray(rows).ravel().tolist())


INT64 = np.iinfo(np.int64)
# values where the digit count or the sign changes, or where np.abs or a
# cast to int64 overflows
INT_EDGES = [0, 1, 9, 10, 99, 100, -1, -9, -10, -128, 127, 255,
             INT64.min, INT64.min + 1, INT64.max, 2**63, 2**63 + 1,
             10**19 - 1, 10**19, 2**64 - 1]
INT_FORMATS = ["%d", "4 %d %d %d %d", "t %d %d %d %d",
               "f %d//%d %d//%d %d//%d"]
# -0.0 prints "-0"; 2**53 and above, 1e16 to 1e17, and 1e17 and above
# (printed with an exponent) stay on the % call
FLOAT_EDGES = [-0.0, 0.0, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, 2.0**53 + 2,
               -(2.0**53 + 2), 1e16, 3e16 + 4, 99999999999999984.0, 1e17,
               -1e17, 1.5e300, np.nan, np.inf, -np.inf, 0.5, -2.5, 1e-300]
FLOAT_FORMATS = ["%.17g", "v %.17g %.17g %.17g"]


# enough values for either conversion to take the array passes
ARRAY_MIN = max(export._ARRAY_MIN.values())


@hs.composite
def format_and_rows(draw, formats, dtypes, values):
    """A format, and 0 to 6 rows of its width, or those rows repeated up
    to `ARRAY_MIN` values; one-field rows may be 1-D."""
    fmt = draw(hs.sampled_from(formats))
    width = fmt.count("%")
    dtype = draw(hs.sampled_from(dtypes))
    n = draw(hs.integers(0, 6))
    rows = np.array(draw(hs.lists(values(dtype), min_size=n * width,
                                  max_size=n * width)), dtype)
    if width > 1 or draw(hs.booleans()):
        rows = rows.reshape(n, width)
    if n and draw(hs.booleans()):
        rows = repeated(rows)
    return fmt, rows


def repeated(rows):
    """`rows` repeated up to at least `ARRAY_MIN` values."""
    rows = np.asarray(rows)
    return np.concatenate([rows] * -(-ARRAY_MIN // rows.size))


def integer_values(dtype):
    if dtype is np.bool_:
        return hs.booleans()
    info = np.iinfo(dtype)
    return hs.one_of(
        hs.integers(max(info.min, -30), min(info.max, 30)),
        hs.sampled_from([v for v in INT_EDGES if info.min <= v <= info.max]),
        hs.integers(info.min, info.max))


def float_values(dtype):
    integral = hs.one_of(hs.integers(-30, 30),
                         hs.integers(-2**53 + 1, 2**53 - 1),
                         hs.integers(10**16, 10**17)).map(float)
    return hs.one_of(integral, integral, hs.sampled_from(FLOAT_EDGES),
                     hs.floats())


@settings(max_examples=150)
@given(format_and_rows(INT_FORMATS, [np.int8, np.int64, np.uint64, np.bool_],
                       integer_values))
@example(("%d", repeated([INT64.min, -1, 0, 7, INT64.max])))
@example(("%d", repeated(np.array([2**63, 2**64 - 1, 10**19, 0],
                                  np.uint64))))
@example(("t %d %d %d %d", repeated([[-100, -5, 0, 12], [1, -10, 3, 4]])))
@example(("%d", repeated(np.array([-128, 127, 0, -1, 5], np.int8))))
@example(("%d", repeated(np.array([True, False, True]))))
def test_lines_of_integers_equal_one_percent_call(case):
    fmt, rows = case
    assert _lines(fmt, rows) == percent_oracle(fmt, rows)


@settings(max_examples=150)
@given(format_and_rows(FLOAT_FORMATS, [np.float64], float_values))
@example(("%.17g", repeated([-0.0, 1.0, -3.0])))
@example(("%.17g", repeated([-3.0, 0.0, 7.0])))
@example(("%.17g", repeated([2.0**53 - 1, -(2.0**53 - 1), 12.0])))
@example(("v %.17g %.17g %.17g", repeated([[1e17, 3e16 + 4, -12.0]])))
def test_lines_of_floats_equal_one_percent_call(case):
    fmt, rows = case
    assert _lines(fmt, rows) == percent_oracle(fmt, rows)


@settings(max_examples=20)
@given(hs.lists(hs.tuples(hs.integers(0, 10**6), hs.integers(0, 10**6),
                          hs.integers(0, 10**6),
                          hs.sampled_from(["FREE", "DIRICHLET"])),
                max_size=5))
def test_lines_of_mixed_object_rows_equal_one_percent_call(faces):
    rows = np.empty((len(faces), 4), object)
    for i, face in enumerate(faces):
        rows[i] = face
    assert _lines("bf %d %d %d %s", rows) == \
        percent_oracle("bf %d %d %d %s", rows)
