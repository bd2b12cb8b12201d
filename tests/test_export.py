import numpy as np

from sharptop.export import write_obj, write_vtk_surface, \
    write_vtk_unstructured

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
