from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

import sharptop as st
from sharptop.mesh import (_TET_FACES, FREE, TAGS, MeshError, ReferenceMesh,
                           _sorted_triples, component_count, corner_crosses,
                           corner_terms, face_topology, plane_tagging)
from sharptop.surfaces import wedge_fold

from conftest import (NONMANIFOLD_MESH, TWO_BOXES_MESH, ZERO_VOLUME_MESH,
                      brute_force_component_count, brute_force_face_adjacency,
                      clamp_bottom_pull_top, even_corner_shuffle,
                      jittered_box_mesh, l_shape_mesh, save_mesh_text_oracle,
                      two_boxes, use_sort_oracles)


def brute_force_boundary_count(mesh):
    counts = {}
    for tet in mesh.tets:
        t = sorted(int(v) for v in tet)
        for skip in range(4):
            face = tuple(v for i, v in enumerate(t) if i != skip)
            counts[face] = counts.get(face, 0) + 1
    return sum(1 for n in counts.values() if n == 1)


def test_unit_cube_volume():
    mesh = st.build_box_mesh(1, 1, 1)
    assert mesh.total_volume() == pytest.approx(1.0, rel=1e-12)


def test_222_box_volume_and_boundary_faces():
    mesh = st.build_box_mesh(2, 2, 2)
    assert mesh.total_volume() == pytest.approx(1.0, rel=1e-12)
    # 6 box sides, each 2x2 cells, 2 triangles per square cell face
    assert len(mesh.boundary_faces) == 48
    assert brute_force_boundary_count(mesh) == 48


def test_anisotropic_extent_volume():
    mesh = st.build_box_mesh(1, 1, 1, extent=(2.0, 1.0, 1.0))
    assert mesh.total_volume() == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_volume_matches_analytic(n):
    mesh = st.build_box_mesh(n, n + 1, n, extent=(1.5, 0.5, 2.0))
    assert abs(mesh.total_volume() - 1.5) < 1e-12 * 1.5


def test_all_volumes_positive(small_mesh):
    assert np.all(small_mesh.volumes > 0)


@settings(max_examples=30)
@given(dims=hs.tuples(*[hs.integers(1, 4)] * 3),
       seed=hs.integers(0, 2**32 - 1), jitter=hs.floats(0.0, 0.3))
def test_reference_geometry_matches_linalg(dims, seed, jitter):
    """The volumes and ref_inv from the edge cofactors match np.linalg
    to 1e-12 on jittered meshes, and ref_inv DX = I."""
    mesh = jittered_box_mesh(dims, np.random.default_rng(seed), jitter)
    x = mesh.vertices[mesh.tets]
    DX = np.transpose(x[:, 1:] - x[:, :1], (0, 2, 1))   # edges as columns
    det = np.linalg.det(DX)
    assert np.max(np.abs(mesh.volumes - det / 6.0)) <= 1e-12 * np.max(
        np.abs(det / 6.0))
    residual = mesh.ref_inv @ DX - np.eye(3)
    assert np.max(np.abs(residual)) <= 1e-12
    inv = np.linalg.inv(DX)
    assert np.max(np.abs(mesh.ref_inv - inv)) <= 1e-12 * np.max(np.abs(inv))


def test_bad_counts_and_extents():
    with pytest.raises(MeshError):
        st.build_box_mesh(0, 1, 1)
    with pytest.raises(MeshError):
        st.build_box_mesh(1, 1, 1, extent=(0.0, 1, 1))


def test_validate_well_formed(small_mesh):
    """A mesh that passed construction has no face of more than two tets
    and its tags on the faces of one tet, each tagged once."""
    _, _, boundary, shared = face_topology(small_mesh.tets,
                                           small_mesh.n_vertices)
    assert len(shared) == 0
    assert np.array_equal(small_mesh.boundary_faces, boundary)


def test_validate_inverted_tet(small_mesh):
    """Construction orients a negative tet by swapping its corners 0 and
    1, so the mesh equals the one built from the positive tet."""
    tets = np.array(small_mesh.tets)
    tets[3, :2] = tets[3, 1::-1]
    mesh = ReferenceMesh(vertices=small_mesh.vertices, tets=tets,
                         boundary_faces=small_mesh.boundary_faces,
                         boundary_tags=small_mesh.boundary_tags)
    assert np.all(mesh.volumes > 0)
    assert tets[3, 0] == small_mesh.tets[3, 1]    # the input is not changed
    assert_same_mesh(mesh, small_mesh)


def _with(index, value):
    """A function giving a copy of its array with a[index] = value."""
    def change(a):
        a = np.array(a)
        a[index] = value
        return a
    return change


_BOX = st.build_box_mesh(2, 2, 2)
_NV, _LAST = _BOX.n_vertices, _BOX.n_tets - 1


@pytest.mark.parametrize("name, change, message", [
    pytest.param("vertices", lambda v: v[:, :2],
                 "vertices: expected shape (nv, 3), got (27, 2)",
                 id="flat-vertices"),
    pytest.param("tets", lambda t: t[:0],
                 "tets: expected shape (nt, 4), nt >= 1, got (0, 4)",
                 id="no-tets"),
    pytest.param("tets", lambda t: t[:, :3],
                 "tets: expected shape (nt, 4), nt >= 1, got (48, 3)",
                 id="triangle-tets"),
    pytest.param("tets", np.ravel,
                 "tets: expected shape (nt, 4), nt >= 1, got (192,)",
                 id="flat-tets"),
    pytest.param("boundary_faces", lambda f: np.c_[f, f[:, :1]],
                 "boundary faces: expected shape (nb, 3), got (48, 4)",
                 id="quad-faces"),
    pytest.param("boundary_tags", lambda t: t[:-1],
                 "boundary tags: expected shape (48,), one per boundary "
                 "face, got (47,)", id="short-tags"),
    pytest.param("vertices", _with(7, np.nan),
                 "non-finite vertices [7] (1 total)", id="nan-vertex"),
    pytest.param("tets", _with((_LAST, 2), _BOX.tets[_LAST, 2] - _NV),
                 f"tets with vertex indices outside [0, {_NV}) [{_LAST}] "
                 "(1 total)", id="negative-index"),
    pytest.param("tets", _with((4, 0), _NV),
                 f"tets with vertex indices outside [0, {_NV}) [4] (1 total)",
                 id="index-nv"),
    pytest.param("boundary_faces", _with((5, 2), -1),
                 f"boundary faces with vertex indices outside [0, {_NV}) [5] "
                 "(1 total)", id="face-index"),
    pytest.param("boundary_tags", _with([3, 23, 43], "SLIDING"),
                 "unknown tags ['SLIDING'] on boundary faces [3, 23, 43] "
                 "(3 total)", id="unknown-tag"),
    pytest.param("tets", lambda t: t + 0.7,
                 "tets: expected integer vertex indices, got float64",
                 id="float-tets"),
    pytest.param("boundary_faces", lambda f: f.astype(np.float32),
                 "boundary faces: expected integer vertex indices, got "
                 "float32", id="float-faces"),
    pytest.param("tets", _with((9, 3), _BOX.tets[9, 2]),
                 "zero-volume tets [9] (1 total)", id="flat-tet"),
])
def test_reference_mesh_rejects_bad_input(name, change, message):
    """Each bad input raises MeshError at construction, naming the
    offending entries; those before the zero-volume check are caught
    before anything is gathered by index."""
    fields = {field: getattr(_BOX, field) for field in
              ("vertices", "tets", "boundary_faces", "boundary_tags")}
    fields[name] = change(fields[name])
    with pytest.raises(MeshError) as info:
        ReferenceMesh(**fields)
    assert str(info.value) == message


def test_validate_tag_on_interior_face(small_mesh):
    face = next(f for f, ts in
                brute_force_face_adjacency(small_mesh.tets).items()
                if len(ts) == 2)
    bfaces = np.vstack([small_mesh.boundary_faces, np.array(face)])
    btags = np.append(small_mesh.boundary_tags, FREE)
    with pytest.raises(MeshError) as info:
        ReferenceMesh(vertices=small_mesh.vertices, tets=small_mesh.tets,
                      boundary_faces=bfaces, boundary_tags=btags)
    assert str(info.value) == (f"tags on non-boundary faces [{list(face)}] "
                               "(1 total)")


def _box_rows(rows):
    """The 2x2x2 box with only its boundary faces and tags at `rows`."""
    return dict(vertices=_BOX.vertices, tets=_BOX.tets,
                boundary_faces=_BOX.boundary_faces[rows],
                boundary_tags=_BOX.boundary_tags[rows])


_FACE_5 = _BOX.boundary_faces[5].tolist()


@pytest.mark.parametrize("fields, message", [
    pytest.param(dict(
        vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1],
                  [0.2, 0.2, 0.5]],
        tets=[[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]],
        boundary_faces=[[0, 1, 2]] + [[a, b, apex] for apex in (3, 4, 5)
                                      for a, b in ((0, 1), (0, 2), (1, 2))],
        boundary_tags=[FREE] * 10),
        "faces of more than two tets [[0, 1, 2]] (1 total)", id="three-tets"),
    pytest.param(dict(vertices=np.eye(4, 3, -1), tets=[[0, 1, 2, 3]] * 2,
                      boundary_faces=np.empty((0, 3), int), boundary_tags=[]),
                 "duplicate tets [[0, 1]] (1 total)", id="duplicate-tet"),
    pytest.param(_box_rows(np.r_[:5, 6:48]),
                 f"untagged boundary faces [{_FACE_5}] (1 total)",
                 id="untagged"),
    pytest.param(_box_rows(np.r_[:48, 5]),
                 f"boundary faces tagged more than once [{_FACE_5}] "
                 "(1 total)", id="tagged-twice"),
])
def test_reference_mesh_rejects_bad_faces(fields, message):
    """Construction rejects faces of more than two tets before duplicate
    tets, and both before the tags: the fan tags its shared face, and
    each face of the duplicated tet is shared by exactly the pair."""
    with pytest.raises(MeshError) as info:
        ReferenceMesh(**fields)
    assert str(info.value) == message


def test_reference_mesh_copies_its_inputs():
    """The caller's arrays stay writable, and writing to them leaves the
    mesh as it was."""
    box = st.build_box_mesh(2, 2, 2)
    fields = {name: np.array(getattr(box, name)) for name in
              ("vertices", "tets", "boundary_faces", "boundary_tags")}
    mesh = ReferenceMesh(**fields)
    for name, value in fields.items():
        assert value.flags.writeable, name
        value[0] = value[1]
        assert np.array_equal(getattr(mesh, name), getattr(box, name)), name


def test_face_adjacency_involution(small_mesh):
    for face, tets in brute_force_face_adjacency(small_mesh.tets).items():
        assert len(tets) in (1, 2)
        for ti in tets:
            verts = set(int(v) for v in small_mesh.tets[ti])
            assert set(face) <= verts
    once = sorted(f for f, ts in
                  brute_force_face_adjacency(small_mesh.tets).items()
                  if len(ts) == 1)
    assert list(map(tuple, small_mesh.boundary_faces.tolist())) == once


@settings(max_examples=30, deadline=None)
@given(dims=hs.tuples(*[hs.integers(1, 3)] * 3),
       seed=hs.integers(0, 2**32 - 1), duplicate=hs.booleans())
def test_face_topology_matches_dict_oracle(dims, seed, duplicate):
    """Face arrays equal a dict walk over permuted, relabelled box meshes,
    with or without a duplicated tet, and construction raises exactly
    when a tet is duplicated."""
    box = st.build_box_mesh(*dims)
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(box.n_vertices)
    vertices = np.empty_like(box.vertices)
    vertices[relabel] = box.vertices
    tets = box.tets[rng.permutation(box.n_tets)]
    # cycle the last three vertices of each tet: orientation is kept
    for _ in range(2):
        turn = rng.random(len(tets)) < 0.5
        tets[turn] = tets[turn][:, [0, 2, 3, 1]]
    if duplicate:
        tets = np.insert(tets, rng.integers(len(tets) + 1),
                         tets[rng.integers(len(tets))], axis=0)
    tets = relabel[tets]
    adj = brute_force_face_adjacency(tets)
    interior = [(list(f), ts) for f, ts in adj.items() if len(ts) == 2]
    faces, pairs, boundary, shared = face_topology(tets, len(vertices))
    assert faces.tolist() == [f for f, _ in interior]
    assert pairs.tolist() == [ts for _, ts in interior]
    assert boundary.tolist() == sorted(
        list(f) for f, ts in adj.items() if len(ts) == 1)
    assert shared.tolist() == sorted(
        list(f) for f, ts in adj.items() if len(ts) > 2)
    fields = dict(vertices=vertices, tets=tets,
                  boundary_faces=relabel[box.boundary_faces],
                  boundary_tags=box.boundary_tags)
    if duplicate:
        with pytest.raises(MeshError, match="^(faces of more than two tets"
                           "|duplicate tets) "):
            ReferenceMesh(**fields)
    else:
        mesh = ReferenceMesh(**fields)
        for name, want in (("interior_faces", faces),
                           ("interior_face_tets", pairs),
                           ("boundary_faces", boundary)):
            assert np.array_equal(getattr(mesh, name), want), name


def test_load_rejects_face_of_three_tets(tmp_path):
    path = tmp_path / "fan.tet"
    path.write_text(NONMANIFOLD_MESH)
    with pytest.raises(MeshError) as info:
        st.load_mesh(path)
    assert str(info.value) == (f"{path}: invalid mesh: faces of more than "
                               "two tets [[0, 1, 2]] (1 total)")


def test_load_rejects_zero_volume_tet(tmp_path):
    path = tmp_path / "flat.tet"
    path.write_text(ZERO_VOLUME_MESH)
    with pytest.raises(MeshError, match="flat.tet: invalid mesh: zero-volume"):
        st.load_mesh(path)


def test_save_load_round_trip(tmp_path, clamped_mesh):
    path = tmp_path / "mesh.tet"
    st.save_mesh(clamped_mesh, path)
    loaded = st.load_mesh(path)
    assert np.array_equal(loaded.tets, clamped_mesh.tets)
    assert np.array_equal(loaded.boundary_faces, clamped_mesh.boundary_faces)
    assert np.array_equal(loaded.boundary_tags, clamped_mesh.boundary_tags)
    np.testing.assert_allclose(loaded.vertices, clamped_mesh.vertices,
                               rtol=1e-15, atol=0)


# a clamp-and-pull 1 x 1 x 1 box of extent (0.3, 0.7, 1), as a writer
# that formatted one line at a time printed it
SAVED_BOX = """tetmesh v1
v 0 0 0
v 0 0 1
v 0 0.69999999999999996 0
v 0 0.69999999999999996 1
v 0.29999999999999999 0 0
v 0.29999999999999999 0 1
v 0.29999999999999999 0.69999999999999996 0
v 0.29999999999999999 0.69999999999999996 1
t 0 4 6 7
t 4 0 5 7
t 2 0 6 7
t 0 2 3 7
t 0 1 5 7
t 1 0 3 7
bf 0 1 3 FREE
bf 0 1 5 FREE
bf 0 2 3 FREE
bf 0 2 6 DIRICHLET
bf 0 4 5 FREE
bf 0 4 6 DIRICHLET
bf 1 3 7 NEUMANN
bf 1 5 7 NEUMANN
bf 2 3 7 FREE
bf 2 6 7 FREE
bf 4 5 7 FREE
bf 4 6 7 FREE
"""


def test_save_writes_the_golden_bytes(tmp_path):
    """save_mesh writes a small box byte for byte as the line-by-line
    writer did: vertices at 17 significant digits, tets, then the
    tagged boundary faces."""
    path = tmp_path / "box.tet"
    st.save_mesh(st.build_box_mesh(1, 1, 1, extent=(0.3, 0.7, 1.0),
                                   tagging=clamp_bottom_pull_top), path)
    assert path.read_bytes() == SAVED_BOX.encode()


def test_save_matches_line_by_line_oracle_on_a_6_cube(tmp_path):
    """Vertex ids of one to three digits, in a tet block large enough for
    the array passes, as a line-by-line writer prints them."""
    mesh = st.build_box_mesh(6, 6, 6, extent=(0.3, 0.7, 1.0),
                             tagging=clamp_bottom_pull_top)
    path = tmp_path / "box.tet"
    st.save_mesh(mesh, path)
    assert path.read_bytes() == save_mesh_text_oracle(mesh).encode()


def test_load_reports_parse_error_line(tmp_path):
    path = tmp_path / "bad.tet"
    path.write_text("tetmesh v1\nv 0 0 zero\n")
    with pytest.raises(MeshError, match="bad.tet:2"):
        st.load_mesh(path)


def test_load_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "oob.tet"
    path.write_text("tetmesh v1\n"
                    "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                    "t 0 1 2 9\n")
    with pytest.raises(MeshError, match=r"oob.tet: invalid mesh: tets with "
                       r"vertex indices outside \[0, 4\) \[0\]"):
        st.load_mesh(path)


def test_load_fixes_orientation(tmp_path):
    path = tmp_path / "neg.tet"
    # negatively oriented tet; loader swaps two vertices
    path.write_text("tetmesh v1\n"
                    "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                    "t 1 0 2 3\n"
                    "bf 0 1 2 FREE\nbf 0 1 3 FREE\nbf 0 2 3 FREE\n"
                    "bf 1 2 3 FREE\n")
    mesh = st.load_mesh(path)
    assert np.all(mesh.volumes > 0)


def test_plane_tagging():
    tag = plane_tagging([{"tag": "DIRICHLET", "axis": 2, "value": 0.0},
                         {"tag": "NEUMANN", "axis": 2, "value": 1.0}])
    mesh = st.build_box_mesh(2, 2, 2, tagging=tag)
    tags = set(mesh.boundary_tags.tolist())
    assert tags == {"DIRICHLET", "NEUMANN", "FREE"}
    centroids = mesh.vertices[mesh.boundary_faces].mean(axis=1)
    for c, t in zip(centroids, mesh.boundary_tags):
        if t == "DIRICHLET":
            assert abs(c[2]) < 1e-9
    assert mesh.boundary_tags.tolist() == [tag(c) for c in centroids]


@pytest.mark.parametrize("key", ["tag", "axis", "value"])
def test_plane_tagging_rejects_a_rule_without_a_key(key):
    """A rule missing a key raises when the rules are read, naming the
    rule and the key, not on the first face a box mesh tags."""
    rules = [{"tag": "DIRICHLET", "axis": 2, "value": 0.0},
             {"tag": "NEUMANN", "axis": 2, "value": 1.0}]
    del rules[1][key]
    with pytest.raises(ValueError) as info:
        plane_tagging(rules)
    assert str(info.value) == (f"plane tagging: rule 1 {rules[1]!r} has no "
                               f"{key!r}")


def test_plane_tagging_rejects_negative_tol():
    """A negative tol would tag no face; tol = 0 tags the exact plane."""
    rule = {"tag": "DIRICHLET", "axis": 2, "value": 0.0}
    with pytest.raises(ValueError, match="tol"):
        plane_tagging([dict(rule, tol=-1e-9)])
    mesh = st.build_box_mesh(2, 2, 2, tagging=plane_tagging([dict(rule,
                                                                  tol=0)]))
    assert np.count_nonzero(mesh.boundary_tags == "DIRICHLET") == 8


def _boundary_of(mesh, faces, tags):
    """The mesh's vertices and tets with the given boundary rows."""
    return ReferenceMesh(vertices=mesh.vertices, tets=mesh.tets,
                         boundary_faces=faces, boundary_tags=tags)


MESH_KINDS = {
    "box-1x1x1": lambda: st.build_box_mesh(1, 1, 1),
    "box-3x1x2": lambda: st.build_box_mesh(3, 1, 2,
                                           tagging=clamp_bottom_pull_top),
    "box-2x4x3": lambda: st.build_box_mesh(2, 4, 3),
    "jittered": lambda: jittered_box_mesh((2, 3, 2),
                                          np.random.default_rng(3), 0.2),
    "l-shape": l_shape_mesh,
    "wedge": lambda: wedge_fold()[0],
    "shuffled": lambda: even_corner_shuffle(
        st.build_box_mesh(2, 3, 2, tagging=clamp_bottom_pull_top), 4),
    "two-boxes": lambda: ReferenceMesh(*two_boxes(st.build_box_mesh(2, 1, 2))),
}


@pytest.mark.parametrize("make", MESH_KINDS.values(), ids=MESH_KINDS)
def test_boundary_faces_equal_face_topology(make):
    """Every mesh stores face_topology's boundary, sorted triples in
    lexicographic order, and each face's tag moves with it: from faces
    given in reverse with reversed corners and tags cycling through
    TAGS, the mesh stores the tag given for each face."""
    mesh = make()
    assert np.array_equal(mesh.boundary_faces,
                          face_topology(mesh.tets, mesh.n_vertices)[2])
    faces = mesh.boundary_faces[::-1, ::-1]
    tags = np.array(TAGS, object)[np.arange(len(faces)) % 3]
    again = _boundary_of(mesh, faces, tags)
    assert np.array_equal(again.boundary_faces, mesh.boundary_faces)
    given_tag = dict(zip(map(tuple, np.sort(faces, axis=1).tolist()), tags))
    assert again.boundary_tags.tolist() == [
        given_tag[f] for f in map(tuple, again.boundary_faces.tolist())]


def assert_same_mesh(mesh, want):
    """Every stored and lazily built array of `mesh` byte-equal to
    `want`'s, with equal dtypes and shapes; tags compare as strings."""
    names = [name for name, value in vars(want).items()
             if isinstance(value, np.ndarray)] + list(LAZY_MAPS)
    for name in names:
        got, expected = getattr(mesh, name), getattr(want, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        if got.dtype == object:
            assert got.tolist() == expected.tolist(), name
        else:
            assert got.tobytes() == expected.tobytes(), name


@settings(max_examples=200)
@given(rows=hs.lists(hs.tuples(*[hs.integers(-2, 2) | hs.integers(
    -2**63, 2**63 - 1)] * 3), max_size=40))
@example(rows=[(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (0, 2**63 - 1,
                                                            -2**63)])
def test_sorted_triples_equal_np_sort(rows):
    """The min/max network sorts any int64 triples, ties and the extreme
    values included, into the rows of np.sort, component first."""
    rows = np.array(rows, np.int64).reshape(-1, 3)
    got = _sorted_triples(*rows.T)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.sort(rows, axis=1).T)


@pytest.mark.parametrize("make", MESH_KINDS.values(), ids=MESH_KINDS)
def test_gate_equals_the_sort_oracles(make, monkeypatch, tmp_path):
    """Every stored and lazily built array of a mesh, and of the mesh
    saved and loaded, is byte-equal to the one the gate gives through the
    np.sort and row-reduction forms its column passes replaced; the tet
    centroids sum their corners in order, as a mean over the rows did."""
    path = tmp_path / "mesh.tet"

    def meshes():
        mesh = make()
        if component_count(mesh.n_tets, mesh.interior_face_tets) > 1:
            return [mesh]   # load_mesh refuses a body in pieces
        st.save_mesh(mesh, path)
        return [mesh, st.load_mesh(path)]

    got = meshes()
    with monkeypatch.context() as patch:
        use_sort_oracles(patch)
        want = meshes()
        for mesh in want:
            for name in LAZY_MAPS:
                getattr(mesh, name)
    for mesh, expected in zip(got, want, strict=True):
        assert_same_mesh(mesh, expected)
        assert np.array_equal(mesh.tet_centroids(),
                              mesh.vertices[mesh.tets].mean(axis=1))


def _bad_rows(rows, values):
    """A function giving a copy of its array with entry r % ncols of each
    row r of `rows` set to the next of `values`."""
    def change(a):
        a = np.array(a)
        for r, value in zip(rows, values):
            a[r, r % a.shape[1]] = value
        return a
    return change


_ROWS = [3, 8, 13, 21, 22, 26, 47]   # more than a message names


@pytest.mark.parametrize("fields, message", [
    pytest.param(dict(tets=_bad_rows(_ROWS, [-1, _NV, -5, _NV + 3, 2**40,
                                             -2**40, _NV])),
                 f"tets with vertex indices outside [0, {_NV}) "
                 "[3, 8, 13, 21, 22] (7 total)", id="tets"),
    pytest.param(dict(boundary_faces=_bad_rows(_ROWS, [_NV, -1] * 4)),
                 f"boundary faces with vertex indices outside [0, {_NV}) "
                 "[3, 8, 13, 21, 22] (7 total)", id="faces"),
    pytest.param(dict(vertices=_bad_rows(_ROWS[:-1], [np.nan, np.inf,
                                                      -np.inf] * 2)),
                 "non-finite vertices [3, 8, 13, 21, 22] (6 total)",
                 id="vertices"),
    pytest.param(dict(boundary_faces=lambda f: f[:0],
                      boundary_tags=lambda t: t[:0]),
                 "untagged boundary faces [[0, 1, 4], [0, 1, 10], [0, 3, 4], "
                 "[0, 3, 12], [0, 9, 10]] (48 total)", id="no-faces"),
    pytest.param(dict(boundary_faces=lambda f: np.empty((0, 3)),
                      boundary_tags=lambda t: []),
                 "untagged boundary faces [[0, 1, 4], [0, 1, 10], [0, 3, 4], "
                 "[0, 3, 12], [0, 9, 10]] (48 total)", id="no-float-faces"),
])
def test_gate_errors_equal_the_sort_oracles(fields, message, monkeypatch):
    """The column passes name the same first offending entries, in the
    same words, as the row reductions they replaced, with or without
    boundary faces."""
    given = {name: getattr(_BOX, name) for name in
             ("vertices", "tets", "boundary_faces", "boundary_tags")}
    given.update({name: change(given[name])
                  for name, change in fields.items()})
    with pytest.raises(MeshError) as got:
        ReferenceMesh(**given)
    with monkeypatch.context() as patch:
        use_sort_oracles(patch)
        with pytest.raises(MeshError) as want:
            ReferenceMesh(**given)
    assert str(got.value) == str(want.value) == message


def test_boundary_order_is_canonical(tmp_path):
    """A mesh built from its boundary rows shuffled, each face's corners
    rotated or reflected and the tags moved along, equals the mesh array
    for array, lazy maps included; save -> load -> save writes the same
    bytes as saving the mesh."""
    meshes = {"l-shape": l_shape_mesh(), "wedge": wedge_fold()[0]}
    orders = np.array(list(permutations(range(3))))

    @settings(max_examples=30, deadline=None)
    @given(kind=hs.sampled_from(["jittered", "l-shape", "wedge", "shuffled"]),
           seed=hs.integers(0, 2**32 - 1))
    def check(kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "jittered":
            mesh = jittered_box_mesh(tuple(rng.integers(1, 4, 3)), rng, 0.2)
        elif kind == "shuffled":
            mesh = even_corner_shuffle(
                st.build_box_mesh(*rng.integers(1, 4, 3)), seed)
        else:
            mesh = meshes[kind]
        # a random tag on each face, so that a misplaced tag shows
        tags = np.array(TAGS, object)[rng.integers(3, size=len(
            mesh.boundary_faces))]
        mesh = _boundary_of(mesh, mesh.boundary_faces, tags)
        rows = rng.permutation(len(tags))
        corners = orders[rng.integers(len(orders), size=len(rows))]
        shuffled = _boundary_of(mesh, np.take_along_axis(
            mesh.boundary_faces[rows], corners, axis=1), tags[rows])
        assert_same_mesh(shuffled, mesh)
        paths = [tmp_path / name for name in ("mesh.tet", "a.tet", "b.tet")]
        st.save_mesh(mesh, paths[0])
        st.save_mesh(shuffled, paths[1])
        st.save_mesh(st.load_mesh(paths[1]), paths[2])
        assert paths[1].read_bytes() == paths[2].read_bytes() \
            == paths[0].read_bytes()

    check()


def _pair_sets(vertex_pairs, edge_pairs):
    """Unordered triangle pairs as sets of vertex-id sets."""
    return ({(p, frozenset([frozenset((p, a1, a2)), frozenset((p, b1, b2))]))
             for p, a1, a2, b1, b2 in vertex_pairs.tolist()},
            {frozenset([frozenset((u, v, a)), frozenset((u, v, b))])
             for u, v, a, b in edge_pairs.tolist()})


@pytest.mark.parametrize("mesh", [
    st.build_box_mesh(2, 3, 1), wedge_fold()[0],
], ids=["box", "wedge-fold"])
def test_boundary_pairs_match_brute_force(mesh):
    faces = mesh.boundary_faces.tolist()
    vertex, edge = [], []
    for i, a in enumerate(faces):
        for b in faces[i + 1:]:
            common = [v for v in a if v in b]
            if len(common) == 1:
                vertex.append((common[0], frozenset([frozenset(a),
                                                     frozenset(b)])))
            elif len(common) == 2:
                edge.append(frozenset([frozenset(a), frozenset(b)]))
    assert len(mesh.boundary_vertex_pairs) == len(vertex)
    assert len(mesh.boundary_edge_pairs) == len(edge)
    assert _pair_sets(mesh.boundary_vertex_pairs,
                      mesh.boundary_edge_pairs) == (set(vertex), set(edge))


@settings(max_examples=30)
@given(n=hs.integers(0, 40), edges=hs.lists(
    hs.tuples(hs.integers(0, 39), hs.integers(0, 39)), max_size=60))
def test_component_count_matches_union_find(n, edges):
    edges = [(a, b) for a, b in edges if a < n and b < n]
    assert component_count(n, edges) == brute_force_component_count(n,
                                                                    edges)


def test_load_rejects_disconnected_mesh(tmp_path):
    path = tmp_path / "boxes.tet"
    path.write_text(TWO_BOXES_MESH)
    with pytest.raises(MeshError) as info:
        st.load_mesh(path)
    assert str(info.value) == (f"{path}: invalid mesh: 2 face-connected "
                               "components")
    box = st.build_box_mesh(2, 2, 2)
    assert component_count(box.n_tets, box.interior_face_tets) == 1


def test_derived_arrays_are_read_only():
    """Every public array field is read-only; the gradient scatters
    through a writable private copy-free alias of `scatter_index`, which
    np.bincount would otherwise copy on every call."""
    mesh = st.build_box_mesh(2, 2, 2)
    for name, value in vars(mesh).items():
        if isinstance(value, np.ndarray) and not name.startswith("_"):
            assert not value.flags.writeable, name
    assert mesh._scatter_index.flags.writeable
    assert np.shares_memory(mesh.scatter_index, mesh._scatter_index)
    assert np.array_equal(mesh.scatter_index, mesh._scatter_index)


LAZY_MAPS = ("interior_edge_keys", "interior_face_edges",
             "interior_edge_on_boundary", "interior_face_outward",
             "tet_interior_faces", "vertex_tet_start", "vertex_tets")


@pytest.mark.parametrize("tagging", [None, lambda c: (
    "DIRICHLET" if c[2] == 0.0 else "FREE")])
def test_edge_and_adjacency_maps_are_built_on_first_use(tagging):
    """The maps the annealer and the preconditioner walk are not built at
    construction; once read they are read-only and agree with a scan of
    the faces and tets."""
    mesh = st.build_box_mesh(3, 2, 2, tagging=tagging)
    assert not {"_interior_edges", *LAZY_MAPS} & set(vars(mesh))
    for name in LAZY_MAPS:
        assert not getattr(mesh, name).flags.writeable, name
    nv, keys = mesh.n_vertices, mesh.interior_edge_keys
    for face, edges in zip(mesh.interior_faces.tolist(),
                           mesh.interior_face_edges.tolist()):
        a, b, c = face
        assert keys[edges].tolist() == [a * nv + b, b * nv + c, a * nv + c]
    boundary = {tuple(sorted(e)) for f in mesh.boundary_faces.tolist()
                for e in ((f[0], f[1]), (f[1], f[2]), (f[0], f[2]))}
    assert mesh.interior_edge_on_boundary.tolist() == [
        (k // nv, k % nv) in boundary for k in keys.tolist()]
    for t, faces in enumerate(mesh.tet_interior_faces.tolist()):
        own = [i for i, pair in enumerate(mesh.interior_face_tets.tolist())
               if t in pair]
        assert faces == own + [-1] * (4 - len(own))
    for v in range(nv):
        run = mesh.vertex_tets[mesh.vertex_tet_start[v]:
                               mesh.vertex_tet_start[v + 1]]
        assert run.tolist() == np.flatnonzero((mesh.tets == v).any(axis=1)
                                              ).tolist()


@pytest.mark.parametrize("make", [
    lambda: st.build_box_mesh(3, 2, 2),
    lambda: jittered_box_mesh((2, 3, 2), np.random.default_rng(3), 0.2),
    lambda: wedge_fold()[0],
], ids=["box", "jittered", "wedge"])
def test_interior_face_terms_equal_the_kernel_face_by_face(make):
    """The stored per-face terms, built on first read in chunks and
    read-only, equal bit for bit those of the corner kernel run on each
    interior face alone; each face's angles add up to pi and its
    mixed-area shares to its area."""
    mesh = make()
    assert "interior_face_terms" not in vars(mesh)
    areas, terms = mesh.interior_face_terms
    assert areas.shape == (len(mesh.interior_faces),)
    assert terms.shape == (3, 3, len(areas))
    assert not areas.flags.writeable and not terms.flags.writeable
    for i, face in enumerate(mesh.interior_faces):
        p = np.take(mesh.vertices.T, face[:, None], axis=1)
        e1, e2, _, twice_area = corner_crosses(p)
        area = 0.5 * twice_area[0]
        assert areas[i] == area[0]
        assert np.array_equal(terms[:, :, i],
                              np.stack(corner_terms(e1, e2, twice_area,
                                                    area))[..., 0])
    angles, _, shares = terms
    assert np.allclose(angles.sum(axis=0), np.pi, rtol=1e-14, atol=0.0)
    assert np.allclose(shares.sum(axis=0), areas, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("make", [
    lambda: st.build_box_mesh(3, 2, 2),
    lambda: jittered_box_mesh((2, 3, 2), np.random.default_rng(3), 0.2),
    l_shape_mesh,
    lambda: wedge_fold()[0],
    lambda: even_corner_shuffle(st.build_box_mesh(2, 3, 2), 4),
], ids=["box", "jittered", "l-shape", "wedge", "shuffled"])
def test_interior_face_outward_matches_local_faces(make):
    """A sorted interior face points out of its first tet exactly when it
    is a rotation of that tet's local face on the same corners, as
    _TET_FACES orders them."""
    mesh = make()
    for face, tet, outward in zip(mesh.interior_faces.tolist(),
                                  mesh.interior_face_tets[:, 0].tolist(),
                                  mesh.interior_face_outward.tolist()):
        corners = mesh.tets[tet].tolist()
        local = next([corners[i] for i in f] for f in _TET_FACES
                     if sorted(corners[i] for i in f) == face)
        rotations = [local[k:] + local[:k] for k in range(3)]
        assert (face in rotations) == outward
