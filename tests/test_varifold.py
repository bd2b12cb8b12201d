from dataclasses import replace
import itertools

from hypothesis import example, given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop.mesh import edge_keys
from sharptop.surfaces import (cylinder_patch, cylinder_varifold, flat_patch,
                               flat_varifold, halfspace_labels, icosphere,
                               slab_labels, sphere_varifold)
from sharptop.topopt import TopOptError, mass_preserving_move
from sharptop.varifold import (ROUNDING, InterfaceError, InterfaceTopology,
                               InterfaceVarifold, curvature_integral,
                               discrete_curvature_inplace, random_bump_fields,
                               referential_energy, swap_energy_changes,
                               varifold_from_triangles)

from conftest import (assert_varifold_equals_oracle,
                      brute_force_curvature_sums, brute_force_face_adjacency,
                      centroid_flips, clamp_bottom_pull_top,
                      even_corner_shuffle, extraction_oracle,
                      jittered_box_mesh, l_shape_mesh,
                      perturbed_slab_labels, triangles_oracle)

CURVATURE_FIELDS = ("mean_curvature", "gauss_curvature", "a_norm",
                    "mixed_area", "interior_vertex")


def brute_force_interface_area(mesh, positions, labels):
    total = 0.0
    for face, tets in brute_force_face_adjacency(mesh.tets).items():
        if len(tets) != 2:
            continue
        la, lb = labels[tets[0]], labels[tets[1]]
        if la == lb:
            continue
        v = positions[list(face)]
        total += 0.5 * np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))
    return total


def brute_force_nonmanifold(mesh, labels):
    """Whether some edge bounds more than two interface triangles."""
    per_edge = {}
    for (a, b, c), tets in brute_force_face_adjacency(mesh.tets).items():
        if len(tets) == 2 and labels[tets[0]] != labels[tets[1]]:
            for edge in ((a, b), (b, c), (a, c)):
                per_edge[edge] = per_edge.get(edge, 0) + 1
    return max(per_edge.values(), default=0) > 2


# ---------------------------------------------------------------- extraction

def test_empty_interface(small_mesh, uniform_phase1):
    V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                             uniform_phase1(small_mesh))
    assert V.n_triangles == 0
    assert st.varifold_mass(V) == 0.0
    assert st.interface_energy(V, st.EnergyModel()) == 0.0


def test_empty_interface_carries_curvature(small_mesh, uniform_phase1):
    V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                             uniform_phase1(small_mesh))
    assert V.mean_curvature.shape == (0, 3)
    for name in CURVATURE_FIELDS[1:]:
        assert getattr(V, name).shape == (0,)
    assert V.clip_count == 0
    assert V.domain_boundary_edges.size == 0
    assert curvature_integral(V) == 0.0


def test_midplane_interface(small_mesh):
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    state = st.identity_state(small_mesh)
    V = st.extract_interface(small_mesh, state, phases)
    assert st.varifold_mass(V) == pytest.approx(1.0, rel=1e-13)
    assert st.varifold_mass(V) == pytest.approx(
        brute_force_interface_area(small_mesh, state.positions,
                                   phases.labels), rel=1e-13)
    # all triangle normals point along -x (phase 1 is the low-x side)
    np.testing.assert_allclose(V.normals,
                               np.broadcast_to([-1.0, 0, 0], V.normals.shape),
                               atol=1e-13)
    # flat interface: zero curvature everywhere
    assert np.max(V.a_norm) < 1e-10
    assert st.boundary_defect(V) == 0


def test_stretched_interface_area(small_mesh):
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    A = np.diag([1.0, 2.0, 1.0])
    state = st.identity_state(small_mesh).with_positions(
        small_mesh.vertices @ A.T)
    V = st.extract_interface(small_mesh, state, phases)
    assert st.varifold_mass(V) == pytest.approx(2.0, rel=1e-13)


def test_referential_positions_override(small_mesh):
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    state = st.identity_state(small_mesh).with_positions(
        small_mesh.vertices * 2.0)
    V_ref = st.extract_interface(small_mesh, state, phases,
                                 positions=small_mesh.vertices)
    assert st.varifold_mass(V_ref) == pytest.approx(1.0, rel=1e-13)


def test_orientation_toward_phase1(small_mesh):
    phases = halfspace_labels(small_mesh, axis=2, threshold=0.5)
    state = st.identity_state(small_mesh)
    V = st.extract_interface(small_mesh, state, phases)
    c1 = state.positions[small_mesh.tets[phases.labels == 1]].mean(
        axis=(0, 1))
    c0 = state.positions[small_mesh.tets[phases.labels == 0]].mean(
        axis=(0, 1))
    assert np.all(V.normals @ (c1 - c0) > 0)
    # winding must agree with the stored normals
    v = V.vertices[V.faces]
    cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    assert np.all(np.sum(cross * V.normals, axis=1) > 0)


def test_nonmanifold_interface_rejected():
    mesh = st.build_box_mesh(2, 2, 2)
    # label a single tet plus the tet diagonally across an edge so the
    # shared edge sees four interface triangles
    cent = mesh.tet_centroids()
    labels = np.zeros(mesh.n_tets, np.int8)
    a = np.argmin(np.linalg.norm(cent - [0.25, 0.25, 0.25], axis=1))
    b = np.argmin(np.linalg.norm(cent - [0.75, 0.75, 0.25], axis=1))
    # checkerboard of cells sharing only edges
    for cell in ([0.25, 0.25, 0.25], [0.75, 0.75, 0.25]):
        sel = np.all(np.abs(cent - cell) < 0.25, axis=1)
        labels[sel] = 1
    phases = st.PhaseLabeling(labels)
    with pytest.raises(InterfaceError, match="non-manifold"):
        st.extract_interface(mesh, st.identity_state(mesh), phases)
    del a, b


def test_topology_check_rejects_exactly_when_extraction_raises():
    """The manifold-edge check alone decides whether a reference-position
    extraction succeeds; when it does, the curvature built from the
    check's edge counts equals one built from a fresh count."""
    outcomes = []

    @settings(max_examples=40, deadline=None)
    @given(n=hs.integers(2, 4), axis=hs.integers(0, 2),
           seed=hs.integers(0, 2**16), flips=hs.integers(0, 8),
           bernoulli=hs.one_of(hs.none(), hs.floats(0.05, 0.95)))
    def check(n, axis, seed, flips, bernoulli):
        mesh = st.build_box_mesh(n, n, n)
        if bernoulli is None:
            phases = perturbed_slab_labels(mesh, axis, seed, flips)
        else:
            rng = np.random.default_rng(seed)
            phases = st.PhaseLabeling(rng.random(mesh.n_tets) < bernoulli)
        rejected = InterfaceTopology(mesh, phases).nonmanifold_edges > 0
        try:
            V = st.extract_interface(mesh, None, phases,
                                     positions=mesh.vertices)
            raised = False
        except InterfaceError:
            raised = True
        assert rejected == raised
        assert rejected == brute_force_nonmanifold(mesh, phases.labels)
        outcomes.append(raised)
        if not raised:
            fresh = discrete_curvature_inplace(
                replace(V, **{name: None for name in CURVATURE_FIELDS}))
            for name in CURVATURE_FIELDS + ("clip_count",):
                assert np.array_equal(getattr(V, name), getattr(fresh, name))

    check()
    assert True in outcomes and False in outcomes


@pytest.fixture(scope="module")
def interface_meshes():
    """Named (mesh, positions) samplers for the extraction properties:
    each takes a random generator and gives a mesh and vertex positions
    with det F > 0.  "solved" states are equilibria under traction and
    body load of a clamped, pulled box and of the L shape (clamped at
    x = 0), each with its slab labels.  "shuffled" meshes are jittered
    boxes given to `ReferenceMesh` with each tet's corners in a random
    order, odd or even, which construction orients."""
    model = st.EnergyModel(f=[0.0, 0.5, -1.0], g=[0.0, 0.3, 1.0])
    solved = []
    for mesh in (st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top),
                 l_shape_mesh()):
        state, report = st.minimize_equilibrium(
            mesh, st.identity_state(mesh), slab_labels(mesh, 0.5, 2), model,
            st.SolveOptions(gradient_tolerance=1e-5))
        assert report.converged and report.min_det > 1e-6
        assert np.abs(state.positions - mesh.vertices).max() > 0.05
        solved.append((mesh, state.positions))
    wedge = st.surfaces.wedge_fold()[0]
    l_shape = l_shape_mesh()

    def jittered(rng):
        mesh = jittered_box_mesh(tuple(rng.integers(2, 5, 3)), rng, 0.2)
        return mesh, mesh.vertices

    def shuffled(rng):
        box = jittered(rng)[0]
        order = np.argsort(rng.random((box.n_tets, 4)), axis=1)
        mesh = st.ReferenceMesh(
            vertices=box.vertices,
            tets=np.take_along_axis(box.tets, order, axis=1),
            boundary_faces=box.boundary_faces,
            boundary_tags=box.boundary_tags)
        return mesh, mesh.vertices

    return {"jittered": jittered, "shuffled": shuffled,
            "l-shape": lambda rng: (l_shape, l_shape.vertices),
            "wedge": lambda rng: (wedge, wedge.vertices),
            "solved": lambda rng: solved[rng.integers(len(solved))]}


def test_interface_orientation_is_topological(interface_meshes):
    """The flips that `InterfaceTopology.triangles` reads from the mesh's
    orientation equal the centroid rule at the reference and at
    equilibrium states (det F > 0), and the extracted surface is
    consistently oriented: no directed edge occurs twice, so an edge of
    two triangles is traversed once in each direction."""
    seen = set()

    @settings(max_examples=40, deadline=None)
    @given(kind=hs.sampled_from(sorted(interface_meshes)),
           axis=hs.integers(0, 2), seed=hs.integers(0, 2**16),
           flips=hs.integers(0, 3))
    def check(kind, axis, seed, flips):
        rng = np.random.default_rng(seed)
        mesh, positions = interface_meshes[kind](rng)
        phases = perturbed_slab_labels(mesh, axis, seed, flips)
        topology = InterfaceTopology(mesh, phases)
        if topology.nonmanifold_edges:
            return
        tris, flip, _, _ = topology.triangles()
        cut, want = centroid_flips(mesh, phases.labels, positions)
        assert np.array_equal(tris, mesh.interior_faces[cut])
        assert np.array_equal(flip, want)
        V = st.extract_interface(mesh, None, phases, positions=positions,
                                 topology=topology)
        directed = (V.faces * len(V.vertices)
                    + np.roll(V.faces, -1, axis=1)).ravel()
        assert np.unique(directed).size == directed.size
        seen.add((kind, bool(flip.any() and not flip.all())))

    check()
    assert {kind for kind, mixed in seen if mixed} == set(interface_meshes)


def test_extraction_equals_oracle(interface_meshes):
    """Every field of every extracted varifold equals the extraction that
    oriented by tet centroids and took areas and normals from crosses of
    their own, or both raise: box, jittered, L-shape, wedge and solved
    states, at their positions and jittered off them."""
    def box(rng):
        mesh = st.build_box_mesh(*rng.integers(2, 5, 3))
        return mesh, mesh.vertices

    meshes = dict(interface_meshes, box=box)
    outcomes = set()

    @settings(max_examples=40, deadline=None)
    @given(kind=hs.sampled_from(sorted(meshes)), axis=hs.integers(0, 2),
           seed=hs.integers(0, 2**16), flips=hs.integers(0, 4),
           jitter=hs.sampled_from([0.0, 0.02]))
    def check(kind, axis, seed, flips, jitter):
        rng = np.random.default_rng(seed)
        mesh, positions = meshes[kind](rng)
        positions = positions + jitter * rng.standard_normal(positions.shape)
        phases = perturbed_slab_labels(mesh, axis, seed, flips)
        try:
            want = extraction_oracle(mesh, phases.labels, positions)
        except InterfaceError as exc:
            with pytest.raises(InterfaceError, match=str(exc)[:12]):
                st.extract_interface(mesh, None, phases, positions=positions)
            outcomes.add("raised")
            return
        got = st.extract_interface(mesh, None, phases, positions=positions)
        assert_varifold_equals_oracle(got, want)
        outcomes.add(kind)

    check()
    assert outcomes == set(meshes) | {"raised"}


def test_analytic_and_empty_varifolds_equal_oracle(small_mesh,
                                                   uniform_phase1):
    """Spheres, cylinders, a flat patch and the empty interface: every
    field as the areas and normals of crosses of their own gave it."""
    for verts, faces in ([icosphere(level, 0.7) for level in range(4)]
                         + [cylinder_patch(0.5, 16, 8),
                            cylinder_patch(1.0, 5, 3), flat_patch(6, 4)]):
        assert_varifold_equals_oracle(varifold_from_triangles(verts, faces),
                                      triangles_oracle(verts, faces))
    empty = uniform_phase1(small_mesh)
    assert_varifold_equals_oracle(
        st.extract_interface(small_mesh, None, empty,
                             positions=small_mesh.vertices),
        extraction_oracle(small_mesh, empty.labels, small_mesh.vertices))


def test_phase_labels_must_be_binary():
    for bad in ([0, 1, 2], [-1, 0], [3]):
        with pytest.raises(ValueError, match="binary"):
            st.PhaseLabeling(np.array(bad))
    for good in (np.zeros(0, int), np.array([0, 1, 1]),
                 np.array([True, False])):
        assert np.array_equal(st.PhaseLabeling(good).labels, good)


def test_phase_labels_are_not_truncated_to_binary():
    """Fractional labels are rejected, not cast to 0 or 1."""
    with pytest.raises(ValueError, match="binary"):
        st.PhaseLabeling([0.5, 1.0, 0.9, 0.0])


def test_phase_labels_leave_the_callers_array_writable():
    """The labeling stores a read-only copy; the caller's array stays
    writable, and writing to it leaves the labeling as it was."""
    labels = np.zeros(4, np.int8)
    phases = st.PhaseLabeling(labels)
    assert labels.flags.writeable and not phases.labels.flags.writeable
    labels[0] = 1
    assert phases.labels.tolist() == [0, 0, 0, 0]


def test_with_swap_makes_one_read_only_copy():
    """A swap returns a new read-only labeling with the two tets
    relabeled, and leaves the source labeling as it was."""
    source = st.PhaseLabeling(np.array([1, 1, 0, 0, 1], np.int8))
    swapped = source.with_swap(tet_to_0=1, tet_to_1=3)
    assert isinstance(swapped, st.PhaseLabeling)
    assert swapped.labels.dtype == np.int8
    assert swapped.labels.tolist() == [1, 0, 0, 1, 1]
    assert not swapped.labels.flags.writeable
    assert source.labels.tolist() == [1, 1, 0, 0, 1]
    assert not np.shares_memory(swapped.labels, source.labels)


def unique_interface_topology(mesh, labels):
    """A labeling's cut mask, interface edge keys with their triangle
    counts, and phase-1 and phase-0 tets with a cut face, by np.unique
    over the cut faces."""
    face_labels = labels[mesh.interior_face_tets]
    cut = face_labels[:, 0] != face_labels[:, 1]
    keys, counts = np.unique(edge_keys(mesh.interior_faces[cut],
                                       mesh.n_vertices), return_counts=True)
    tets, is1 = mesh.interior_face_tets[cut], face_labels[cut] == 1
    return cut, keys, counts, np.unique(tets[is1]), np.unique(tets[~is1])


def test_interface_topology_after_swaps_matches_a_rebuild():
    """After k swaps of random phase-1 and phase-0 tets, the kept state
    equals one built from the final labels, and its edge counts and
    near-interface tets equal an np.unique recount, from manifold and
    from non-manifold starts; undoing the last swap restores the state
    before it."""
    starts = []

    @settings(max_examples=40, deadline=None)
    @given(n=hs.integers(2, 4), axis=hs.integers(0, 2),
           seed=hs.integers(0, 2**16), flips=hs.integers(0, 8),
           swaps=hs.integers(1, 12))
    def check(n, axis, seed, flips, swaps):
        mesh = st.build_box_mesh(n, n, n)
        phases = perturbed_slab_labels(mesh, axis, seed, flips)
        kept = InterfaceTopology(mesh, phases)
        starts.append(kept.nonmanifold_edges)
        rng = np.random.default_rng(seed)
        labels = np.array(phases.labels)
        for _ in range(swaps):
            src = rng.choice(np.flatnonzero(labels == 1))
            dst = rng.choice(np.flatnonzero(labels == 0))
            before = kept.cut.copy(), kept.edge_count.copy()
            kept.swap(src, dst)
            labels[src], labels[dst] = 0, 1
        fresh = InterfaceTopology(mesh, st.PhaseLabeling(labels))
        for name in ("labels", "cut", "edge_count", "tet_count"):
            assert np.array_equal(getattr(kept, name), getattr(fresh, name))
        assert kept.nonmanifold_edges == fresh.nonmanifold_edges
        cut, keys, counts, near1, near0 = unique_interface_topology(
            mesh, labels)
        edges = np.flatnonzero(kept.edge_count)
        assert np.array_equal(kept.cut, cut)
        assert np.array_equal(mesh.interior_edge_keys[edges], keys)
        assert np.array_equal(kept.edge_count[edges], counts)
        assert kept.nonmanifold_edges == np.count_nonzero(counts > 2)
        for got, want in zip(kept.near(), (near1, near0), strict=True):
            assert np.array_equal(got, want)
        kept.undo()
        assert np.array_equal(kept.cut, before[0])
        assert np.array_equal(kept.edge_count, before[1])

    check()
    assert min(starts) == 0 < max(starts)


def test_referential_energy_equals_full_extraction():
    """After every step of random swap, undo and accept sequences, the
    interface energy and mass that `referential_energy` reads from the
    topology and the stored face terms equal those of a full extraction
    at the reference positions, compared with ==, and the kept, read-only
    near-interface lists equal those of a rebuilt topology, on box, jittered,
    L-shaped, wedge and corner-shuffled meshes and for an empty
    interface.  Where extraction raises, so does `referential_energy`: on
    non-manifold labelings, and on a box of edges near 1e-90, whose face
    areas underflow to zero.  A step is accepted when the energy is read
    after it, for one of two models."""
    meshes = {"l-shape": l_shape_mesh(), "wedge": st.surfaces.wedge_fold()[0]}
    models = (st.EnergyModel(), st.EnergyModel(c_int=0.7, p=3.0))
    seen = set()

    @settings(max_examples=100, deadline=None)
    @given(kind=hs.sampled_from(["box", "jittered", "l-shape", "wedge",
                                 "shuffled", "empty", "tiny"]),
           axis=hs.integers(0, 2), seed=hs.integers(0, 2**16),
           flips=hs.integers(0, 2))
    # one row per key of the coverage set asserted below, so that the
    # coverage does not rest on the derandomized draws, whose seed comes
    # from this test's source
    @example(kind="box", axis=0, seed=0, flips=0)
    @example(kind="jittered", axis=0, seed=0, flips=0)
    @example(kind="l-shape", axis=0, seed=0, flips=0)
    @example(kind="wedge", axis=0, seed=0, flips=0)
    @example(kind="shuffled", axis=0, seed=0, flips=0)
    @example(kind="empty", axis=0, seed=0, flips=0)
    @example(kind="box", axis=2, seed=5, flips=1)       # raised, not tiny
    @example(kind="tiny", axis=0, seed=0, flips=0)      # raised, tiny
    @example(kind="shuffled", axis=1, seed=4, flips=1)  # repeated undo
    def check(kind, axis, seed, flips):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(2, 5, 3))
        if kind == "jittered":
            mesh = jittered_box_mesh(dims, rng, 0.2)
        elif kind == "shuffled":
            mesh = even_corner_shuffle(st.build_box_mesh(*dims), seed)
        elif kind == "tiny":
            box = st.build_box_mesh(*dims)
            mesh = st.ReferenceMesh(vertices=1e-90 * box.vertices,
                                    tets=box.tets,
                                    boundary_faces=box.boundary_faces,
                                    boundary_tags=box.boundary_tags)
        else:
            mesh = meshes.get(kind) or st.build_box_mesh(*dims)
        labels = (np.ones(mesh.n_tets, np.int8) if kind == "empty" else
                  np.array(perturbed_slab_labels(mesh, axis, seed,
                                                 flips).labels))
        topology, last, model = InterfaceTopology(
            mesh, st.PhaseLabeling(labels)), None, models[0]
        undone = False
        for _ in range(12):
            if rng.random() < 0.6 and 0 < labels.sum() < len(labels):
                last = (rng.choice(np.flatnonzero(labels == 1)),
                        rng.choice(np.flatnonzero(labels == 0)))
                topology.swap(*last)
                undone = False
            elif last is not None:
                topology.undo()
                last = last[::-1]
                if undone:
                    seen.add("repeated undo")
                undone = True
            if last is not None:
                labels[last[0]], labels[last[1]] = 0, 1
            assert np.array_equal(topology.labels, labels)
            fresh = InterfaceTopology(mesh, st.PhaseLabeling(labels)).near()
            for got, want in zip(topology.near(), fresh, strict=True):
                assert np.array_equal(got, want)
                assert not got.flags.writeable
            if rng.random() < 0.4:
                continue
            if rng.random() < 0.1:
                model = models[1] if model is models[0] else models[0]
            try:
                V = st.extract_interface(mesh, None, st.PhaseLabeling(labels),
                                         positions=mesh.vertices)
            except InterfaceError:
                with pytest.raises(InterfaceError):
                    referential_energy(topology, model)
                seen.add(("raised", kind == "tiny"))
                continue
            assert referential_energy(topology, model) == (
                st.interface_energy(V, model), st.varifold_mass(V))
            seen.add(kind if V.n_triangles or kind == "empty" else None)

    check()
    assert seen >= {"box", "jittered", "l-shape", "wedge", "shuffled",
                    "empty", ("raised", False), ("raised", True),
                    "repeated undo"}, seen


def test_swap_energy_changes_match_referential_passes():
    """Each swap that `swap_energy_changes` scores, taken on its own, is
    admissible exactly when `try_swap` keeps it, and its energy change is
    within 1e-12 relative of the difference of `referential_energy`
    after and before the swap, and within the returned bound short of
    ROUNDING times the two energies: near-interface swaps, adjacent
    swaps (a cut face of the two tets) and swaps away from the interface,
    on box, jittered, L-shaped and wedge meshes, after a few moves from a
    slab.  The swaps include ones that empty a vertex's fan of cut faces
    and ones at interface-boundary vertices."""
    meshes = {"l-shape": l_shape_mesh(), "wedge": st.surfaces.wedge_fold()[0]}
    model = st.EnergyModel()
    seen = set()

    @settings(max_examples=30, deadline=None)
    @given(kind=hs.sampled_from(["box", "jittered", "l-shape", "wedge"]),
           axis=hs.integers(0, 2), seed=hs.integers(0, 2**16),
           moves=hs.integers(0, 8))
    # one row per mesh kind, so that the coverage asserted below does not
    # rest on the derandomized draws, whose seed comes from this source
    @example(kind="box", axis=0, seed=0, moves=3)
    @example(kind="jittered", axis=1, seed=1, moves=3)
    @example(kind="l-shape", axis=2, seed=2, moves=3)
    @example(kind="wedge", axis=0, seed=3, moves=3)
    def check(kind, axis, seed, moves):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(2, 5, 3))
        if kind == "jittered":   # small enough to keep swaps volume-matched
            mesh = jittered_box_mesh(dims, rng, 0.002)
        else:
            mesh = meshes.get(kind) or st.build_box_mesh(*dims)
        phases = slab_labels(mesh, 0.5, axis=axis)
        for _ in range(moves):
            try:
                phases = mass_preserving_move(mesh, phases, rng,
                                              interface_bias=0.7)
            except TopOptError:
                break
        topology = InterfaceTopology(mesh, phases)
        labels = topology.labels
        (near1, near0), (ones, zeros) = topology.near(), topology.tets()
        cut_tets = mesh.interior_face_tets[topology.cut]
        adjacent = np.where((labels[cut_tets[:, :1]] == 1), cut_tets,
                            cut_tets[:, ::-1])
        pairs = np.concatenate([
            np.stack([rng.choice(near1, 8), rng.choice(near0, 8)], 1),
            adjacent[rng.permutation(len(adjacent))[:6]],
            np.stack([rng.choice(ones, 4), rng.choice(zeros, 4)], 1)])
        admissible, degenerate, energy, bound = swap_energy_changes(
            topology, pairs[:, 0], pairs[:, 1], model)
        e0, _ = referential_energy(topology, model)
        nv = mesh.n_vertices

        def fan_and_ends():
            ends = mesh.interior_edge_keys[topology.edge_count == 1]
            return (np.bincount(mesh.interior_faces[topology.cut].ravel(),
                                minlength=nv),
                    np.union1d(ends // nv, ends % nv))

        fan0, ends0 = fan_and_ends()
        assert not degenerate.any()
        for k, (src, dst) in enumerate(pairs):
            assert topology.try_swap(src, dst) == admissible[k]
            if not admissible[k]:
                seen.add("inadmissible")
                assert np.isnan([energy[k], bound[k]]).all()
                continue
            e1, _ = referential_energy(topology, model)
            fan1, ends1 = fan_and_ends()
            topology.undo()
            corners = mesh.tets[[src, dst]].ravel()
            seen.add(kind)
            if k >= 8 and k < 8 + min(6, len(adjacent)):
                seen.add("adjacent")
            if ((fan0 > 0) & (fan1 == 0)).any():
                seen.add("emptied fan")
            if np.isin(corners, np.union1d(ends0, ends1)).any():
                seen.add("boundary vertex")
            error = abs(energy[k] - (e1 - e0))
            assert error <= 1e-12 * max(e0, e1)
            assert error <= bound[k] + ROUNDING * (e0 + e1)

    check()
    assert seen >= {"box", "jittered", "l-shape", "wedge", "adjacent",
                    "emptied fan", "boundary vertex", "inadmissible"}, seen


def test_swap_energy_changes_bound_an_exactly_zero_change():
    """On a 5^3 slab, swapping tets 328 and 422 leaves the referential
    energy bit for bit as it was.  The scored change lies within its
    bound of zero, so no decision can rest on its sign: the annealer's
    lower bound of the objective change is not positive, and the full
    pass decides."""
    from sharptop.topopt import _least_change
    mesh, model = st.build_box_mesh(5, 5, 5), st.EnergyModel()
    topology = InterfaceTopology(mesh, slab_labels(mesh, 0.5, axis=0))
    e0, _ = referential_energy(topology, model)
    topology.swap(328, 422)
    assert referential_energy(topology, model)[0] == e0
    topology.undo()
    admissible, degenerate, energy, bound = swap_energy_changes(
        topology, [328], [422], model)
    assert admissible[0] and not degenerate[0]
    assert abs(energy[0]) <= bound[0]
    assert _least_change((energy[0], bound[0]), 0.0, e0, e0) < 0.0


def test_domain_boundary_edges_match_an_isin_lookup():
    """The domain-boundary edges, open edges and boundary defect that
    extraction takes from the per-edge boundary flag equal the ones an
    np.isin lookup of the edge keys among the boundary faces' edges
    gives; with the boundary tagged face for face, the defect is zero."""
    meshes = {"l-shape": l_shape_mesh(), "wedge": st.surfaces.wedge_fold()[0]}
    defects = {}

    @settings(max_examples=40, deadline=None)
    @given(kind=hs.sampled_from(["jittered", "l-shape", "wedge"]),
           axis=hs.integers(0, 2), seed=hs.integers(0, 2**16),
           flips=hs.integers(0, 2))
    def check(kind, axis, seed, flips):
        if kind == "jittered":
            rng = np.random.default_rng(seed)
            mesh = jittered_box_mesh(tuple(rng.integers(2, 5, 3)), rng, 0.2)
        else:
            mesh = meshes[kind]
        phases = perturbed_slab_labels(mesh, axis, seed, flips)
        if InterfaceTopology(mesh, phases).nonmanifold_edges:
            return
        V = st.extract_interface(mesh, None, phases, positions=mesh.vertices)
        cut, keys, counts, _, _ = unique_interface_topology(mesh,
                                                            phases.labels)
        used = np.unique(mesh.interior_faces[cut])
        remap = np.full(mesh.n_vertices, -1)
        remap[used] = np.arange(len(used))
        nv = mesh.n_vertices
        local = remap[keys // nv] * len(used) + remap[keys % nv]
        on_boundary = local[np.isin(keys, edge_keys(mesh.boundary_faces,
                                                    nv))]
        open_edges = local[counts == 1]
        assert np.array_equal(V.domain_boundary_edges, on_boundary)
        assert np.array_equal(V.open_edges, open_edges)
        defect = np.count_nonzero(~np.isin(open_edges, on_boundary))
        assert st.boundary_defect(V) == defect
        defects.setdefault(kind, []).append(defect)

    check()
    assert set(defects) == {"jittered", "l-shape", "wedge"}
    assert not any(any(found) for found in defects.values())


# ---------------------------------------------------------------- curvature

def test_flat_patch_curvature_zero():
    V = flat_varifold(nx=6, ny=6)
    assert np.max(V.a_norm) < 1e-9
    assert np.max(np.abs(V.gauss_curvature[V.interior_vertex])) < 1e-9
    assert curvature_integral(V) < 1e-18
    # mixed areas partition the patch area
    assert np.sum(V.mixed_area) == pytest.approx(st.varifold_mass(V),
                                                 rel=1e-12)


@pytest.mark.parametrize("radius", [0.3, 1.0])
def test_sphere_curvature(radius):
    V = sphere_varifold(3, radius=radius)
    # mass -> 4 pi R^2
    assert st.varifold_mass(V) == pytest.approx(4 * np.pi * radius**2,
                                                rel=0.02)
    # mean curvature magnitude |H| -> 1/R, Gauss K -> 1/R^2
    h = np.linalg.norm(V.mean_curvature, axis=1)
    assert np.median(h) == pytest.approx(1.0 / radius, rel=0.02)
    assert np.median(V.gauss_curvature) == pytest.approx(radius**-2,
                                                         rel=0.02)
    # a_norm -> |II| sqrt(2) = 2/R; integral of a_norm^2 -> 16 pi
    assert np.median(V.a_norm) == pytest.approx(2.0 / radius, rel=0.02)
    assert curvature_integral(V) == pytest.approx(16 * np.pi, rel=0.1)
    assert V.clip_count == 0


def test_sphere_curvature_refines():
    errs = [abs(curvature_integral(sphere_varifold(lv, radius=0.3))
                - 16 * np.pi) for lv in (1, 2, 3)]
    assert errs[0] > errs[1] > errs[2]


def test_cylinder_curvature():
    R = 0.5
    V = cylinder_varifold(R, n_theta=48, n_z=12)
    inner = V.interior_vertex
    h = np.linalg.norm(V.mean_curvature[inner], axis=1)
    # cylinder: |H| = 1/(2R), K = 0, |II|^2 = 1/R^2, a_norm = sqrt(2)/R
    assert np.median(h) == pytest.approx(0.5 / R, rel=0.02)
    assert np.max(np.abs(V.gauss_curvature[inner])) < 0.05 / R**2
    assert np.median(V.a_norm[inner]) == pytest.approx(np.sqrt(2.0) / R,
                                                       rel=0.03)
    # boundary vertices excluded from the curvature sample
    assert np.all(V.a_norm[~inner] == 0.0)


def assert_curvature_sums_equal_oracle(V):
    """H, K and the mixed areas, bit for bit, from the term-by-term sums."""
    mixed, lap, angle_sum = brute_force_curvature_sums(V)
    H = lap / (4.0 * mixed[:, None])
    K = (2.0 * np.pi - angle_sum) / mixed
    H[~V.interior_vertex] = 0.0
    K[~V.interior_vertex] = 0.0
    assert np.array_equal(V.mixed_area, mixed)
    assert np.array_equal(V.mean_curvature, H)
    assert np.array_equal(V.gauss_curvature, K)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sphere_curvature_sums_equal_oracle(level):
    assert_curvature_sums_equal_oracle(sphere_varifold(level, radius=0.7))


def test_interface_curvature_sums_equal_oracle():
    """Extracted interfaces of perturbed slabs, at the reference and at
    jittered vertex positions."""
    extracted = []

    @settings(max_examples=30, deadline=None)
    @given(n=hs.integers(2, 4), axis=hs.integers(0, 2),
           seed=hs.integers(0, 2**16), flips=hs.integers(0, 8),
           jitter=hs.sampled_from([0.0, 0.05, 0.15]))
    def check(n, axis, seed, flips, jitter):
        mesh = st.build_box_mesh(n, n, n)
        phases = perturbed_slab_labels(mesh, axis, seed, flips)
        rng = np.random.default_rng(seed)
        positions = mesh.vertices + jitter / n * rng.standard_normal(
            mesh.vertices.shape)
        try:
            V = st.extract_interface(mesh, None, phases, positions=positions)
        except InterfaceError:
            return
        extracted.append(V.n_triangles)
        assert_curvature_sums_equal_oracle(V)

    check()
    assert len(extracted) >= 10


def test_slab_labels_equal_running_sum_loop():
    """Tets are taken in centroid order until the next one would overshoot
    the target volume, as a tet-by-tet running sum decides it."""
    rng = np.random.default_rng(2)
    meshes = [st.build_box_mesh(3, 3, 3), st.build_box_mesh(4, 5, 6)]
    m = meshes[1]
    meshes.append(st.ReferenceMesh(
        vertices=m.vertices + 0.02 * rng.standard_normal(m.vertices.shape),
        tets=m.tets, boundary_faces=m.boundary_faces,
        boundary_tags=m.boundary_tags))
    for mesh, eta, axis in itertools.product(meshes, (0.3, 0.5, 0.77),
                                             (0, 1, 2)):
        order = np.argsort(mesh.tet_centroids()[:, axis], kind="stable")
        expected = np.zeros(mesh.n_tets, np.int8)
        acc = 0.0
        for ti in order:
            if (acc + mesh.volumes[ti]
                    > eta * mesh.total_volume() + 1e-12 * mesh.total_volume()):
                break
            expected[ti] = 1
            acc += mesh.volumes[ti]
        assert np.array_equal(slab_labels(mesh, eta, axis).labels, expected)


@pytest.mark.parametrize("n_theta, n_z", [(16, 8), (5, 3), (1, 1)])
def test_patches_equal_quad_loops(n_theta, n_z):
    """Vertices row by row, two triangles per quad, as the loops built
    them; the cylinder is the (theta, z) patch mapped onto it."""
    R, angle, height = 0.7, np.pi, 1.0
    faces = []
    w = n_theta + 1
    for j in range(n_z):
        for i in range(n_theta):
            a = j * w + i
            faces += [[a, a + 1, a + w + 1], [a, a + w + 1, a + w]]
    thetas = np.linspace(0.0, angle, n_theta + 1)
    zs = np.linspace(0.0, height, n_z + 1)
    verts, tris = cylinder_patch(R, n_theta, n_z)
    assert np.array_equal(tris, faces)
    assert np.array_equal(verts, [[R * np.cos(th), R * np.sin(th), z]
                                  for z in zs for th in thetas])
    verts, tris = flat_patch(n_theta, n_z, (2.0, 1.5))
    assert np.array_equal(tris, faces)
    assert np.array_equal(verts, [[x, y, 0.0]
                                  for y in np.linspace(0.0, 1.5, n_z + 1)
                                  for x in np.linspace(0.0, 2.0, n_theta + 1)])


def test_clip_count_reported():
    # a noisy sphere produces vertices where 4|H|^2 - 2K < 0
    verts, faces = icosphere(2, radius=1.0)
    rng = np.random.default_rng(0)
    verts = verts + 0.02 * rng.standard_normal(verts.shape)
    V = varifold_from_triangles(verts, faces)
    assert V.clip_count >= 0
    assert np.all(V.a_norm >= 0.0)


def test_degenerate_triangle_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
    with pytest.raises(InterfaceError):
        varifold_from_triangles(verts, np.array([[0, 1, 2]]))


# ----------------------------------------------------------- interface energy

def test_interface_energy_flat_is_area(small_mesh):
    phases = halfspace_labels(small_mesh, axis=1, threshold=0.5)
    V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                             phases)
    model = st.EnergyModel(c_int=2.5)
    assert st.interface_energy(V, model) == pytest.approx(
        2.5 * st.varifold_mass(V), rel=1e-12)


def test_interface_energy_linear_in_cint():
    V = sphere_varifold(2, radius=0.4)
    e1 = st.interface_energy(V, st.EnergyModel(c_int=1.0))
    e2 = st.interface_energy(V, st.EnergyModel(c_int=3.0))
    assert e2 == pytest.approx(3.0 * e1, rel=1e-13)


def test_interface_energy_sphere_value():
    R = 0.3
    V = sphere_varifold(3, radius=R)
    # c_int * (4 pi R^2 + 16 pi) for p = 2
    expected = 4 * np.pi * R**2 + 16 * np.pi
    assert st.interface_energy(V, st.EnergyModel(c_int=1.0, p=2.0)) == \
        pytest.approx(expected, rel=0.1)


# ------------------------------------------------------------ boundary defect

def test_boundary_defect_zero_for_extraction(small_mesh):
    for axis in (0, 1, 2):
        phases = halfspace_labels(small_mesh, axis=axis, threshold=0.5)
        V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                                 phases)
        assert st.boundary_defect(V) == 0


def test_boundary_defect_detects_deleted_triangle(small_mesh):
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                             phases)
    broken = discrete_curvature_inplace(InterfaceVarifold(
        vertices=V.vertices, faces=V.faces[1:], areas=V.areas[1:],
        normals=V.normals[1:],
        domain_boundary_edges=V.domain_boundary_edges))
    # removing an interior-adjacent triangle exposes its off-boundary edges
    defect = st.boundary_defect(broken)
    assert defect > 0
    assert defect <= 3


def test_boundary_defect_closed_surface():
    assert st.boundary_defect(sphere_varifold(1)) == 0


def test_open_edges_match_an_edge_recount():
    """The open edges the curvature pass derives are the single-triangle
    edges of a fresh count, on extracted and on analytic surfaces."""
    mesh = st.build_box_mesh(4, 3, 3)
    surfaces = [flat_varifold(3, 2), cylinder_varifold(0.5, 6, 3),
                sphere_varifold(1)]
    for seed in range(8):
        phases = perturbed_slab_labels(mesh, seed % 3, seed, flips=1)
        try:
            V = st.extract_interface(mesh, st.identity_state(mesh), phases)
        except InterfaceError:
            continue
        keep = np.arange(V.n_triangles) != seed   # a hole off the boundary
        surfaces += [V, discrete_curvature_inplace(replace(
            V, faces=V.faces[keep], areas=V.areas[keep],
            normals=V.normals[keep]))]
    assert len(surfaces) == 3 + 2 * 6
    defects = []
    for V in surfaces:
        keys, counts = np.unique(edge_keys(V.faces, len(V.vertices)),
                                 return_counts=True)
        assert np.array_equal(V.open_edges, keys[counts == 1])
        defects.append(st.boundary_defect(V))
        assert defects[-1] == np.count_nonzero(
            ~np.isin(keys[counts == 1], V.domain_boundary_edges))
    assert max(defects) > 0


# ------------------------------------------------------------------ coupling

def _coupling_setup(n):
    mesh = st.build_box_mesh(n, n, n)
    phases = halfspace_labels(mesh, axis=0, threshold=0.5)
    state = st.identity_state(mesh)
    V = st.extract_interface(mesh, state, phases)
    fields = random_bump_fields(6, center=(0.5, 0.5, 0.5), radius=0.45,
                                seed=7)
    return mesh, state, phases, V, fields


def test_coupling_residual_small():
    mesh, state, phases, V, fields = _coupling_setup(6)
    res = st.coupling_residual(mesh, state, phases, V, fields, quad_order=4)
    sup = max(Y.sup_norm() for Y in fields)
    assert res < 1e-3 * sup


def test_coupling_residual_drops_with_quadrature_order():
    mesh, state, phases, V, fields = _coupling_setup(6)
    r2 = st.coupling_residual(mesh, state, phases, V, fields, quad_order=2)
    r4 = st.coupling_residual(mesh, state, phases, V, fields, quad_order=4)
    assert r4 < 0.5 * r2


def test_coupling_detects_flipped_triangle():
    mesh, state, phases, V, fields = _coupling_setup(4)
    base = st.coupling_residual(mesh, state, phases, V, fields, quad_order=4)
    # flip the normal of the triangle nearest the field center
    centers = V.vertices[V.faces].mean(axis=1)
    k = int(np.argmin(np.linalg.norm(centers - [0.5, 0.5, 0.5], axis=1)))
    normals = np.array(V.normals)
    normals[k] *= -1.0
    bad = InterfaceVarifold(vertices=V.vertices, faces=V.faces,
                            areas=V.areas, normals=normals,
                            domain_boundary_edges=V.domain_boundary_edges)
    res = st.coupling_residual(mesh, state, phases, bad, fields,
                               quad_order=4)
    # the defect injects ~ 2 * area * |Y . nu| at that triangle
    assert res > 10 * base


def test_coupling_rejects_boundary_supported_field():
    mesh, state, phases, V, _ = _coupling_setup(3)
    wide = random_bump_fields(1, center=(0.5, 0.5, 0.5), radius=2.0, seed=0)
    with pytest.raises(InterfaceError, match="boundary"):
        st.coupling_residual(mesh, state, phases, V, wide)
