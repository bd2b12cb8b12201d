import csv
import json
from pathlib import Path

import numpy as np
import pytest

import sharptop as st
from sharptop.cli import main, sub_seed
from sharptop.energy import stress_free_s

from conftest import (NONMANIFOLD_MESH, REPEATED_NEUMANN_MESH, TWO_BOXES_MESH,
                      ZERO_VOLUME_MESH, mesh_text)


def write_scenario(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ALL_DIRICHLET_TAGS = [
    {"tag": "DIRICHLET", "axis": a, "value": v}
    for a in (0, 1, 2) for v in (0.0, 1.0)
]

CLAMP_PULL_TAGS = [
    {"tag": "DIRICHLET", "axis": 2, "value": 0.0},
    {"tag": "NEUMANN", "axis": 2, "value": 1.0},
]


def test_sub_seed_stable_and_distinct():
    assert sub_seed(42, "moves") == sub_seed(42, "moves")
    assert sub_seed(42, "moves") != sub_seed(42, "monte-carlo")
    assert sub_seed(42, "moves") != sub_seed(43, "moves")


def test_validate_command(tmp_path):
    scenario = write_scenario(tmp_path, "s.json",
                              {"mesh": {"type": "box", "nx": 2, "ny": 2,
                                        "nz": 2}})
    out = tmp_path / "out"
    code = main(["validate", "--scenario", scenario, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "validate.json").read_text())
    assert set(report) == {"n_vertices", "n_tets", "total_volume"}
    assert report["n_vertices"] == 27
    assert report["n_tets"] == 48
    assert report["total_volume"] == pytest.approx(1.0)


def test_missing_scenario_exit_2(tmp_path, capsys):
    code = main(["validate", "--scenario", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "not found" in err["message"]


def test_invalid_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "invalid JSON" in json.loads(capsys.readouterr().err)["message"]


def test_unknown_mesh_type_exit_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "s.json",
                              {"mesh": {"type": "torus"}})
    code = main(["validate", "--scenario", scenario,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


def test_equilibrium_command(tmp_path):
    scenario = write_scenario(tmp_path, "eq.json", {
        "mesh": {"type": "box", "nx": 2, "ny": 2, "nz": 2,
                 "tags": CLAMP_PULL_TAGS},
        "model": {"g": [0.0, 0.0, 1.0]},
        "solve": {"gradient_tolerance": 1e-4, "max_iterations": 300},
    })
    out = tmp_path / "eq"
    code = main(["equilibrium", "--scenario", scenario, "--out", str(out),
                 "--seed", "5"])
    assert code == 0
    summary = json.loads((out / "equilibrium.json").read_text())
    assert summary["converged"] is True
    assert summary["message"] == "converged"
    assert summary["min_det"] > 0
    assert summary["seed"] == 5
    assert summary["guard_activations"] == (
        summary["det_floor_backtracks"] + summary["injectivity_backtracks"])
    assert summary["armijo_backtracks"] >= 0
    with open(out / "equilibrium_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    objs = [float(r["objective"]) for r in rows]
    assert all(b < a for a, b in zip(objs, objs[1:]))
    vtk = (out / "equilibrium.vtk").read_text()
    assert vtk.startswith("# vtk DataFile Version 3.0")
    assert "CELLS" in vtk and "SCALARS phase" in vtk


def test_equilibrium_iteration_limit_exit_1(tmp_path):
    """A solve stopped short exits 1 and says why in equilibrium.json."""
    scenario = write_scenario(tmp_path, "eq.json", {
        "mesh": {"type": "box", "nx": 2, "ny": 2, "nz": 2,
                 "tags": CLAMP_PULL_TAGS},
        "model": {"g": [0.0, 0.0, 1.0]},
        "solve": {"max_iterations": 1},
    })
    out = tmp_path / "eq"
    assert main(["equilibrium", "--scenario", scenario,
                 "--out", str(out)]) == 1
    summary = json.loads((out / "equilibrium.json").read_text())
    assert summary["converged"] is False
    assert summary["message"] and summary["message"] != "converged"


def topopt_scenario(tmp_path, seed_field=None, loaded=False):
    """A 3^3 annealing scenario: equal phases on a pinned box, or, when
    `loaded`, a stiff phase 1 on a box clamped at z = 0 and pulled at
    z = 1."""
    doc = {
        "mesh": {"type": "box", "nx": 3, "ny": 3, "nz": 3,
                 "tags": CLAMP_PULL_TAGS if loaded else ALL_DIRICHLET_TAGS},
        "model": ({"r": 4, "s": 12.0, "scale0": 0.2, "g": [0.0, 0.0, 1.0]}
                  if loaded else
                  {"r": 4, "s": 12.0, "scale0": 1.0, "scale1": 1.0}),
        "labels": {"type": "slab", "axis": 0},
        "topopt": {"eta": 0.5, "t_initial": 1.0, "t_decay": 0.5,
                   "t_final": 0.2, "steps_per_temperature": 4},
        "solve": {"gradient_tolerance": 1e-5, "max_iterations": 50},
    }
    if seed_field is not None:
        doc["seed"] = seed_field
    return write_scenario(tmp_path, "topopt.json", doc)


def test_topopt_command_outputs(tmp_path):
    scenario = topopt_scenario(tmp_path)
    out = tmp_path / "topo"
    code = main(["topopt", "--scenario", scenario, "--out", str(out),
                 "--seed", "9"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_objective"] <= summary["initial_objective"] + 1e-12
    assert abs(summary["mass_constraint_residual"]) < 1e-9
    causes = ("rejected_no_move", "rejected_interface", "rejected_solve",
              "rejected_metropolis")
    assert sum(summary[c] for c in causes) == summary["rejected_moves"]
    assert summary["nonmanifold_draws"] >= 0
    # equal phases and no body load: every candidate is inert
    assert summary["skipped_solves"] == 12 - summary["rejected_no_move"] \
        - summary["rejected_interface"]
    # and so no solve takes a step: no factor and no injectivity check
    assert summary["inner_iterations"] == 0
    assert summary["injectivity_checks"] == 0
    # an Eulerian run scores no swaps ahead, and stage 1 is final for
    # every inert candidate
    assert summary["lookahead_decisions"] == 0
    assert summary["surrogate_rejections"] == 0
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 3 temperatures x 4 steps
    assert set(rows[0]) == {"step", "temperature", "objective", "compliance",
                            "interface_energy", "mass", "accepted"}
    assert (out / "best.vtk").exists()
    assert (out / "best_interface.obj").exists()
    obj_text = (out / "best_interface.obj").read_text()
    assert obj_text.splitlines()[0].startswith("v ")
    surf = (out / "best_interface.vtk").read_text()
    assert "SCALARS A_norm" in surf


def test_topopt_summary_counts_stage_one_rejections(tmp_path):
    """In a loaded two-phase Eulerian run no swap is inert:
    `surrogate_rejections` counts the candidates that stage 1 rejected
    unsolved, part of `rejected_metropolis`; the others were solved."""
    out = tmp_path / "topo"
    assert main(["topopt", "--scenario", topopt_scenario(tmp_path,
                                                         loaded=True),
                 "--out", str(out), "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0 < summary["surrogate_rejections"] \
        <= summary["rejected_metropolis"]
    assert summary["skipped_solves"] == summary["lookahead_decisions"] == 0
    assert summary["accepted_moves"] > 0 and summary["inner_iterations"] > 0


def test_topopt_summary_holds_every_count_of_the_result(tmp_path,
                                                       monkeypatch):
    """`summary.json` holds every integer field of `TopOptResult` and its
    named float fields, with the values that the run's result holds, the
    mass residual and the seed, and no other key."""
    import dataclasses
    import sharptop.cli as cli
    real, results = cli.optimize_topology, []

    def kept(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(cli, "optimize_topology", kept)
    out = tmp_path / "topo"
    assert main(["topopt", "--scenario", topopt_scenario(tmp_path,
                                                         loaded=True),
                 "--out", str(out), "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    (result,) = results
    fields = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result)
              if type(getattr(result, f.name)) is int}
    fields.update(best_objective=result.best_objective,
                  initial_objective=result.initial_objective,
                  initial_interface_mass=result.initial_mass,
                  final_interface_mass=result.final_mass)
    assert summary.keys() == fields.keys() | {"mass_constraint_residual",
                                              "seed"}
    assert {name: summary[name] for name in fields} == fields


def test_topopt_trace_byte_identical_across_runs(tmp_path):
    scenario = topopt_scenario(tmp_path)
    traces = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["topopt", "--scenario", scenario, "--out", str(out),
                     "--seed", "123"]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_topopt_scenario_seed_fallback(tmp_path):
    # --seed omitted: the scenario seed drives the run
    scenario = topopt_scenario(tmp_path, seed_field=123)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["topopt", "--scenario", scenario, "--out", str(out1)]) == 0
    assert main(["topopt", "--scenario", scenario, "--out", str(out2),
                 "--seed", "123"]) == 0
    assert (out1 / "trace.csv").read_bytes() == \
        (out2 / "trace.csv").read_bytes()


def test_curvature_test_command(tmp_path):
    out = tmp_path / "curv"
    code = main(["curvature-test", "--out", str(out)])
    assert code == 0
    with open(out / "curvature_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    spheres = [r for r in rows if r["surface"] == "sphere"]
    assert [int(r["level"]) for r in spheres] == [1, 2, 3, 4]
    finest = spheres[-1]
    bending = float(finest["curvature_integral"])
    assert abs(bending - 16 * np.pi) < 0.1 * 16 * np.pi
    errs = [abs(float(r["curvature_integral"]) - 16 * np.pi)
            for r in spheres]
    assert errs == sorted(errs, reverse=True)
    plane = next(r for r in rows if r["surface"] == "plane")
    assert float(plane["curvature_integral"]) < 1e-12
    assert float(plane["mass"]) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("section, spec, needle", [
    ("model", {"stiffness": 2.0}, "'stiffness'"),
    ("solve", {"max_iter": 1}, "'max_iter'"),
    ("topopt", {"temperature": 1.0}, "'temperature'"),
    ("solve", {"seed": 3}, "'seed'"),
    ("topopt", {"seed": 3}, "'seed'"),
    ("topopt", {"solve_options": {}}, "'solve_options'"),
    ("model", {"r": 2}, "r must exceed 3"),
    ("solve", {"contraction": 2.0}, "contraction"),
    ("topopt", {"t_decay": 1.5}, "decay"),
    ("model", {"g": [1, 2]}, "g must be a finite 3-vector"),
    ("model", {"f": [[0, 0, 1], [0, 0, 1]]}, "f must be a finite 3-vector"),
    ("solve", {"cn_samples": 10}, "'cn_samples'"),
    ("solve", {"det_margin": 1e-3}, "'det_margin'"),
    ("topopt", {"cold_solve_every": 5}, "'cold_solve_every'"),
    ("mesh", 5, "expected an object"),
    ("mesh", {"type": "box", "nx": "a"}, "nx"),
    ("mesh", {"type": "box", "ny": 1.5}, "ny"),
    ("mesh", {"type": "box", "nz": True}, "nz"),
    ("mesh", {"type": "box", "extent": [1, 1]}, "extent"),
    ("mesh", {"type": "box", "bogus": 1}, "'bogus'"),
    ("mesh", {"type": "file", "path": "m.tet", "nx": 2}, "'nx'"),
    ("mesh", {"type": ["box"]}, "unknown type"),
    ("mesh", {"tags": [{"tag": "FOO", "axis": 2, "value": 0.0}]}, "tags"),
    ("mesh", {"tags": [{"tag": "FREE", "axis": 3, "value": 0.0}]}, "tags"),
    ("mesh", {"tags": [{"tag": "FREE", "value": 0.0}]}, "tags"),
    ("labels", [1], "expected an object"),
    ("labels", {"type": "slab", "axis": 5}, "axis"),
    ("labels", {"type": "uniform", "value": 3}, "value"),
    ("labels", {"type": "slab", "bogus": 1}, "'bogus'"),
    ("labels", {"type": "ball", "axis": 0}, "'axis'"),
    ("labels", {"type": "ball", "radius": "big"}, "radius"),
    ("labels", {"type": "halfspace", "threshold": None}, "threshold"),
    ("topopt", {"steps_per_temperature": 2.5}, "steps_per_temperature"),
    ("topopt", {"snapshot_every": -1}, "snapshot_every"),
    ("solve", {"max_iterations": 2.5}, "max_iterations"),
    ("mesh", {"tags": [{"tag": "DIRICHLET", "axis": 2, "value": 0.0,
                        "tol": -1e-9}]}, "tags"),
])
def test_bad_scenario_section_exit_2(tmp_path, capsys, section, spec, needle):
    scenario = write_scenario(tmp_path, "bad.json", {
        "mesh": {"type": "box", "nx": 1, "ny": 1, "nz": 1}, section: spec})
    code = main(["topopt", "--scenario", scenario,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"].startswith(section + ":")
    assert needle in err["message"]


@pytest.mark.parametrize("doc, out, needle", [
    ({"modle": {"r": 2}}, "o", "scenario: unknown key 'modle'"),
    ({"output": 5}, None, "output: expected a non-empty path, got 5"),
    ({"output": ""}, None, "output: expected a non-empty path, got ''"),
    ({}, "file", "cannot create the output directory"),
])
def test_bad_scenario_key_or_output_exit_2(tmp_path, capsys, doc, out,
                                           needle):
    """An unknown top-level key, and an output directory that is not a
    path or cannot be created, exit 2 with a message naming the key or
    the path."""
    (tmp_path / "file").write_text("a file, not a directory")
    scenario = write_scenario(tmp_path, "bad.json", {
        "mesh": {"type": "box", "nx": 1, "ny": 1, "nz": 1}, **doc})
    flags = ["--out", str(tmp_path / out)] if out else []
    code = main(["validate", "--scenario", scenario, *flags])
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert needle in message
    if out == "file":
        assert message.startswith(str(tmp_path / "file") + ":")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, name", [
    ("validate", "validate.json"), ("equilibrium", "equilibrium.vtk")])
def test_unwritable_output_file_exit_2(tmp_path, capsys, command, name):
    """An output file that cannot be written, here because a directory
    holds its name, exits 2 with a message naming the file, as an output
    directory that cannot be created does, and leaves no temp file."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    scenario = write_scenario(tmp_path, "s.json", {
        "mesh": {"type": "box", "nx": 1, "ny": 1, "nz": 1,
                 "tags": CLAMP_PULL_TAGS}})
    assert main([command, "--scenario", scenario, "--out", str(out)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith(
        f"{out / name}: cannot write the output file: ")
    assert not [p for p in out.iterdir() if p.name.startswith(".tmp_")]


def test_topopt_model_eta_exits_2(tmp_path, capsys):
    """The annealer targets topopt.eta, so a topopt scenario's model.eta,
    which would do nothing, exits 2 with a message naming the key."""
    scenario = json.loads(Path(topopt_scenario(tmp_path)).read_text())
    scenario["model"]["eta"] = 0.3
    path = write_scenario(tmp_path, "eta.json", scenario)
    assert main(["topopt", "--scenario", path,
                 "--out", str(tmp_path / "eta")]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == \
        "model: unknown key 'eta'"


def one_tet_mesh(apex="0 0 1", tet="t 0 1 2 3", tag="FREE"):
    """A one-tet mesh file whose fourth vertex is the line `v {apex}`, its
    tet the line `tet` and its last boundary face's tag `tag`."""
    return ("tetmesh v1\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
            f"v {apex}\n{tet}\n"
            f"bf 0 2 1 FREE\nbf 0 1 3 FREE\nbf 0 3 2 FREE\nbf 1 2 3 {tag}\n")


_CUBE = st.build_box_mesh(1, 1, 1)


@pytest.mark.parametrize("text, needle", [
    (NONMANIFOLD_MESH, "faces of more than two tets [[0, 1, 2]] (1 total)"),
    (ZERO_VOLUME_MESH, "zero-volume"),
    pytest.param(one_tet_mesh("nan 0 1"), "non-finite vertices [3]",
                 id="nan"),
    pytest.param(one_tet_mesh("0 -inf 1"), "non-finite vertices [3]",
                 id="inf"),
    pytest.param(TWO_BOXES_MESH, "2 face-connected components",
                 id="two-boxes"),
    pytest.param(REPEATED_NEUMANN_MESH,
                 "boundary faces tagged more than once [[2, 5, 14]] (1 total)",
                 id="repeated-neumann"),
    pytest.param(one_tet_mesh(tet="t 0 1 2 3\nt 1 0 2 3"),
                 "duplicate tets [[0, 1]] (1 total)", id="duplicate-tet"),
    pytest.param(one_tet_mesh(tet="t 0 1 2 3.0"), "m.tet:6: parse error",
                 id="float-index"),
    pytest.param(one_tet_mesh().rsplit("bf", 1)[0],
                 "untagged boundary faces [[1, 2, 3]] (1 total)",
                 id="untagged-face"),
    pytest.param(mesh_text(_CUBE.vertices, _CUBE.tets,
                           np.vstack([_CUBE.boundary_faces,
                                      _CUBE.interior_faces[:1]]),
                           ["FREE"] * 13),
                 "tags on non-boundary faces "
                 f"[{_CUBE.interior_faces[0].tolist()}] (1 total)",
                 id="interior-tag"),
    pytest.param(one_tet_mesh(tet=""), "tets: expected shape (nt, 4)",
                 id="no-tets"),
    pytest.param(one_tet_mesh(tet="t 0 1 2 -1"),
                 "tets with vertex indices outside [0, 4) [0]",
                 id="negative-index"),
    pytest.param(one_tet_mesh(tet="t 0 1 2 4"),
                 "tets with vertex indices outside [0, 4) [0]", id="index-nv"),
    pytest.param(one_tet_mesh(tag="ROLLER"),
                 "unknown tags ['ROLLER'] on boundary faces [3]",
                 id="unknown-tag"),
])
def test_invalid_mesh_file_exit_2(tmp_path, capsys, text, needle):
    """Every command exits 2 on a bad mesh file, naming the file, and
    writes no output."""
    (tmp_path / "m.tet").write_text(text)
    scenario = write_scenario(tmp_path, "s.json", {
        "mesh": {"type": "file", "path": str(tmp_path / "m.tet")}})
    for command in ("validate", "equilibrium", "topopt"):
        code = main([command, "--scenario", scenario,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert str(tmp_path / "m.tet") in message
        assert needle in message
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"tetmesh v1\nv 0 0 0 # \xff\n"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_mesh_file_exit_2(tmp_path, capsys, make):
    make(tmp_path / "m.tet")
    scenario = write_scenario(tmp_path, "s.json", {
        "mesh": {"type": "file", "path": str(tmp_path / "m.tet")}})
    code = main(["validate", "--scenario", scenario,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(tmp_path / "m.tet") in json.loads(
        capsys.readouterr().err)["message"]


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"seed": 1, "output": "\xff"}'),
], ids=["directory", "not-utf8"])
def test_unreadable_scenario_exit_2(tmp_path, capsys, make):
    make(tmp_path / "s.json")
    code = main(["validate", "--scenario", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(tmp_path / "s.json") in json.loads(
        capsys.readouterr().err)["message"]


@pytest.mark.parametrize("command, extra, needle", [
    ("equilibrium", '"model": {"scale1": Infinity}', "Infinity"),
    ("equilibrium", '"model": {"scale1": NaN}', "NaN"),
    ("equilibrium", '"model": {"g": [0, 0, -1e999]}', "-1e999"),
    # uniform labels miss the mass target, so a run that took the
    # infinite temperature would stop at once instead of annealing forever
    ("topopt", '"topopt": {"t_initial": Infinity}, '
               '"labels": {"type": "uniform"}', "Infinity"),
], ids=["Infinity", "NaN", "1e999", "t_initial"])
def test_non_finite_number_exit_2(tmp_path, capsys, command, extra, needle):
    path = tmp_path / "s.json"
    path.write_text('{"mesh": {"type": "box", "nx": 1, "ny": 1, "nz": 1}, '
                    + extra + "}")
    code = main([command, "--scenario", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert str(path) in message
    assert f"non-finite number {needle}" in message


def seed_scenario(tmp_path, doc):
    """A zero-iteration equilibrium scenario: the seed is its only input."""
    return write_scenario(tmp_path, "s.json", {
        "mesh": {"type": "box", "nx": 1, "ny": 1, "nz": 1,
                 "tags": ALL_DIRICHLET_TAGS},
        "model": {"r": 4, "s": stress_free_s(4)}, **doc})


@pytest.mark.parametrize("flag, doc", [
    (["--seed", "-1"], {}),
    ([], {"seed": -1}),
    ([], {"seed": "abc"}),
    ([], {"seed": 1.5}),
    ([], {"seed": True}),
    ([], {"seed": 2**64}),
])
def test_bad_seed_exit_2(tmp_path, capsys, flag, doc):
    code = main(["equilibrium", "--scenario", seed_scenario(tmp_path, doc),
                 "--out", str(tmp_path / "o"), *flag])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["message"].startswith("seed:")


def test_largest_seed_accepted(tmp_path):
    scenario = seed_scenario(tmp_path, {"seed": 2**64 - 1})
    assert main(["equilibrium", "--scenario", scenario,
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("doc, needle", [
    ([1, 2], "scenario must be a JSON object"),
    ({"mesh": {"type": "file"}}, "mesh: a file mesh needs a 'path'"),
])
def test_bad_scenario_document_exit_2(tmp_path, capsys, doc, needle):
    scenario = write_scenario(tmp_path, "s.json", doc)
    code = main(["validate", "--scenario", scenario,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert needle in json.loads(capsys.readouterr().err)["message"]
