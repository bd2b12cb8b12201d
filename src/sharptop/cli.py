"""Batch entry point: validate / equilibrium / topopt / curvature-test.

Scenarios are single JSON documents; see README for the schema.  All
randomness flows from one scenario seed through named sub-seeds.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import zlib

import numpy as np

from . import export, mesh as meshmod, surfaces
from .energy import EnergyModel
from .kinematics import identity_state
from .solve import SolveOptions, minimize_equilibrium
from .topopt import TopOptConfig, TopOptResult, optimize_topology
from .varifold import (PhaseLabeling, curvature_integral, extract_interface,
                       varifold_mass)


class ScenarioError(Exception):
    pass


def sub_seed(seed, name):
    """Stable named sub-stream of the scenario seed."""
    return int(np.random.SeedSequence([seed, zlib.crc32(name.encode())])
               .generate_state(1)[0])


def _finite_number(text):
    """A JSON number or NaN/Infinity constant, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def load_scenario(path):
    try:
        with open(path, encoding="utf-8") as fh:
            scenario = json.load(fh, parse_float=_finite_number,
                                 parse_constant=_finite_number)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read the scenario: {exc}")
    except ValueError as exc:   # not UTF-8, not JSON, or not finite
        raise ScenarioError(f"{path}: invalid JSON: {exc}")
    if not isinstance(scenario, dict):
        raise ScenarioError(f"{path}: the scenario must be a JSON object")
    return _object("scenario", scenario, {"seed", "output", "mesh", "model",
                                          "labels", "solve", "topopt"})


def check_seed(seed):
    """The scenario seed: an integer in [0, 2**64), not a bool."""
    if (isinstance(seed, bool) or not isinstance(seed, int)
            or not 0 <= seed < 2**64):
        raise ScenarioError(
            f"seed: expected an integer in [0, 2**64), got {seed!r}")
    return seed


def _object(section, spec, allowed):
    """`spec` if it is an object with no key outside `allowed`."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{section}: expected an object")
    for key in spec:
        if key not in allowed:
            raise ScenarioError(f"{section}: unknown key {key!r}")
    return spec


# JSON value checks; a bool is neither an integer nor a number here
def _integer(low, high=math.inf):
    return lambda v: type(v) is int and low <= v <= high


def _number(low=-math.inf):
    return lambda v: type(v) in (int, float) and low < v < math.inf


def _triple(ok):
    return lambda v: isinstance(v, list) and len(v) == 3 and all(map(ok, v))


def _tag_rules(rules):
    return isinstance(rules, list) and all(
        isinstance(r, dict) and r.keys() - {"tol"} == {"tag", "axis", "value"}
        and r["tag"] in meshmod.TAGS and _integer(0, 2)(r["axis"])
        and _number()(r["value"]) and _number()(r.get("tol", 0.0))
        for r in rules)


# the keys of each mesh and labels type, and the check of each value
MESH_KEYS = {"box": {"nx": _integer(1), "ny": _integer(1), "nz": _integer(1),
                     "extent": _triple(_number(0)), "tags": _tag_rules},
             "file": {"path": lambda v: isinstance(v, str)}}
LABEL_KEYS = {"uniform": {"value": _integer(0, 1)},
              "slab": {"axis": _integer(0, 2)},
              "halfspace": {"axis": _integer(0, 2), "threshold": _number()},
              "ball": {"center": _triple(_number()), "radius": _number(0)}}


def _kind(section, spec, kinds, default):
    """The type of a mesh or labels section, whose values must suit it."""
    kind = spec.get("type", default) if isinstance(spec, dict) else default
    if kind not in list(kinds):     # a list: a JSON kind may be unhashable
        raise ScenarioError(f"{section}: unknown type {kind!r}")
    for key, value in _object(section, spec, {"type", *kinds[kind]}).items():
        if key != "type" and not kinds[kind][key](value):
            raise ScenarioError(f"{section}: invalid {key} {value!r}")
    return kind


def build_mesh(spec):
    if _kind("mesh", spec, MESH_KEYS, "box") == "file":
        if "path" not in spec:
            raise ScenarioError("mesh: a file mesh needs a 'path'")
        return meshmod.load_mesh(spec["path"])
    tagging = None
    if spec.get("tags"):
        tagging = meshmod.plane_tagging(spec["tags"])
    return meshmod.build_box_mesh(spec.get("nx", 4), spec.get("ny", 4),
                                  spec.get("nz", 4),
                                  spec.get("extent", (1.0, 1.0, 1.0)),
                                  tagging=tagging)


def build_labels(spec, mesh, eta):
    kind = _kind("labels", spec, LABEL_KEYS, "slab")
    if kind == "uniform":
        return PhaseLabeling(np.full(mesh.n_tets, spec.get("value", 1),
                                     np.int8))
    if kind == "slab":
        return surfaces.slab_labels(mesh, eta, axis=spec.get("axis", 0))
    if kind == "halfspace":
        return surfaces.halfspace_labels(mesh, axis=spec.get("axis", 0),
                                         threshold=spec.get("threshold", 0.5))
    return surfaces.ball_labels(mesh, spec.get("center", (0.5, 0.5, 0.5)),
                                spec.get("radius", 0.3))


def build_section(cls, scenario, section, **fixed):
    """`cls` from a scenario section; unknown or bad values are errors.

    Keys in `fixed` are set by the CLI and may not appear in the section.
    """
    spec = _object(section, scenario.get(section, {}),
                   {f.name for f in dataclasses.fields(cls)} - set(fixed))
    try:
        return cls(**spec, **fixed)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


def cmd_validate(scenario, out, seed):
    mesh = build_mesh(scenario.get("mesh", {}))   # raises on an invalid mesh
    export.write_json(os.path.join(out, "validate.json"), {
        "n_vertices": mesh.n_vertices,
        "n_tets": mesh.n_tets,
        "total_volume": mesh.total_volume(),
    })
    return 0


def cmd_equilibrium(scenario, out, seed):
    mesh = build_mesh(scenario.get("mesh", {}))
    model = build_section(EnergyModel, scenario, "model")
    phases = build_labels(scenario.get("labels", {"type": "uniform"}),
                          mesh, model.eta)
    # SolveOptions.seed is unused; fixing it keeps it out of the schema
    options = build_section(SolveOptions, scenario, "solve", seed=0)
    state, report = minimize_equilibrium(mesh, identity_state(mesh), phases,
                                         model, options)
    export.write_csv(os.path.join(out, "equilibrium_log.csv"),
                     ["iter", "objective", "grad_norm", "min_detF",
                      "guard_flags"],
                     [(i, f"{o:.17g}", f"{g:.17g}", f"{d:.17g}", gf)
                      for i, o, g, d, gf in report.history])
    export.write_vtk_unstructured(
        os.path.join(out, "equilibrium.vtk"), state.positions, mesh.tets,
        cell_data={"phase": phases.labels})
    export.write_json(os.path.join(out, "equilibrium.json"), {
        "converged": report.converged,
        "message": report.message,
        "iterations": report.iterations,
        "objective": report.objective,
        "grad_norm": report.grad_norm,
        "min_det": report.min_det,
        "guard_activations": report.guard_activations,
        "det_floor_backtracks": report.det_floor_backtracks,
        "armijo_backtracks": report.armijo_backtracks,
        "injectivity_backtracks": report.injectivity_backtracks,
        "seed": seed,
    })
    return 0 if report.converged else 1


def _write_topopt_outputs(out, mesh, eta, result: TopOptResult, seed):
    export.write_csv(os.path.join(out, "trace.csv"),
                     ["step", "temperature", "objective", "compliance",
                      "interface_energy", "mass", "accepted"],
                     [(r.step, f"{r.temperature:.17g}",
                       f"{r.objective:.17g}", f"{r.compliance:.17g}",
                       f"{r.interface_energy:.17g}", f"{r.mass:.17g}",
                       int(r.accepted)) for r in result.trace])
    export.write_vtk_unstructured(
        os.path.join(out, "best.vtk"), result.best_state.positions,
        mesh.tets, cell_data={"phase": result.best_phases.labels})
    V = extract_interface(mesh, result.best_state, result.best_phases)
    if V.n_triangles:
        export.write_obj(os.path.join(out, "best_interface.obj"),
                         V.vertices, V.faces, V.normals)
        export.write_vtk_surface(
            os.path.join(out, "best_interface.vtk"), V.vertices, V.faces,
            point_data={"H": np.linalg.norm(V.mean_curvature, axis=1),
                        "K": V.gauss_curvature, "A_norm": V.a_norm})
    export.write_json(os.path.join(out, "summary.json"), {
        "best_objective": result.best_objective,
        "initial_objective": result.initial_objective,
        "initial_interface_mass": result.initial_mass,
        "final_interface_mass": result.final_mass,
        "accepted_moves": result.accepted_moves,
        "rejected_moves": result.rejected_moves,
        "rejected_no_move": result.rejected_no_move,
        "rejected_interface": result.rejected_interface,
        "rejected_solve": result.rejected_solve,
        "rejected_metropolis": result.rejected_metropolis,
        "nonmanifold_draws": result.nonmanifold_draws,
        "skipped_solves": result.skipped_solves,
        "mass_constraint_residual":
            result.best_phases.phase1_volume(mesh)
            - eta * mesh.total_volume(),
        "seed": seed,
    })


def cmd_topopt(scenario, out, seed):
    mesh = build_mesh(scenario.get("mesh", {}))
    model = build_section(EnergyModel, scenario, "model")
    config = build_section(
        TopOptConfig, scenario, "topopt",
        solve_options=build_section(SolveOptions, scenario, "solve", seed=0),
        seed=sub_seed(seed, "moves"))
    phases = build_labels(scenario.get("labels", {"type": "slab"}),
                          mesh, config.eta)

    def snapshot(step, state, phs):
        export.write_vtk_unstructured(
            os.path.join(out, f"snapshot_{step:06d}.vtk"),
            state.positions, mesh.tets, cell_data={"phase": phs.labels})
        V = extract_interface(mesh, state, phs)
        if V.n_triangles:
            export.write_obj(os.path.join(out, f"snapshot_{step:06d}.obj"),
                             V.vertices, V.faces, V.normals)

    result = optimize_topology(mesh, phases, model, config,
                               snapshot_callback=snapshot)
    _write_topopt_outputs(out, mesh, config.eta, result, seed)
    return 0


def cmd_curvature_test(scenario, out, seed):
    rows = []
    for level in (1, 2, 3, 4):
        radius = 0.3
        V = surfaces.sphere_varifold(level, radius=radius)
        mass = varifold_mass(V)
        bending = curvature_integral(V)
        rows.append(("sphere", level, len(V.vertices),
                     f"{mass:.17g}", f"{4 * np.pi * radius**2:.17g}",
                     f"{bending:.17g}", f"{16 * np.pi:.17g}"))
    Vf = surfaces.flat_varifold(8, 8)
    rows.append(("plane", 0, len(Vf.vertices), f"{varifold_mass(Vf):.17g}",
                 "1", f"{curvature_integral(Vf):.17g}", "0"))
    for n in (16, 32):
        radius = 0.5
        Vc = surfaces.cylinder_varifold(radius, n_theta=n, n_z=n // 2)
        area = np.pi * radius * 1.0
        rows.append(("cylinder", n, len(Vc.vertices),
                     f"{varifold_mass(Vc):.17g}", f"{area:.17g}",
                     f"{curvature_integral(Vc):.17g}",
                     f"{2.0 / radius**2 * area:.17g}"))
    export.write_csv(os.path.join(out, "curvature_table.csv"),
                     ["surface", "level", "n_vertices", "mass",
                      "mass_analytic", "curvature_integral",
                      "curvature_analytic"], rows)
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "equilibrium": cmd_equilibrium,
    "topopt": cmd_topopt,
    "curvature-test": cmd_curvature_test,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sharptop",
        description="Sharp-interface two-phase elasticity with "
                    "curvature-penalized interfaces")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", help="scenario JSON path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario) if args.scenario else {}
        seed = check_seed(args.seed if args.seed is not None
                          else scenario.get("seed", 0))
        out = args.out or scenario.get("output", "out")
        if not isinstance(out, str) or not out:
            raise ScenarioError(f"output: expected a non-empty path, "
                                f"got {out!r}")
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"{out}: cannot create the output "
                                f"directory: {exc}") from exc
        return COMMANDS[args.command](scenario, out, seed)
    except (ScenarioError, meshmod.MeshError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # solver / interface failures
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
