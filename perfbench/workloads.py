"""The benchmark's workloads, driven through sharptop's public API.

Each workload splits one operation into four parts:

- `make_inputs(seed, op)`: seeded input generation, not timed;
- `setup(inputs)`: mesh, model, labels and identity state, timed as set-up;
- `run(ctx, out)`: from the first solver call until every output file is
  written, timed as the run; its result carries `trace`, the annealing
  trace rows (empty for a plain solve);
- `check(ctx, result)`: output checks, returning a list of failures.

Functions are looked up on their modules at call time, so a `Tracer`
installed around a part sees every call into the program.
"""

import hashlib
import os
import zlib
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from sharptop import (energy, export, kinematics, mesh as meshmod, solve,
                      surfaces, topopt, varifold)

CLAMP_BOTTOM_PULL_TOP = [
    {"tag": "DIRICHLET", "axis": 2, "value": 0.0},
    {"tag": "NEUMANN", "axis": 2, "value": 1.0},
]
GRADIENT_TOLERANCE = 1e-5
# A solver converging to GRADIENT_TOLERANCE lands within about
# |g|^2 / lambda_min of the minimum, far inside this.
OBJECTIVE_RTOL = 1e-7
ETA = 0.5
TRACE_HEADER = ["step", "temperature", "objective", "compliance",
                "interface_energy", "mass", "accepted"]


def op_seed(seed, op, stream):
    """Independent 32-bit seed for one named random stream of one op."""
    return int(np.random.SeedSequence([seed, op, zlib.crc32(stream.encode())])
               .generate_state(1)[0])


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def min_det(mesh, positions):
    F = kinematics.deformation_gradients(mesh, positions)
    return float(kinematics.minors(F)[2].min())


def _tagging(kind):
    if kind == "clamp-pull":
        return meshmod.plane_tagging(CLAMP_BOTTOM_PULL_TOP)
    return lambda centroid: meshmod.DIRICHLET


@dataclass(frozen=True)
class Equilibrium:
    """Cold equilibrium solve of a clamped, pulled, one-phase cube."""
    name: str
    n: int
    reference_objective: float | None = None

    def make_inputs(self, seed, op):
        return SimpleNamespace(mc_seed=op_seed(seed, op, "monte-carlo"))

    def setup(self, inputs):
        mesh = meshmod.build_box_mesh(self.n, self.n, self.n,
                                      tagging=_tagging("clamp-pull"))
        model = energy.EnergyModel(r=4, s=energy.stress_free_s(4),
                                   g=[0.0, 0.0, 2.0])
        phases = varifold.PhaseLabeling(np.ones(mesh.n_tets, np.int8))
        options = solve.SolveOptions(gradient_tolerance=GRADIENT_TOLERANCE,
                                     seed=inputs.mc_seed)
        return SimpleNamespace(mesh=mesh, model=model, phases=phases,
                               options=options,
                               state0=kinematics.identity_state(mesh))

    def run(self, ctx, out):
        state, report = solve.minimize_equilibrium(
            ctx.mesh, ctx.state0, ctx.phases, ctx.model, ctx.options)
        export.write_csv(os.path.join(out, "equilibrium_log.csv"),
                         ["iter", "objective", "grad_norm", "min_detF",
                          "guard_flags"],
                         [(i, f"{o:.17g}", f"{g:.17g}", f"{d:.17g}", gf)
                          for i, o, g, d, gf in report.history])
        export.write_vtk_unstructured(
            os.path.join(out, "equilibrium.vtk"), state.positions,
            ctx.mesh.tets, cell_data={"phase": ctx.phases.labels})
        export.write_json(os.path.join(out, "equilibrium.json"), {
            "converged": report.converged,
            "iterations": report.iterations,
            "objective": report.objective,
            "grad_norm": report.grad_norm,
            "min_det": report.min_det,
            "guard_activations": report.guard_activations,
        })
        return SimpleNamespace(state=state, report=report, out=out, trace=[])

    def check(self, ctx, res):
        report, failures = res.report, []
        if not (report.converged
                and report.grad_norm < GRADIENT_TOLERANCE):
            failures.append(f"not converged: |g| = {report.grad_norm:.3e}")
        if not min_det(ctx.mesh, res.state.positions) > 0:
            failures.append("min det F <= 0")
        objs = [row[1] for row in report.history]
        if any(b >= a for a, b in zip(objs, objs[1:])):
            failures.append("objective history does not strictly decrease")
        mask = ctx.state0.dirichlet_mask
        if not np.array_equal(res.state.positions[mask],
                              ctx.mesh.vertices[mask]):
            failures.append("Dirichlet rows moved")
        ref = self.reference_objective
        if ref is not None and not (abs(report.objective - ref)
                                    <= OBJECTIVE_RTOL * abs(ref)):
            failures.append(f"objective {report.objective!r} != reference "
                            f"{ref!r} (rtol {OBJECTIVE_RTOL})")
        return failures

    def counts(self, ctx, res):
        return {"output_sha256": file_sha256(
            os.path.join(res.out, "equilibrium_log.csv"))}


@dataclass(frozen=True)
class Annealing:
    """Simulated annealing over labelings with inner equilibrium solves."""
    name: str
    n: int
    tagging: str                  # "clamp-pull" or "all-dirichlet"
    mode: str
    t_initial: float
    t_final: float
    t_decay: float
    steps_per_temperature: int
    max_iterations: int
    traction: float = 0.0
    scale0: float = 1.0
    perturb_moves: int = 0        # seeded swaps applied to the slab start

    def _mesh(self):
        return meshmod.build_box_mesh(self.n, self.n, self.n,
                                      tagging=_tagging(self.tagging))

    def _best_interface(self, mesh, result):
        """Interface of the best labeling where the objective measures it."""
        positions = mesh.vertices if self.mode == topopt.REFERENTIAL \
            else result.best_state.positions
        return varifold.extract_interface(mesh, result.best_state,
                                          result.best_phases,
                                          positions=positions)

    def make_inputs(self, seed, op):
        labels = None
        if self.perturb_moves:
            mesh = self._mesh()
            rng = np.random.default_rng(op_seed(seed, op, "perturb"))
            phases = surfaces.slab_labels(mesh, ETA, axis=0)
            for _ in range(self.perturb_moves):
                phases = topopt.mass_preserving_move(mesh, phases, rng,
                                                     interface_bias=0.5)
            labels = phases.labels
        return SimpleNamespace(labels=labels,
                               moves_seed=op_seed(seed, op, "moves"),
                               mc_seed=op_seed(seed, op, "monte-carlo"))

    def setup(self, inputs):
        mesh = self._mesh()
        model = energy.EnergyModel(r=4, s=energy.stress_free_s(4),
                                   scale0=self.scale0,
                                   g=[0.0, 0.0, self.traction], eta=ETA)
        if inputs.labels is None:
            phases = surfaces.slab_labels(mesh, ETA, axis=0)
        else:
            phases = varifold.PhaseLabeling(inputs.labels.copy())
        config = topopt.TopOptConfig(
            mode=self.mode, eta=ETA, t_initial=self.t_initial,
            t_final=self.t_final, t_decay=self.t_decay,
            steps_per_temperature=self.steps_per_temperature,
            seed=inputs.moves_seed,
            solve_options=solve.SolveOptions(
                gradient_tolerance=GRADIENT_TOLERANCE,
                max_iterations=self.max_iterations,
                seed=inputs.mc_seed))
        return SimpleNamespace(mesh=mesh, model=model, phases=phases,
                               config=config,
                               state0=kinematics.identity_state(mesh))

    def run(self, ctx, out):
        mesh = ctx.mesh
        result = topopt.optimize_topology(mesh, ctx.phases, ctx.model,
                                          ctx.config, state0=ctx.state0)
        export.write_csv(os.path.join(out, "trace.csv"), TRACE_HEADER,
                         [(r.step, f"{r.temperature:.17g}",
                           f"{r.objective:.17g}", f"{r.compliance:.17g}",
                           f"{r.interface_energy:.17g}", f"{r.mass:.17g}",
                           int(r.accepted)) for r in result.trace])
        export.write_vtk_unstructured(
            os.path.join(out, "best.vtk"), result.best_state.positions,
            mesh.tets, cell_data={"phase": result.best_phases.labels})
        V = varifold.extract_interface(mesh, result.best_state,
                                       result.best_phases)
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
            "mass_constraint_residual":
                result.best_phases.phase1_volume(mesh)
                - ETA * mesh.total_volume(),
        })
        return SimpleNamespace(result=result, trace=result.trace, out=out)

    def check(self, ctx, res):
        mesh, result, failures = ctx.mesh, res.result, []
        target = ETA * mesh.total_volume()
        if not abs(result.best_phases.phase1_volume(mesh) - target) \
                <= 1e-12 * target:
            failures.append("phase-1 volume misses its target")
        if varifold.boundary_defect(self._best_interface(mesh, result)) != 0:
            failures.append("best interface has dangling edges")
        if not min_det(mesh, result.best_state.positions) > 0:
            failures.append("min det F <= 0 on the best state")
        if not result.best_objective <= result.initial_objective:
            failures.append("best objective worse than the initial one")
        return failures

    def counts(self, ctx, res):
        # Interface mass is recorded, not checked: the bending term
        # dominates the interface energy, so a lower objective can come
        # with a larger area (see README).
        result = res.result
        V = self._best_interface(ctx.mesh, result)
        return {"accepted_moves": result.accepted_moves,
                "rejected_moves": result.rejected_moves,
                "trace_steps": len(result.trace),
                "initial_interface_mass": result.initial_mass,
                "best_interface_mass": varifold.varifold_mass(V),
                "output_sha256": file_sha256(
                    os.path.join(res.out, "trace.csv"))}


WORKLOADS = {w.name: w for w in (
    Equilibrium("eq-cube-16", n=16, reference_objective=148.2932026667958),
    Annealing("anneal-loaded-6", n=6, tagging="clamp-pull",
              mode=topopt.EULERIAN, t_initial=0.05, t_final=0.01,
              t_decay=0.5, steps_per_temperature=1, max_iterations=500,
              traction=2.0, scale0=0.2),
    Annealing("anneal-ref-8", n=8, tagging="all-dirichlet",
              mode=topopt.REFERENTIAL, t_initial=0.05, t_final=0.001,
              t_decay=0.5, steps_per_temperature=10, max_iterations=50,
              perturb_moves=12),
)}
