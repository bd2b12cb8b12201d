"""Benchmark runner: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload eq-cube-16 --seed 1 --seconds 30 \
        --trace 0

Runs operations of the workload back to back (a closed loop with one
caller) while one more of average length still ends within `--seconds`,
at least one.  Operation `k` draws its inputs from (seed, k).  Every
operation's outputs are checked.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced operations on the same inputs and prints the
per-layer metrics; the traced ones wrap every public function of the
layer modules from outside (see tracer.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record, with
quartiles, determinism counts and the machine, is written to
`.perfbench_out/<workload>/`.  README.md explains every metric.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

LAYER_MODULES = ("mesh", "kinematics", "energy", "solve", "varifold",
                 "topopt", "export")
# The first untraced op repeats set-up for at least this long; later ops
# time their one set-up.  setup_s is the median over all of them.
SETUP_SECONDS = 2.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Layers whose calls / total_ms / self_ms are printed in the traced run.
# Every wrapped layer that was called is in the record file.
REPORTED_LAYERS = (
    "mesh.build_box_mesh", "mesh.build_face_adjacency", "mesh.interior_faces",
    "kinematics.identity_state", "kinematics.reference_edge_inverses",
    "kinematics.deformation_gradients", "kinematics.minors",
    "kinematics.ciarlet_necas_residual",
    "energy.bulk_energy", "energy.bulk_energy_gradient",
    "energy.load_potential", "energy.load_potential_gradient",
    "solve.minimize_equilibrium", "solve.equilibrium_objective",
    "solve.equilibrium_gradient",
    "varifold.extract_interface", "varifold.discrete_curvature_inplace",
    "varifold.boundary_defect", "varifold.interface_energy",
    "varifold.varifold_mass",
    "topopt.optimize_topology", "topopt.mass_preserving_move",
    "topopt.compliance",
    "export.atomic_write_text", "export.write_csv", "export.write_json",
    "export.write_vtk_unstructured", "export.write_vtk_surface",
    "export.write_obj",
)
LAYER_FIELDS = (("calls", "count", "lower"), ("total_ms", "ms", "lower"),
                ("self_ms", "ms", "lower"))
REJECTION_CAUSES = ("metropolis", "move_error", "interface_error",
                    "solve_error")
DERIVED_METRICS = (
    ("solve.iterations", "count", "lower"),
    ("solve.objective_evals", "count", "lower"),
    ("solve.gradient_evals", "count", "lower"),
    ("solve.guard_activations", "count", "lower"),
    ("solve.steps_per_objective_eval", "ratio", "higher"),
    ("solve.ms_per_iteration", "ms", "lower"),
    ("topopt.tries_per_move", "ratio", "lower"),
    ("topopt.steps", "count", "higher"),
    ("topopt.accepted", "count", "higher"),
    ("topopt.accept_ratio", "ratio", "higher"),
) + tuple((f"topopt.rejected.{c}", "count", "lower")
          for c in REJECTION_CAUSES) + (
    ("export.bytes_written", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.run_ms", "ms", "lower"),
    ("trace.unwrapped_ms", "ms", "lower"),
)
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"))


def per_layer_metrics():
    """(name, unit, better) of every metric the traced run prints."""
    return [(f"{layer}.{field}", unit, better)
            for layer in REPORTED_LAYERS
            for field, unit, better in LAYER_FIELDS] + list(DERIVED_METRICS)


def summary(values):
    """Median, quartiles and sample count of a list of timings."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def host_probe():
    """Median time of a fixed pure-Python loop, to compare host speed."""
    times = []
    for _ in range(5):
        t0, total = time.perf_counter(), 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_record():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "loadavg_start": os.getloadavg(),
        "host_probe_s_start": host_probe(),
    }


class SolveCounts:
    """Hook collecting the inner solver's reports and call counts."""

    def __init__(self):
        self.reports = []
        self.calls = Counter()

    def __call__(self, name, parent, result, exc):
        self.calls[name] += 1
        if name == "solve.minimize_equilibrium" and exc is None:
            self.reports.append(result[1])

    def counts(self):
        return {
            "solve.solves": self.calls["solve.minimize_equilibrium"],
            "solve.iterations": sum(r.iterations for r in self.reports),
            "solve.accepted_steps": sum(len(r.history) for r in self.reports),
            "solve.guard_activations":
                sum(r.guard_activations for r in self.reports),
            "solve.objective_evals": self.calls["solve.equilibrium_objective"],
            "solve.gradient_evals": self.calls["solve.equilibrium_gradient"],
        }


class RejectionCauses:
    """Hook classifying each annealing step by what went wrong, if anything.

    A step starts when `mass_preserving_move` returns or raises.  Within
    it, the last inner solve decides a solve failure (the annealer retries
    once from a cold start), and an `InterfaceError` from extraction or a
    non-zero boundary defect outside move proposal is an interface failure.
    """

    def __init__(self, interface_error):
        self.interface_error = interface_error
        self.steps = []

    def __call__(self, name, parent, result, exc):
        if name == "topopt.mass_preserving_move":
            self.steps.append("move_error" if exc is not None else None)
        elif not self.steps or self.steps[-1] == "move_error":
            return
        elif name == "solve.minimize_equilibrium":
            failed = exc is not None or not result[1].converged
            self.steps[-1] = "solve_error" if failed else None
        elif parent != "topopt.mass_preserving_move" and (
                (name == "varifold.extract_interface"
                 and isinstance(exc, self.interface_error))
                or (name == "varifold.boundary_defect" and exc is None
                    and result != 0)):
            self.steps[-1] = "interface_error"

    def tally(self, trace):
        """Rejections by cause, matched against the annealer's trace rows."""
        if len(trace) != len(self.steps):
            raise AssertionError(f"{len(self.steps)} classified steps for "
                                 f"{len(trace)} trace rows")
        causes = Counter({cause: 0 for cause in REJECTION_CAUSES})
        for row, cause in zip(trace, self.steps):
            if row.accepted and cause is not None:
                raise AssertionError(f"step {row.step} accepted after "
                                     f"{cause}")
            if not row.accepted:
                causes[cause or "metropolis"] += 1
        return causes


def run_op(workload, inputs, out, modules, traced, setup_seconds=0.0):
    """One operation; returns its sample, determinism counts and layers."""
    from tracer import Tracer
    from sharptop.varifold import InterfaceError

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    solve_counts = SolveCounts()
    causes = RejectionCauses(InterfaceError)
    clock = time.perf_counter
    sample = {}
    if traced:
        def hook(*event):
            solve_counts(*event)
            causes(*event)

        tracer = Tracer([modules[m] for m in LAYER_MODULES], hook=hook)
        with tracer:
            t0 = clock()
            ctx = workload.setup(inputs)
            t1 = clock()
            spans_before = tracer.self_seconds()
            res = workload.run(ctx, out)
            t2 = clock()
            spans_run = tracer.self_seconds() - spans_before
        sample["setup"] = [t1 - t0]
    else:
        times = []
        while not times or sum(times) < setup_seconds:
            t0 = clock()
            ctx = workload.setup(inputs)
            times.append(clock() - t0)
        sample["setup"] = times
        tracer = Tracer([modules["solve"]], hook=solve_counts)
        with tracer:
            c1, t1 = time.process_time(), clock()
            res = workload.run(ctx, out)
            t2, c2 = clock(), time.process_time()
        sample["run_cpu_s"] = c2 - c1
    sample["run_s"] = t2 - t1
    failures = workload.check(ctx, res)
    counts = dict(solve_counts.counts(), **workload.counts(ctx, res))
    layers = None
    if traced:
        layers = {"tracer": tracer, "unwrapped_s": sample["run_s"] - spans_run,
                  "bytes_written": sum(
                      os.path.getsize(os.path.join(out, f))
                      for f in os.listdir(out)),
                  "causes": causes.tally(res.trace)}
    return sample, counts, failures, layers


def layer_metrics(traced_ops):
    """Per-layer metrics as a mean per traced operation."""
    n = len(traced_ops)
    calls, total, self_time = Counter(), Counter(), Counter()
    edges, causes, counts = Counter(), Counter(), Counter()
    unwrapped = run_s = bytes_written = 0.0
    for sample, op_counts, layers in traced_ops:
        tracer = layers["tracer"]
        for name, layer in tracer.layers.items():
            calls[name] += layer.calls
            total[name] += layer.total
            self_time[name] += layer.self_time
        edges.update(tracer.edges)
        causes.update(layers["causes"])
        counts.update({k: v for k, v in op_counts.items()
                       if isinstance(v, int)})
        unwrapped += layers["unwrapped_s"]
        run_s += sample["run_s"]
        bytes_written += layers["bytes_written"]

    table = {name: {"calls": calls[name] / n,
                    "total_ms": 1e3 * total[name] / n,
                    "self_ms": 1e3 * self_time[name] / n}
             for name in sorted(calls) if calls[name]}
    metrics = {}
    for name in REPORTED_LAYERS:
        row = table.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for field, _, _ in LAYER_FIELDS:
            metrics[f"{name}.{field}"] = row[field]
    moves = calls["topopt.mass_preserving_move"]
    steps, accepted = counts["trace_steps"], counts["accepted_moves"]
    derived = {
        "solve.iterations": counts["solve.iterations"] / n,
        "solve.objective_evals": counts["solve.objective_evals"] / n,
        "solve.gradient_evals": counts["solve.gradient_evals"] / n,
        "solve.guard_activations": counts["solve.guard_activations"] / n,
        "solve.steps_per_objective_eval":
            _ratio(counts["solve.accepted_steps"],
                   counts["solve.objective_evals"]),
        "solve.ms_per_iteration":
            _ratio(1e3 * total["solve.minimize_equilibrium"],
                   counts["solve.iterations"]),
        "topopt.tries_per_move":
            _ratio(edges[("topopt.mass_preserving_move",
                          "varifold.extract_interface")], moves),
        "export.bytes_written": bytes_written / n,
        "trace.run_ms": 1e3 * run_s / n,
        "trace.unwrapped_ms": 1e3 * unwrapped / n,
        "topopt.steps": steps / n,
        "topopt.accepted": accepted / n,
        "topopt.accept_ratio": _ratio(accepted, steps),
    }
    for cause in REJECTION_CAUSES:
        derived[f"topopt.rejected.{cause}"] = causes[cause] / n
    metrics.update(derived)
    return metrics, table


def _ratio(num, den):
    return num / den if den else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # BLAS/OpenMP read these once, when numpy is first imported below.
    for var in THREAD_ENV:
        os.environ[var] = "1"

    if not os.path.isfile(os.path.join(SRC, "sharptop", "__init__.py")):
        print(f"perfbench: no sharptop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    modules = {m: importlib.import_module(f"sharptop.{m}")
               for m in LAYER_MODULES}
    machine = machine_record()
    out_dir = os.path.join(OUT_ROOT, args.workload)

    ops, errors = [], []
    clock = time.perf_counter
    start = clock()
    k = 0
    # Start another op only if one more of average length still fits.
    while k == 0 or (clock() - start) * (k + 1) / k <= args.seconds:
        inputs = workload.make_inputs(args.seed, k)
        plan = [False]
        if args.trace:
            plan = [False, True] if k % 2 == 0 else [True, False]
        for traced in plan:
            try:
                sample, counts, failures, layers = run_op(
                    workload, inputs, os.path.join(out_dir, "op"), modules,
                    traced, SETUP_SECONDS if k == 0 and not args.trace else 0)
            except Exception:
                errors.append({"op": k, "traced": traced,
                               "error": traceback.format_exc()})
                continue
            ops.append({"op": k, "traced": traced, "sample": sample,
                        "counts": counts, "failures": failures,
                        "layers": layers})
            status = "ok" if not failures else "FAILED " + "; ".join(failures)
            print(f"op {k}{' traced' if traced else ''}: "
                  f"run {sample['run_s']:.4f} s, "
                  f"setup {statistics.median(sample['setup']):.4f} s, "
                  f"{status}", flush=True)
        k += 1

    attempted = len(ops) + len(errors)
    failed = len(errors) + sum(1 for op in ops if op["failures"])
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "errors": errors,
              "ops": [{key: op[key] for key in
                       ("op", "traced", "sample", "counts", "failures")}
                      for op in ops]}
    metrics = {}
    if args.trace:
        # a traced op must reproduce its untraced twin's counts exactly
        by_op = {}
        for op in ops:
            by_op.setdefault(op["op"], {})[op["traced"]] = op["counts"]
        mismatched = [k for k, pair in by_op.items()
                      if len(pair) == 2 and pair[True] != pair[False]]
        failed += len(mismatched)
        record["count_mismatches"] = mismatched
        if traced and untraced:
            values, table = layer_metrics(
                [(op["sample"], op["counts"], op["layers"]) for op in traced])
            values["trace.overhead_ratio"] = (
                statistics.median(op["sample"]["run_s"] for op in traced)
                / statistics.median(op["sample"]["run_s"] for op in untraced))
            record["layers"] = table
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in per_layer_metrics()}
    elif untraced:
        setup = summary([t for op in untraced for t in op["sample"]["setup"]])
        run = summary([op["sample"]["run_s"] for op in untraced])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["timings"] = {"setup_s": setup, "run_s": run}
        values = {"setup_s": setup["median"], "run_s": run["median"],
                  "peak_rss_mb": peak}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    machine["loadavg_end"] = os.getloadavg()
    machine["host_probe_s_end"] = host_probe()
    if untraced:
        record["determinism"] = untraced[0]["counts"]

    correct = failed == 0 and bool(metrics)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"record-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(record, metrics=metrics, correct=correct,
                       attempted=attempted, failed=failed), fh, indent=2,
                  sort_keys=True, default=str)
    for error in errors:
        print(error["error"], file=sys.stderr)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
