"""Tests of the benchmark's layer tracer and runner bookkeeping.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import os
import sys
import types
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import sharptop  # noqa: E402
from sharptop import topopt  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Annealing, Equilibrium  # noqa: E402


def _bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "sharptop" or name.startswith("sharptop.")
            for attr, value in vars(mod).items() if callable(value)}


def _modules():
    return {m: sys.modules[f"sharptop.{m}"] for m in run.LAYER_MODULES}


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    original = sharptop.solve.minimize_equilibrium
    with Tracer(_modules().values()):
        wrapped = sharptop.solve.minimize_equilibrium
        assert wrapped is not original and wrapped.__wrapped__ is original
        # re-exports and `from .solve import ...` bindings share the wrapper
        assert sharptop.minimize_equilibrium is wrapped
        assert sharptop.topopt.minimize_equilibrium is wrapped
        # private helpers stay unwrapped
        assert not hasattr(sharptop.solve._min_det, "__wrapped__")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def fake_package():
    """Package `fakepkg` with modules `outer` -> `inner` -> `leaf`."""
    clock = _FakeClock()
    pkg = types.ModuleType("fakepkg")
    leaf = types.ModuleType("fakepkg.leaf")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def work():
        clock.tick(4.0)
    work.__module__ = leaf.__name__

    def step():
        clock.tick(3.0)
        inner.work()          # bound in `inner` as by `from .leaf import work`
    step.__module__ = inner.__name__

    def main():
        clock.tick(1.0)
        outer.step()
        clock.tick(2.0)
        outer.step()
    main.__module__ = outer.__name__

    def _helper():
        clock.tick(5.0)
    _helper.__module__ = leaf.__name__

    leaf.work, leaf._helper = work, _helper
    inner.step, inner.work = step, work
    outer.main, outer.step = main, step
    names = [pkg.__name__, leaf.__name__, inner.__name__, outer.__name__]
    sys.modules.update(zip(names, (pkg, leaf, inner, outer)))
    try:
        yield clock, (leaf, inner, outer)
    finally:
        for name in names:
            del sys.modules[name]


def test_self_time_on_nested_calls(fake_package):
    clock, (leaf, inner, outer) = fake_package
    tracer = Tracer([leaf, inner, outer], package="fakepkg", clock=clock)
    with tracer:
        outer.main()
        leaf._helper()        # private: not a layer, not a span
    layers = {name: (l.calls, l.total, l.self_time)
              for name, l in tracer.layers.items()}
    assert layers == {"leaf.work": (2, 8.0, 8.0),
                      "inner.step": (2, 14.0, 6.0),
                      "outer.main": (1, 17.0, 3.0)}
    assert tracer.self_seconds() == 17.0
    assert tracer.edges == {(None, "outer.main"): 1,
                            ("outer.main", "inner.step"): 2,
                            ("inner.step", "leaf.work"): 2}


def test_spans_survive_exceptions(fake_package):
    clock, (leaf, inner, outer) = fake_package
    events = []

    def boom():
        clock.tick(1.0)
        raise KeyError("x")
    boom.__module__ = leaf.__name__
    leaf.boom = boom
    tracer = Tracer([leaf], package="fakepkg", clock=clock,
                    hook=lambda *event: events.append(event))
    with tracer, pytest.raises(KeyError):
        leaf.boom()
    assert tracer._stack == []
    assert tracer.layers["leaf.boom"].self_time == 1.0
    assert events[0][:3] == ("leaf.boom", None, None)
    assert isinstance(events[0][3], KeyError)


def _report(converged):
    return None, SimpleNamespace(converged=converged)


def test_rejection_causes_follow_the_annealing_step():
    causes = run.RejectionCauses(sharptop.varifold.InterfaceError)
    err = sharptop.varifold.InterfaceError("x")
    events = [
        ("solve.minimize_equilibrium", "topopt.optimize_topology",
         _report(True), None),                      # initial solve: ignored
        ("topopt.mass_preserving_move", "topopt.optimize_topology",
         None, topopt.TopOptError("frozen")),      # step 1: move error
        ("varifold.extract_interface", "topopt.mass_preserving_move",
         None, err),                                # retried inside the move
        ("topopt.mass_preserving_move", None, "phases", None),
        ("solve.minimize_equilibrium", None, _report(False), None),
        ("solve.minimize_equilibrium", None, _report(True), None),
        ("varifold.boundary_defect", None, 0, None),  # step 2: metropolis
        ("varifold.extract_interface", "topopt.mass_preserving_move",
         None, err),                                # belongs to step 3's move
        ("topopt.mass_preserving_move", None, "phases", None),
        ("solve.minimize_equilibrium", None, _report(False), None),
        ("solve.minimize_equilibrium", None, _report(False), None),
        ("topopt.mass_preserving_move", None, "phases", None),
        ("solve.minimize_equilibrium", None, _report(True), None),
        ("varifold.boundary_defect", None, 3, None),
        ("topopt.mass_preserving_move", None, "phases", None),
        ("solve.minimize_equilibrium", None, _report(True), None),
    ]
    for event in events:
        causes(*event)
    rows = [SimpleNamespace(step=i, accepted=acc)
            for i, acc in enumerate([False, False, False, False, True])]
    assert causes.steps == ["move_error", None, "solve_error",
                            "interface_error", None]
    assert causes.tally(rows) == {"metropolis": 1, "move_error": 1,
                                  "interface_error": 1, "solve_error": 1}


@pytest.mark.parametrize("workload", [
    Equilibrium("eq-small", n=3),
    Annealing("anneal-small", n=4, tagging="all-dirichlet",
              mode=topopt.REFERENTIAL, t_initial=0.05, t_final=0.02,
              t_decay=0.5, steps_per_temperature=4, max_iterations=20,
              perturb_moves=4),
    Annealing("anneal-loaded-small", n=3, tagging="clamp-pull",
              mode=topopt.EULERIAN, t_initial=0.05, t_final=0.03,
              t_decay=0.5, steps_per_temperature=2, max_iterations=200,
              traction=2.0, scale0=0.2),
], ids=lambda w: w.name)
def test_traced_and_untraced_runs_give_identical_counts(tmp_path, workload):
    inputs = workload.make_inputs(7, 0)
    plain = run.run_op(workload, inputs, str(tmp_path / "a"), _modules(),
                       traced=False)
    traced = run.run_op(workload, inputs, str(tmp_path / "b"), _modules(),
                        traced=True)
    assert plain[2] == [] and traced[2] == []
    assert plain[1] == traced[1]
    assert plain[1]["solve.solves"] >= 1
    layers = traced[3]
    assert layers["tracer"].layers["solve.minimize_equilibrium"].calls \
        == plain[1]["solve.solves"]
    assert layers["unwrapped_s"] >= 0
    if isinstance(workload, Annealing):
        assert sum(layers["causes"].values()) \
            == plain[1]["rejected_moves"]


def test_benchmark_json_lists_every_printed_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted((m["name"], m["unit"]) for m in bench["end_to_end"]) \
        == sorted(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_metrics()
