"""Properties of the package's modules as a whole."""

import importlib
import inspect
import pkgutil

import sharptop


def test_no_public_function_is_a_generator():
    """A generator's body runs after its call has returned, so a timer
    that wraps the call cannot time it, and perfbench's tracer refuses
    to wrap one: no public function of a `sharptop` module is a
    generator."""
    generators = []
    for info in pkgutil.iter_modules(sharptop.__path__):
        module = importlib.import_module(f"sharptop.{info.name}")
        generators += [f"{info.name}.{name}"
                       for name, fn in vars(module).items()
                       if not name.startswith("_")
                       and inspect.isgeneratorfunction(fn)
                       and fn.__module__ == module.__name__]
    assert generators == []
