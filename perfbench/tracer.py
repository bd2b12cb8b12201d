"""Layer spans recorded from outside the program.

A `Tracer` wraps every public function of the given modules and patches
each module attribute that is bound to one of them, so calls made
through `from .energy import bulk_energy` style bindings are seen too.
Each wrapped call is a span; a layer's self time is its span time minus
the time covered by wrapped calls it made.  Private helpers are not
wrapped, so their cost shows as their caller's self time.
"""

import functools
import inspect
import sys
import time
from collections import Counter


class Layer:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Wraps public functions of `modules` while installed.

    `package` names the package whose modules get their bindings
    patched.  `hook(name, parent, result, exc)` is called after every
    wrapped call with the layer name (`<module>.<function>`), the
    caller's layer name or None, and the return value or exception.
    """

    def __init__(self, modules, package="sharptop", hook=None,
                 clock=time.perf_counter):
        self.modules = list(modules)
        self.package = package
        self.hook = hook
        self.clock = clock
        self.layers = {}
        self.edges = Counter()      # (parent layer, child layer) -> calls
        self._stack = []            # [layer name, child seconds] per open span
        self._patches = []          # (module, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                if inspect.isgeneratorfunction(fn):
                    raise TypeError(f"cannot time generator {fn.__qualname__}")
                wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        prefix = self.package + "."
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != self.package and not name.startswith(prefix):
                continue
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:       # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _wrap(self, fn, name):
        layer = self.layers.setdefault(name, Layer())
        stack, clock, edges = self._stack, self.clock, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.calls += 1
                layer.total += elapsed
                layer.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                edges[(parent, name)] += 1
                if self.hook is not None:
                    self.hook(name, parent, result, exc)

        return wrapper

    def self_seconds(self):
        """Sum of self time over all layers (= time inside any span)."""
        return sum(layer.self_time for layer in self.layers.values())
