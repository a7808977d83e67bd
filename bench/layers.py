"""Per-layer tracing from outside the program.

Each traced function is replaced, on every `coopmetro` module global that
holds it, by a timing wrapper; callers look the name up at call time, so
every call goes through the wrapper.  A function's self time is its
wrapper's elapsed time minus the elapsed time of the wrapped calls made
inside it.  A function that is missing (removed or renamed) is reported as
absent with zero calls.
"""

import functools
import importlib
import sys
import time

TRACED = (
    "cli.main",
    "cli.parse_config",
    "sweep.sweep",
    "sweep.find_region",
    "scenarios.qfi_at",
    "scenarios.build_model",
    "qfi.differentiate_state",
    "qfi.qfi_qubit",
    "qfi.qfi_sld",
    "lindblad.propagate",
    "lindblad.validate_density_matrix",
    "lindblad.liouvillian",
    "linalg.expm",
    "linalg.eigh",
)
CACHED = "scenarios.build_model"


def lookup(name: str):
    """The function `<module>.<function>` of coopmetro, or None when absent.

    The module comes from importlib: `coopmetro.sweep` as an attribute is
    the re-exported function, not the module.
    """
    module_name, func_name = name.split(".")
    try:
        module = importlib.import_module(f"coopmetro.{module_name}")
    except ImportError:
        return None
    func = getattr(module, func_name, None)
    return func if callable(func) else None


def cache_counts():
    """(hits, misses) of the model cache, or None when it has no cache_info."""
    info = getattr(lookup(CACHED), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses


class Tracer:
    """Accumulates calls and self time of the traced functions; the wrappers
    are installed only while the tracer is entered."""

    def __init__(self, names=TRACED):
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.absent = []
        self._children = []  # elapsed time of wrapped calls, one slot per open call
        self._sites = []  # (module, attribute, original, wrapper)
        modules = [m for key, m in list(sys.modules.items()) if key == "coopmetro" or key.startswith("coopmetro.")]
        for name in names:
            func = lookup(name)
            if func is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, func)
            for module in modules:
                self._sites += [(module, attr, func, wrapper) for attr, value in vars(module).items() if value is func]

    def _wrap(self, name, func):
        calls, self_s, children = self.calls, self.self_s, self._children
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_s[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        return wrapper

    def __enter__(self):
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, func, _ in self._sites:
            setattr(module, attr, func)
        return False
