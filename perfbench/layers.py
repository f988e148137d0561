"""Module-to-layer table and per-layer attribution of a cProfile run.

The traced run installs ``cProfile`` (a deterministic profile hook)
from this directory and splits its self time by layer:

- a function under ``src/repro`` is charged to the layer of its module;
- a C builtin or a function outside ``src/repro`` (stdlib, numpy,
  generated dataclass methods) is charged to the layers of its callers,
  in proportion to the time each caller spent in it, so per-layer self
  seconds add up to the traced wall time less the benchmark's own code
  and the profiler's unattributed overhead (``trace.coverage``).

It also counts calls into each layer's public functions (names without
a leading underscore, plus dunders) from any other layer or from the
benchmark.
"""

from __future__ import annotations

import os

#: Layer of each package or module under ``src/repro``; a module not
#: listed takes the entry of its nearest listed package.  ``repro``
#: itself covers only the package ``__init__``, so a new top-level
#: package has no layer until it is listed here.
LAYER_OF_MODULE = {
    "repro": "experiments",
    "repro.analysis": "experiments",
    "repro.experiments": "experiments",
    "repro.sim": "sim",
    # Node assembly and the calibrated T805 constants count with the
    # processor model.
    "repro.transputer": "transputer.cpu",
    "repro.transputer.cpu": "transputer.cpu",
    "repro.transputer.memory": "transputer.memory",
    "repro.transputer.link": "transputer.link",
    "repro.comm": "comm",
    "repro.topology": "topology",
    "repro.core": "core",
    "repro.workload": "workload",
    "repro.obs": "obs",
    # The streaming sink is how steady-open computes its results, not
    # optional observability, so it is a layer of its own.
    "repro.obs.streaming": "obs.streaming",
    "repro.trace": "obs",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))


def layer_of(module):
    """Layer of a dotted module name under ``repro``, or ``None``."""
    if module == "repro":
        return LAYER_OF_MODULE["repro"]
    parts = module.split(".")
    while len(parts) > 1:
        layer = LAYER_OF_MODULE.get(".".join(parts))
        if layer is not None:
            return layer
        parts.pop()
    return None


def module_of(filename, src):
    """Dotted module name of a source file under ``src``, or ``None``."""
    rel = os.path.relpath(os.path.abspath(filename), src)
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    if not parts or parts[0] != "repro":
        return None
    return ".".join(parts)


def repro_modules(src):
    """Every module under ``src/repro``, as dotted names."""
    found = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                found.append(module_of(os.path.join(dirpath, name), src))
    return found


def _is_public(name):
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


class Split:
    """Per-layer self seconds, calls in, and per-function call counts."""

    def __init__(self, entries, src):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls_in = dict.fromkeys(LAYERS, 0)
        self.unattributed_s = 0.0
        self._calls = {}
        own = {}        # code -> layer, or None outside src/repro
        callers = {}    # callee code -> [(caller code, subentry)]
        for e in entries:
            if isinstance(e.code, str):
                own[e.code] = None
                continue
            module = module_of(e.code.co_filename, src)
            own[e.code] = layer_of(module) if module else None
            if module:
                key = (module, e.code.co_name)
                self._calls[key] = self._calls.get(key, 0) + e.callcount
        for e in entries:
            for sub in e.calls or ():
                callers.setdefault(sub.code, []).append((e.code, sub))
        self._own = own
        self._callers = callers
        self._resolved = {}

        for e in entries:
            layer = own[e.code]
            if layer is not None:
                self.self_s[layer] += e.inlinetime
                if _is_public(e.code.co_name):
                    self._count_calls_in(e.code, layer)
                continue
            charged = 0.0
            for caller, sub in callers.get(e.code, ()):
                charged += sub.inlinetime
                self._charge(caller, sub.inlinetime)
            self.unattributed_s += max(e.inlinetime - charged, 0.0)

    def _count_calls_in(self, code, layer):
        # Callers outside src/repro are placed by call counts, not
        # times, so the count repeats exactly from run to run.
        for caller, sub in self._callers.get(code, ()):
            weights = self._resolve(caller, "callcount")
            source = (max(sorted(weights), key=weights.get)
                      if weights else None)
            if source != layer:
                self.calls_in[layer] += sub.callcount

    def _charge(self, code, seconds):
        weights = self._resolve(code)
        for layer, w in weights.items():
            self.self_s[layer] += seconds * w
        self.unattributed_s += seconds * (1.0 - sum(weights.values()))

    def _resolve(self, code, weight="totaltime"):
        """``{layer: share}`` a function's time belongs to ({} = none).

        A function outside ``src/repro`` is shared among its callers'
        layers in proportion to each call edge's ``weight``.
        """
        layer = self._own.get(code)
        if layer is not None:
            return {layer: 1.0}
        key = (code, weight)
        if key in self._resolved:
            return self._resolved[key]
        self._resolved[key] = {}  # cycle guard: recursion attributes nothing
        weights = {}
        total = 0.0
        for caller, sub in self._callers.get(code, ()):
            w_edge = getattr(sub, weight)
            for up, w in self._resolve(caller, weight).items():
                weights[up] = weights.get(up, 0.0) + w_edge * w
            total += w_edge
        if total > 0:
            weights = {k: v / total for k, v in weights.items() if v > 0}
        else:
            weights = {}
        self._resolved[key] = weights
        return weights

    def calls(self, module, function):
        """Total calls of ``module.function`` during the traced pass."""
        return self._calls.get((module, function), 0)
