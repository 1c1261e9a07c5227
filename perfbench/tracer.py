"""Per-layer tracing from outside the library.

The tracer wraps every public function of each ``wstable`` module and
rebinds every module global that refers to one, in all the package's
modules, so inner calls such as ``series`` -> ``w_closure`` are seen too.
Methods are not wrapped: their time is self time of the function that
calls them.  Spans are aggregated in memory, per function and per query,
and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("monomials", "ideals", "trees", "closure", "catalan", "series", "cone",
          "parsing", "cli")

# Work counts that are not call counts.
COUNTS = ("ideals.minimalize_in", "ideals.minimalize_out", "trees.sinks",
          "series.stanley_pieces", "cone.halfspaces", "cone.rays")


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("wstable")
        self.modules = [importlib.import_module(f"wstable.{layer}") for layer in LAYERS]
        self.functions = {}   # "layer.name" -> [calls, inclusive s, self s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.stack = []       # child time of each open span
        self.queries = []     # one record per query span
        self._query_layers = None
        self._saved = []
        self._post = {
            "series.stanley_decomposition": ("series.stanley_pieces", lambda d: len(d.pieces)),
            "cone.constraint_system": ("cone.halfspaces", lambda s: len(s.halfspaces)),
            "cone.cone_rays": ("cone.rays", lambda c: len(c.rays)),
        }

    # -- installing -----------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, module in zip(LAYERS, self.modules):
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(fn, layer, name)
        for module in [self.package, *self.modules]:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])

    def uninstall(self):
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def _wrap(self, fn, layer, name):
        key = f"{layer}.{name}"
        record = self.functions.setdefault(key, [0, 0.0, 0.0])
        stack = self.stack
        count, size = self._post.get(key, (None, None))

        def close(start):
            duration = perf_counter() - start
            self_time = duration - stack.pop()
            record[1] += duration
            record[2] += self_time
            if stack:
                stack[-1] += duration
            if self._query_layers is not None:
                self._query_layers[layer] = self._query_layers.get(layer, 0.0) + self_time

        if key == "ideals.minimalize":
            def wrapper(monomials):
                monomials = list(monomials)
                record[0] += 1
                stack.append(0.0)
                start = perf_counter()
                try:
                    out = fn(monomials)
                finally:
                    close(start)
                self.counts["ideals.minimalize_in"] += len(monomials)
                self.counts["ideals.minimalize_out"] += len(out)
                return out
        elif inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                record[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(start)
                    if key == "trees.iter_tree_sinks":
                        self.counts["trees.sinks"] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                record[0] += 1
                stack.append(0.0)
                start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close(start)
                if count is not None:
                    self.counts[count] += size(out)
                return out
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- query spans ----------------------------------------------------

    def query(self, label, call):
        """Run one query as the root span; returns its output or exception."""
        self._query_layers = {}
        self.stack.append(0.0)
        start = perf_counter()
        try:
            out = call()
        except Exception as exc:  # recorded; the check phase counts it as failed
            out = exc
        end = perf_counter()
        unattributed = (end - start) - self.stack.pop()
        self.queries.append({"label": label, "start": start, "end": end,
                             "unattributed_s": unattributed,
                             "layers_self_s": self._query_layers})
        self._query_layers = None
        return out

    # -- results --------------------------------------------------------

    def metrics(self):
        out = {}
        for layer in LAYERS:
            rows = [v for k, v in self.functions.items() if k.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(r[0] for r in rows)
            out[f"{layer}.self_s"] = sum(r[2] for r in rows)
        out.update(self.counts)
        n_in = self.counts["ideals.minimalize_in"]
        out["ideals.minimalize_keep_ratio"] = (
            self.counts["ideals.minimalize_out"] / n_in if n_in else 0.0)
        closures = self.functions.get("closure.w_closure", [0])[0]
        out["closure.w_closure_calls"] = closures
        out["closure.closures_per_query"] = closures / max(1, len(self.queries))
        out["closure.trunc_ideal_calls"] = self.functions.get("closure.trunc_ideal", [0])[0]
        out["cone.open_region_is_empty_s"] = self.functions.get(
            "cone.open_region_is_empty", [0, 0.0])[1]
        out["cone.cone_rays_s"] = self.functions.get("cone.cone_rays", [0, 0.0])[1]
        return out

    def dump(self):
        return {"functions": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                              for k, v in sorted(self.functions.items()) if v[0]},
                "counts": self.counts,
                "queries": self.queries}
