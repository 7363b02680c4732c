"""Per-layer span timing for one ``hyperdp`` process, from outside the program.

``install`` replaces every module-level function of each layer module,
at every name under which a ``hyperdp`` module holds it, and the hot
``ProductSpace``/``DiscreteMeasure`` methods, with timing wrappers.  A
span stack splits each call's time into self time and time spent in
wrapped callees.  Aggregates stay in memory; ``uninstall`` puts every
original object back and ``restored`` confirms it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("graphs", "measures", "dp", "hdp", "reconcile", "mixture", "rng", "serialize")
METHODS = {
    "ProductSpace": ("as_tuple", "sort_key"),
    "DiscreteMeasure": ("__post_init__",),
}


class Tracer:
    def __init__(self):
        self.spans = {}        # (layer, function) -> [calls, total_s, self_s]
        self.counters = {
            "dp.atoms": 0,
            "dp.budget_hits": 0,
            "reconcile.cells_out": 0,
            "mixture.likelihood_calls": 0,
            "mixture.likelihood_nonzero": 0,
        }
        self._stack = [0.0]    # time covered by finished child spans, per open span
        self._patches = []     # (owner, attribute, original)
        self._hooks = {
            ("dp", "sample_dp"): self._after_sample_dp,
            ("reconcile", "reconcile"): self._after_reconcile,
            ("serialize", "likelihood_from_dict"): self._after_likelihood_from_dict,
        }

    def wrap(self, layer, name, fn):
        entry = self.spans.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get((layer, name))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - inner
            if hook is not None:
                result = hook(args, kwargs, result)
            return result

        return span

    def _after_sample_dp(self, args, kwargs, theta):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        self.counters["dp.atoms"] += len(theta.atoms)
        if len(theta.atoms) >= cfg.max_atoms:
            self.counters["dp.budget_hits"] += 1
        return theta

    def _after_reconcile(self, args, kwargs, result):
        measures = result if isinstance(result, tuple) else (result,)
        self.counters["reconcile.cells_out"] += sum(len(m.mass) for m in measures)
        return result

    def _after_likelihood_from_dict(self, args, kwargs, likelihood):
        counters = self.counters

        @functools.wraps(likelihood)
        def counted(x, pi):
            value = likelihood(x, pi)
            counters["mixture.likelihood_calls"] += 1
            if value != 0.0:
                counters["mixture.likelihood_nonzero"] += 1
            return value

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every layer function and hot method; returns the patch count."""
        package = importlib.import_module("hyperdp")
        modules = [package, importlib.import_module("hyperdp.cli")]
        modules += [importlib.import_module(f"hyperdp.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hyperdp.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(layer, name, obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        measures = importlib.import_module("hyperdp.measures")
        for cls_name, attrs in METHODS.items():
            cls = getattr(measures, cls_name)
            for attr in attrs:
                self._patch(cls, attr, self.wrap("measures", f"{cls_name}.{attr}", vars(cls)[attr]))
        return len(self._patches)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self):
        """True when every patched name holds its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    def report(self, main_s):
        """Aggregates as plain JSON data; ``main_s`` is the traced CLI wall time."""
        return {
            "main_s": main_s,
            "spans": [
                {"layer": layer, "function": name, "calls": c, "total_s": t, "self_s": s}
                for (layer, name), (c, t, s) in sorted(self.spans.items())
                if c
            ],
            "counters": dict(self.counters),
        }
