"""Per-layer tracing of infogreedy from outside the library.

A layer is a module of the package.  ``Tracer.install`` replaces every public
function of a layer, at every module that binds it (``from .x import y``
copies the reference, so ``bounds.efficiency`` is wrapped as well as
``greedy.efficiency``), by a wrapper that records a span; so do
``InfoGraph.__init__`` and each entry of ``verify.CHECKS``.  The per-element
hot paths, ``ValuationOracle.value_mask`` and each oracle's ``_value_mask``,
only count calls.  ``Tracer.uninstall`` puts every original back, so an
untraced run carries no wrapper cost.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, request)``;
``parent`` is the index of the enclosing span, -1 at the request root.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "serialize", "graphs", "lp", "oracles", "greedy", "bounds", "design", "verify")

CHECK_PREFIX = "_check_"


def check_name(fn) -> str:
    name = fn.__name__
    return name[len(CHECK_PREFIX):] if name.startswith(CHECK_PREFIX) else name


class Tracer:
    def __init__(self):
        # looked up now, not when this file is imported: set-up re-imports the package
        import infogreedy

        self.package = infogreedy
        self.modules = {layer: importlib.import_module(f"infogreedy.{layer}") for layer in LAYERS}
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack = [-1]
        self._installed: list = []  # (owner, attribute, original)
        self._after: dict = {}  # span name -> hook(span index, args, kwargs, result)
        self._budgets: dict = {}  # adversarial_search span index -> its budget

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, after = self.spans, self._stack, self._after

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            hook = after.get(name)
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attribute: str, wrapper):
        self._installed.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        prefix = "infogreedy."
        wrappers: dict = {}
        for site in (self.package, *self.modules.values()):
            for attribute, obj in list(vars(site).items()):
                if attribute.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                layer = obj.__module__[len(prefix):]
                if layer not in self.modules:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._span(f"{layer}.{obj.__name__}", obj)
                self._patch(site, attribute, wrappers[obj])

        oracles = self.modules["oracles"]
        base = oracles.ValuationOracle
        self._patch(base, "value_mask", self._counter("oracles.value_mask.calls",
                                                      base.__dict__["value_mask"]))
        for obj in vars(oracles).values():
            if inspect.isclass(obj) and issubclass(obj, base) and "_value_mask" in obj.__dict__:
                self._patch(obj, "_value_mask", self._counter("oracles.value_mask.misses",
                                                              obj.__dict__["_value_mask"]))
        info = self.modules["graphs"].InfoGraph
        self._patch(info, "__init__", self._span("graphs.InfoGraph", info.__dict__["__init__"]))

        verify = self.modules["verify"]
        self._patch(verify, "CHECKS", tuple(
            self._span(f"verify.{check_name(fn)}", fn) for fn in verify.CHECKS
        ))
        self._install_hooks()

    def uninstall(self):
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def originals(self) -> list:
        return list(self._installed)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- counts taken from arguments and results ----------------------------

    def _install_hooks(self):
        counts = self.counts
        search_sig = inspect.signature(self.modules["bounds"].adversarial_search)

        def solve_lp(idx, args, kwargs, result):
            lp = args[0] if args else kwargs["lp"]
            counts["lp.solve_lp.cells"] += len(lp.rows) * len(lp.objective)

        def greedy_run(idx, args, kwargs, result):
            counts["greedy.branches"] += result.branches_explored

        def brute_force(idx, args, kwargs, result):
            inst = args[0] if args else kwargs["inst"]
            total = 1
            for acts in inst.actions:
                total *= len(acts)
            counts["greedy.profiles"] += total

        def upper_bound(idx, args, kwargs, result):
            path = {"capped_sum": "capped_sum", "two_block": "two_block"}.get(
                result.instance.oracle.kind, "padded")
            counts[f"bounds.path.{path}"] += 1

        def search(idx, args, kwargs, result):
            bound = search_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self._budgets[idx] = bound.arguments["budget"]
            counts["bounds.probe.evaluated"] += result.evaluated

        self._after.update({
            "lp.solve_lp": solve_lp,
            "greedy.run_generalized_greedy": greedy_run,
            "greedy.brute_force_opt": brute_force,
            "bounds.upper_bound_instance": upper_bound,
            "bounds.adversarial_search": search,
        })

    # -- summaries --------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time in ns of every span, by index."""
        child = [0] * len(self.spans)
        for name, start, end, parent, req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (name, start, end, parent, req)
                in enumerate(self.spans)]

    def by_request(self) -> dict:
        """request -> (root span duration, {layer: self ns}) for every traced request."""
        own = self.self_times()
        out: dict = {}
        for i, (name, start, end, parent, req) in enumerate(self.spans):
            root, layers = out.setdefault(req, [0, Counter()])
            if parent < 0:
                out[req][0] = root + end - start
            layers[name.split(".", 1)[0]] += own[i]
        return {req: (root, dict(layers)) for req, (root, layers) in out.items()}

    def metrics(self, requests: int, check_names) -> dict:
        """Every per-layer metric this tracer knows, by name."""
        own = self.self_times()
        calls: Counter = Counter()
        fn_self: Counter = Counter()
        layer_self: Counter = Counter()
        probe_attempts = 0
        for i, (name, start, end, parent, req) in enumerate(self.spans):
            calls[name] += 1
            fn_self[name] += own[i]
            layer_self[name.split(".", 1)[0]] += own[i]
            if parent >= 0 and self.spans[parent][0] == "bounds.adversarial_search" and name in (
                "bounds.upper_bound_instance", "bounds.sibling_instance"
            ):
                probe_attempts += 1
        probe_attempts += sum(self._budgets.values())

        def sec(ns: int) -> float:
            return ns / 1e9

        c = self.counts
        value_calls = c["oracles.value_mask.calls"]
        out = {
            "lp.solve_lp.calls": calls["lp.solve_lp"],
            "lp.solves_per_req": calls["lp.solve_lp"] / requests,
            "lp.solve_lp.self_s": sec(fn_self["lp.solve_lp"]),
            "lp.solve_lp.cells": c["lp.solve_lp.cells"],
            "graphs.exact_numbers.calls": calls["graphs.exact_numbers"],
            "graphs.exact_numbers.self_s": sec(fn_self["graphs.exact_numbers"]),
            "graphs.sibling_property.calls": calls["graphs.sibling_property"],
            "graphs.maximal_cliques.calls": calls["graphs.maximal_cliques"],
            "graphs.infograph_built": calls["graphs.InfoGraph"],
            "design.efficiency_curve.self_s": sec(fn_self["design.efficiency_curve"]),
            "design.optimal_structure.calls": calls["design.optimal_structure"],
            "greedy.run_generalized_greedy.calls": calls["greedy.run_generalized_greedy"],
            "greedy.run_generalized_greedy.self_s": sec(fn_self["greedy.run_generalized_greedy"]),
            "greedy.branches": c["greedy.branches"],
            "greedy.brute_force_opt.calls": calls["greedy.brute_force_opt"],
            "greedy.brute_force_opt.self_s": sec(fn_self["greedy.brute_force_opt"]),
            "greedy.profiles": c["greedy.profiles"],
            "oracles.value_mask.calls": value_calls,
            "oracles.value_mask.misses": c["oracles.value_mask.misses"],
            "oracles.cache_hit_ratio": (
                1 - c["oracles.value_mask.misses"] / value_calls if value_calls else 0.0
            ),
            "oracles.audit_properties.calls": calls["oracles.audit_properties"],
            "oracles.audit_properties.self_s": sec(fn_self["oracles.audit_properties"]),
            "bounds.upper_bound_instance.calls": calls["bounds.upper_bound_instance"],
            "bounds.upper_bound_instance.self_s": sec(fn_self["bounds.upper_bound_instance"]),
            "bounds.synthesize_shared_table.calls": calls["bounds.synthesize_shared_table"],
            "bounds.synthesize_shared_table.self_s": sec(fn_self["bounds.synthesize_shared_table"]),
            "bounds.path.capped_sum": c["bounds.path.capped_sum"],
            "bounds.path.two_block": c["bounds.path.two_block"],
            "bounds.path.padded": c["bounds.path.padded"],
            "bounds.adversarial_search.self_s": sec(fn_self["bounds.adversarial_search"]),
            "bounds.probe_useful_ratio": (
                c["bounds.probe.evaluated"] / probe_attempts if probe_attempts else 0.0
            ),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sec(layer_self[layer])
        for name in check_names:
            out[f"verify.{name}.s"] = sec(sum(
                end - start for span, start, end, _, _ in self.spans if span == f"verify.{name}"
            ))
        return out

    def write_spans(self, path: str):
        own = self.self_times()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": req, "self_ns": own[i]}))
                fh.write("\n")
