"""Spans and counters at the public-function boundaries of ``toricq``.

The tracer patches functions from outside the package while it is
installed and restores every original on ``uninstall``.  A function bound
by ``from .x import y`` lives under several names, so each one is patched
wherever a ``toricq`` module (or the package itself) binds the same object;
otherwise calls through that binding site would go missing.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the span
that was open when it started (-1 at top level) and ``op`` numbers the
benchmark operation it belongs to.  Spans stay in memory and are written
once at the end.  ``FieldScalar`` and ``NumberField`` methods are only
counted: timing each of their calls would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module of toricq -> its functions that get a span, named <module>.<function>
SPANNED = {
    "linalg": ["rank", "nullspace", "solve", "solve_unique", "in_span", "det"],
    "groups": ["chart_index_sets", "gamma_group", "gamma_check", "kernel_data",
               "n_membership"],
    "intlat": ["smith_diagonal"],
    "strata": ["build_stratification", "build_link", "local_model"],
    "moment": ["moment_data", "derived_moment_data", "retract"],
    "orbits": ["classify_orbit", "equivalent", "n_orbit_equal", "p_function",
               "stratum_of"],
    "serialize": ["load_instance", "instance_from_json", "polytope_from_json",
                  "dumps", "lattice_to_json", "lattice_to_dot",
                  "report_to_json", "report_to_dot", "presentation_to_json",
                  "orbit_class_to_json", "equivalence_to_json"],
    "cli": ["analyze_report"],
}
SPANNED_METHODS = {
    "polytope": [("Polytope", "__init__"), ("Polytope", "_enumerate_vertices"),
                 ("FaceLattice", "covers")],
    "sampling": [("Sampler", "n_element")],
}
COUNTED_METHODS = {
    "field": [("FieldScalar", "__mul__", "mul"), ("FieldScalar", "__rmul__", "mul"),
              ("FieldScalar", "inverse", "inverse"), ("FieldScalar", "sign", "sign"),
              ("NumberField", "_refine", "refine")],
    "groups": [("Quasilattice", "contains", "contains")],
}
SERIALIZE_LOAD = {"serialize.load_instance", "serialize.instance_from_json",
                  "serialize.polytope_from_json"}
VERIFY_GROUPS = ("scalars", "polytope", "groups", "moment", "orbits", "strata", "io")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def _patch_everywhere(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _patch_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        pkg = self.package
        after = {"moment.retract": self._after_retract,
                 "polytope.enumerate_vertices": self._after_enumerate,
                 "orbits.classify_orbit": self._after_verdict,
                 "orbits.equivalent": self._after_verdict}
        # A traced name the package no longer has is an error, not a metric
        # that quietly reads 0: a change that renames or replaces one must
        # update the tables above.
        missing = []
        for layer, names in SPANNED.items():
            module = getattr(pkg, layer)
            for name in names:
                key = f"{layer}.{name}"
                if name not in vars(module):
                    missing.append(key)
                    continue
                original = vars(module)[name]
                self._patch_everywhere(
                    original, self._spanned(key, original, after.get(key)))
        for layer, methods in SPANNED_METHODS.items():
            module = getattr(pkg, layer)
            for cls_name, attr in methods:
                cls = getattr(module, cls_name, None)
                key = f"{layer}.{attr.strip('_') or attr}"
                if cls is None or attr not in cls.__dict__:
                    missing.append(f"{layer}.{cls_name}.{attr}")
                    continue
                self._patch_attr(cls, attr, self._spanned(
                    key, cls.__dict__[attr], after.get(key)))
        for layer, methods in COUNTED_METHODS.items():
            module = getattr(pkg, layer)
            for cls_name, attr, key in methods:
                cls = getattr(module, cls_name, None)
                if cls is None or attr not in cls.__dict__:
                    missing.append(f"{layer}.{cls_name}.{attr}")
                    continue
                self._patch_attr(cls, attr, self._counted(
                    f"{layer}.{key}", cls.__dict__[attr]))
        if missing:
            self.uninstall()
            raise RuntimeError("toricq no longer defines traced names: "
                               + ", ".join(missing))
        suites = pkg.verify.ALL_SUITES
        saved = list(suites)
        for i, suite in enumerate(saved):
            group = suite.__name__.split("_", 1)[0]
            suites[i] = self._spanned(f"verify.{group}", suite)
        self._undo.append((suites, None, saved))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if attr is None:
                owner[:] = value
            else:
                setattr(owner, attr, value)

    # -- result hooks -----------------------------------------------------------

    def _after_retract(self, args, result):
        self.counts["moment.newton_iters"] += result.iterations

    def _after_enumerate(self, args, result):
        self.counts["polytope.vertices_found"] += len(result[0])

    def _after_verdict(self, args, result):
        self.counts["orbits.verdicts"] += 1
        self.counts["orbits.exact_verdicts"] += result.exactness == "exact"

    # -- analysis ----------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per traced pass (ratios are over all passes)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls = Counter()
        inclusive = defaultdict(float)   # outermost spans of each name
        self_time = defaultdict(float)
        link_depths = Counter()
        md_under_classify = 0
        vertex_solves = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child[i]
            ancestors = []
            j = parent
            while j >= 0:
                ancestors.append(spans[j][0])
                j = spans[j][3]
            if name not in ancestors:
                inclusive[name] += end - start
            if name == "strata.build_link":
                link_depths[1 + ancestors.count(name)] += 1
            if name == "moment.moment_data" and "orbits.classify_orbit" in ancestors:
                md_under_classify += 1
            if name == "linalg.solve_unique" \
                    and "polytope.enumerate_vertices" in ancestors:
                vertex_solves += 1

        def incl(*names):
            return sum(inclusive[n] for n in names) / passes

        def layer_self(prefix, exclude=()):
            return sum(t for n, t in self_time.items()
                       if n.startswith(prefix) and n not in exclude) / passes

        def per_pass(value):
            return value / passes

        c = self.counts
        m = {
            "field.mul.calls": per_pass(c["field.mul"]),
            "field.inverse.calls": per_pass(c["field.inverse"]),
            "field.sign.calls": per_pass(c["field.sign"]),
            "field.refine.calls": per_pass(c["field.refine"]),
        }
        for name in SPANNED["linalg"]:
            m[f"linalg.{name}.calls"] = per_pass(calls[f"linalg.{name}"])
        m["linalg.self_s"] = layer_self("linalg.")
        m["polytope.build_s"] = incl("polytope.init")
        m["polytope.build.calls"] = per_pass(calls["polytope.init"])
        # vertices found per linear system the enumerator solved
        m["polytope.vertex_yield"] = (c["polytope.vertices_found"]
                                      / max(1, vertex_solves))
        m["polytope.covers_s"] = incl("polytope.covers")
        m["groups.chart_index_sets_s"] = incl("groups.chart_index_sets")
        m["groups.gamma_s"] = incl("groups.gamma_group", "groups.gamma_check")
        m["groups.gamma.calls"] = per_pass(calls["groups.gamma_group"]
                                           + calls["groups.gamma_check"])
        m["groups.contains.calls"] = per_pass(c["groups.contains"])
        m["intlat.snf_s"] = incl("intlat.smith_diagonal")
        m["intlat.snf.calls"] = per_pass(calls["intlat.smith_diagonal"])
        m["strata.build_link.calls"] = per_pass(calls["strata.build_link"])
        m["strata.links.depth-1"] = per_pass(link_depths[1])
        m["strata.links.depth-2"] = per_pass(link_depths[2])
        m["strata.self_s"] = layer_self("strata.")
        m["serialize.load_s"] = sum(self_time[n] for n in SERIALIZE_LOAD) / passes
        m["serialize.emit_s"] = layer_self("serialize.", SERIALIZE_LOAD)
        m["serialize.report_bytes"] = per_pass(c["serialize.report_bytes"])
        m["moment.retract_s"] = incl("moment.retract")
        m["moment.retract.calls"] = per_pass(calls["moment.retract"])
        m["moment.newton_iters"] = (c["moment.newton_iters"]
                                    / max(1, calls["moment.retract"]))
        m["moment.moment_data.calls"] = per_pass(calls["moment.moment_data"])
        m["orbits.classify.self_s"] = layer_self("orbits.classify_orbit")
        m["orbits.equivalent.self_s"] = layer_self("orbits.equivalent")
        m["orbits.moment_cache_hit_ratio"] = (
            1 - md_under_classify / max(1, calls["orbits.classify_orbit"]))
        m["orbits.exact_share"] = (c["orbits.exact_verdicts"]
                                   / max(1, c["orbits.verdicts"]))
        m["sampling.n_element.calls"] = per_pass(calls["sampling.n_element"])
        m["sampling.n_element_s"] = incl("sampling.n_element")
        for group in VERIFY_GROUPS:
            m[f"verify.{group}_s"] = incl(f"verify.{group}")
        return m
