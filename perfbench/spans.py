"""Spans around the public functions of each dagquot layer, installed from
outside the package for a traced run.

A span records its name, its parent span, its start and end, and whether it
raised. Spans stay in memory; ``dump`` writes them out when the run ends.
Self time is a span's duration minus the durations of its child spans.
A recursive function gets one span for its outermost call.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

LAYERS = ("dag", "realizer", "quotients", "snf", "words", "verifier", "cli", "ceplab")

# (span name, module, class or None, attribute). A module-level function is
# replaced at every dagquot module that imported it, so calls through
# ``from .dag import leq`` are traced as well.
TARGETS = (
    ("dag.from_json", "dag", None, "from_json"),
    ("dag.validate", "dag", None, "validate"),
    ("dag.leq", "dag", None, "leq"),
    ("dag.transitive_closure", "dag", None, "transitive_closure"),
    ("dag.successors", "dag", "ColoredDag", "successors"),
    ("dag.to_json", "dag", None, "to_json"),
    ("realizer.realize", "realizer", None, "realize"),
    ("realizer.removal_order", "realizer", None, "removal_order"),
    ("realizer.realization_to_json", "realizer", None, "realization_to_json"),
    ("realizer.realization_from_json", "realizer", None, "realization_from_json"),
    ("realizer.lattice_to_dot", "realizer", None, "lattice_to_dot"),
    ("quotients.eval_word", "quotients", None, "eval_word"),
    ("quotients.leaves", "quotients", None, "leaves"),
    ("quotients.member", "quotients", "CommutatorScheme", "member"),
    ("quotients.check_soundness", "quotients", None, "check_soundness"),
    ("quotients.abelianization", "quotients", None, "abelianization"),
    ("quotients.quotient_to_json", "quotients", None, "quotient_to_json"),
    ("quotients.quotient_from_json", "quotients", None, "quotient_from_json"),
    ("quotients.nf_to_json", "quotients", None, "nf_to_json"),
    ("snf.invariants_from_rows", "snf", None, "invariants_from_rows"),
    ("snf.smith_normal_form", "snf", None, "smith_normal_form"),
    ("words.parse_word", "words", None, "parse_word"),
    ("words.format_word", "words", None, "format_word"),
    ("verifier.verify_all", "verifier", None, "verify_all"),
    ("verifier.certify_inclusion", "verifier", None, "certify_inclusion"),
    ("verifier.certify_separation", "verifier", None, "certify_separation"),
    ("verifier.certify_distinctness", "verifier", None, "certify_distinctness"),
    ("verifier.certify_color", "verifier", None, "certify_color"),
    ("verifier.check_certificate_detailed", "verifier", None, "check_certificate_detailed"),
    ("verifier.certificate_to_json", "verifier", None, "certificate_to_json"),
    ("verifier.report_to_json", "verifier", None, "report_to_json"),
    ("cli.main", "cli", None, "main"),
    ("ceplab.builtin_group", "ceplab", None, "builtin_group"),
    ("ceplab.load_group", "ceplab", None, "load_group"),
    ("ceplab.group_from_permutations", "ceplab", None, "group_from_permutations"),
    ("ceplab.validate", "ceplab", "FiniteGroup", "validate"),
    ("ceplab.all_subgroups_within", "ceplab", None, "all_subgroups_within"),
    ("ceplab.normal_subgroups_within", "ceplab", None, "normal_subgroups_within"),
    ("ceplab.normal_closure_in", "ceplab", None, "normal_closure_in"),
    ("ceplab.is_cep_pair", "ceplab", None, "is_cep_pair"),
    ("ceplab.cep_transitivity_scan", "ceplab", None, "cep_transitivity_scan"),
)

# Per-layer metrics, each per operation (one DAG, or one scan pass).
# "<span>.calls", "<span>.s" (total) and "<span>.self_s" come from the spans.
SPAN_METRICS = (
    "dag.transitive_closure.s", "dag.leq.calls", "dag.leq.self_s",
    "dag.successors.calls", "dag.successors.self_s",
    "realizer.removal_order.s", "realizer.realize.self_s",
    "realizer.realization_to_json.s", "realizer.realization_from_json.self_s",
    "quotients.eval_word.calls", "quotients.eval_word.self_s",
    "quotients.leaves.calls", "quotients.leaves.self_s",
    "quotients.member.calls", "quotients.member.self_s",
    "quotients.check_soundness.s", "quotients.abelianization.self_s",
    "snf.smith_normal_form.calls", "snf.smith_normal_form.s",
    "words.parse_word.calls", "words.parse_word.s",
    "words.format_word.calls", "words.format_word.s",
    "verifier.certify_inclusion.calls", "verifier.certify_inclusion.self_s",
    "verifier.certify_separation.calls", "verifier.certify_separation.self_s",
    "verifier.certify_distinctness.calls", "verifier.certify_distinctness.self_s",
    "verifier.certify_color.s",
    "verifier.check_certificate_detailed.calls", "verifier.check_certificate_detailed.self_s",
    "verifier.verify_all.self_s", "verifier.report_to_json.s",
    "cli.encode.s", "cli.decode.s",
    "ceplab.group_from_permutations.self_s", "ceplab.validate.s",
    "ceplab.all_subgroups_within.calls", "ceplab.all_subgroups_within.self_s",
    "ceplab.normal_subgroups_within.calls", "ceplab.normal_subgroups_within.self_s",
    "ceplab.normal_closure_in.calls", "ceplab.normal_closure_in.self_s",
    "ceplab.is_cep_pair.calls", "ceplab.is_cep_pair.self_s",
)
OTHER_METRICS = {
    "realizer.realization_bytes": "B/op",
    "snf.matrix_cells": "cells/op",
    "verifier.entries.fail": "entries/op",
    "verifier.entries.inconclusive": "entries/op",
    "verifier.separation.evals_per_witness": "ratio",
    "verifier.distinctness.searches_per_cert": "ratio",
    "trace.overhead_ratio": "ratio",
}
LAYER_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {m: "calls/op" if m.endswith(".calls") else "s/op" for m in SPAN_METRICS}
    units.update(OTHER_METRICS)
    units.update({m: "s/op" for m in LAYER_METRICS})
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.open = [-1]
        self.matrix_cells = 0

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        k = self.names.index(name)
        kind, parent, start, end, error, open_ = (
            self.kind, self.parent, self.start, self.end, self.error, self.open)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            p = open_[-1]
            if p >= 0 and kind[p] == k:
                return fn(*args, **kwargs)
            i = len(kind)
            kind.append(k)
            parent.append(p)
            end.append(0.0)
            error.append(0)
            open_.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[i] = 1
                raise
            finally:
                end[i] = clock()
                open_.pop()

        return traced

    def count_cells(self, fn):
        def counted(a):
            self.matrix_cells += len(a) * (len(a[0]) if a else 0)
            return fn(a)
        return counted

    def install(self) -> list:
        """Replace every target with its traced version; returns what
        ``uninstall`` needs to put the originals back."""
        modules = {m: importlib.import_module(f"dagquot.{m}") for m in LAYERS}
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("dagquot.")]
        patches = []
        for name, modname, cls, attr in TARGETS:
            if cls is not None:
                owner = getattr(modules[modname], cls)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
                continue
            original = getattr(modules[modname], attr)
            inner = self.count_cells(original) if name == "snf.smith_normal_form" else original
            traced = self.wrap(name, inner)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, traced)
        cli = modules["cli"]
        patches.append((cli, "json", cli.json))
        cli.json = _JsonSite(self.wrap("cli.encode", json.dumps), self.wrap("cli.decode", json.load))
        return patches

    @staticmethod
    def uninstall(patches: list) -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, calls that returned, total and self time."""
        n = len(self.kind)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "returned": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, k in enumerate(self.kind):
            st = stats[self.names[k]]
            st["calls"] += 1
            st["returned"] += not self.error[i]
            st["s"] += dur[i]
            st["self_s"] += dur[i] - child[i]
        return stats

    def nested_count(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` with an ancestor span named ``outer``."""
        if inner not in self.names or outer not in self.names:
            return 0
        k_in, k_out = self.names.index(inner), self.names.index(outer)
        under = bytearray(len(self.kind))
        count = 0
        for i, p in enumerate(self.parent):
            if p >= 0 and (self.kind[p] == k_out or under[p]):
                under[i] = 1
                count += self.kind[i] == k_in
        return count

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.kind),
            "arrays": [["kind", "i"], ["parent", "i"], ["start", "d"], ["end", "d"], ["error", "b"]],
            "clock": "time.perf_counter",
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.kind, self.parent, self.start, self.end, self.error):
                arr.tofile(fh)


class _JsonSite:
    """Stands in for the ``json`` module inside ``dagquot.cli``."""

    def __init__(self, dumps, load):
        self.dumps = dumps
        self.load = load

    def __getattr__(self, name):
        return getattr(json, name)


def layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric per operation; ``extra`` supplies the metrics
    the spans do not give (artifact sizes, report entry counts, overhead)."""
    stats = tracer.summary()
    zero = {"calls": 0, "returned": 0, "s": 0.0, "self_s": 0.0}
    values: dict[str, float] = {}
    for metric in SPAN_METRICS:
        span, stat = metric.rsplit(".", 1)
        values[metric] = stats.get(span, zero)[stat] / ops
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            st["self_s"] for name, st in stats.items() if name.split(".")[0] == layer) / ops
    values["snf.matrix_cells"] = tracer.matrix_cells / ops
    sep = stats.get("verifier.certify_separation", zero)["returned"]
    dist = stats.get("verifier.certify_distinctness", zero)["returned"]
    evals = tracer.nested_count("quotients.eval_word", "verifier.certify_separation")
    searches = tracer.nested_count("verifier.certify_separation", "verifier.certify_distinctness")
    values["verifier.separation.evals_per_witness"] = evals / sep if sep else 0.0
    values["verifier.distinctness.searches_per_cert"] = searches / dist if dist else 0.0
    values.update(extra)
    return {m: {"value": values[m], "unit": u} for m, u in metric_units().items()}
