"""Spans and counters around the calls into each equichar layer.

The traced run wraps a layer's public function wherever the program or the
benchmark looks it up (``cli.signed_normalize``, ``tclass.close_group``,
...), so nothing under ``src/`` changes.  A span is ``[name, start, end,
parent, pass, job]``, with times from ``time.perf_counter`` and ``parent``
the index of the enclosing span or -1.  Counters are taken from return
values after the span has ended, so they count what the program produced
rather than the size of its input.  Everything stays in memory until the
run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

from equichar import cli, core, normalize, repspaces, tclass


def _closure(result, args):
    return {"core.closure_elements": len(result), "core.closure_capped": int(not result.complete)}


def _subset_sums(result, args):
    return {"tclass.subset_values": len(result.values)}


def _verify(result, args):
    """Products g @ act(x) the check made: all of them, or up to the counterexample."""
    gens = len(args[1])
    if result.passed:
        return {"activations.verify_products": result.trials * gens}
    ce = result.counterexample
    return {"activations.verify_products": ce.trial * gens + ce.generator + 1}


def _basis(result, args):
    return {"repspaces.basis_elements": len(result)}


# (module, attribute, span name, counters): every binding through which the
# CLI or the benchmark reaches a traced function.
PATCHES = (
    (cli, "main", "cli.main", None),
    (cli, "render_report", "cli.render", None),
    (cli, "GroupSpec", "core.group_spec", None),
    (normalize, "GroupSpec", "core.group_spec", None),
    (core, "GroupSpec", "core.group_spec", None),
    (cli, "classify_group_detailed", "tclass.classify_group", None),
    (tclass, "classify_group_detailed", "tclass.classify_group", None),
    (tclass, "close_group", "core.close_group", _closure),
    (tclass, "subset_sum_generators", "tclass.subset_sums", _subset_sums),
    (tclass, "classify_subgroup", "tclass.classify_subgroup", None),
    (cli, "signed_normalize", "normalize.signed_normalize", None),
    (cli, "verify_pointwise_equivariance", "activations.verify", _verify),
    (cli, "export_activation_csv", "activations.export_csv", None),
    (cli, "tensor_action", "repspaces.tensor_action", None),
    (repspaces, "tensor_action", "repspaces.tensor_action", None),
    (cli, "equivariant_basis", "repspaces.equivariant_basis", _basis),
    (repspaces, "equivariant_basis", "repspaces.equivariant_basis", _basis),
    (repspaces, "build_affine_layer", "repspaces.build_affine_layer", None),
    (repspaces, "validate_network", "repspaces.validate_network", None),
)

# per-layer metric -> span name whose total duration it reports
SPAN_METRICS = {
    "core.group_spec_ms": "core.group_spec",
    "core.close_group_ms": "core.close_group",
    "tclass.subset_sums_ms": "tclass.subset_sums",
    "tclass.classify_subgroup_ms": "tclass.classify_subgroup",
    "normalize.signed_normalize_ms": "normalize.signed_normalize",
    "activations.verify_ms": "activations.verify",
    "activations.export_csv_ms": "activations.export_csv",
    "repspaces.tensor_action_ms": "repspaces.tensor_action",
    "repspaces.equivariant_basis_ms": "repspaces.equivariant_basis",
    "repspaces.build_affine_layer_ms": "repspaces.build_affine_layer",
    "repspaces.validate_network_ms": "repspaces.validate_network",
    "cli.render_ms": "cli.render",
}
COUNTERS = (
    "core.closure_elements",
    "core.closure_capped",
    "tclass.subset_values",
    "activations.verify_products",
    "repspaces.basis_elements",
    "cli.report_kb",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.closures: list[tuple[int, bool]] = []  # close_group results of the current job
        self.pass_index = -1
        self.job = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counters):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.pass_index, self.job]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if name == "core.close_group":
                self.closures.append((len(result), result.complete))
            if counters is not None:
                self.count(counters(result, args))
            return result

        return traced

    def count(self, values: dict[str, float]) -> None:
        for key, v in values.items():
            self.counts[self.pass_index][key] += v

    def install(self) -> None:
        for module, attr, name, counters in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counters))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def pass_metrics(self, pass_index: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass: span totals in ms and counters."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_index]
        totals: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            totals[s[0]] += s[2] - s[1]
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out = {metric: 1e3 * totals[name] for metric, name in SPAN_METRICS.items()}
        out["cli.self_ms"] = 1e3 * sum(
            s[2] - s[1] - child_time[i] for i, s in spans if s[0] == "cli.main")
        counts = self.counts[pass_index]
        out.update({key: counts[key] for key in COUNTERS})
        return out
