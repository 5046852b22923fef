"""Span recorder for the traced run, installed from outside the program.

`Tracer.install` wraps the public functions and methods each layer
exposes.  Methods are patched on their class; a function is patched in
every module namespace that imported it by name (strathom's own modules
and the benchmark's).  Each call records one span: name, start, end,
parent span, operation id and an input size (points for `dsl`, matrices
for `linalg`).  Spans stay in memory and are written out at exit;
`layer_metrics` reduces them to the per-layer metrics.

Self time is a span's duration minus the time its child spans cover,
so a span nested in a span of the same layer is counted once in that
layer's self time.  Call counts use the same rule within one kind of
call (`SmoothMap.jacobian` calling `value_and_jacobian` is one call).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

import strathom.constructions as constructions
import strathom.dsl as dsl
import strathom.experiments as experiments
import strathom.grassmann as grassmann
import strathom.regularity as regularity
import strathom.report as report
import strathom.scene as scene
import strathom.strata as strata

DSL = {"dsl.call", "dsl.jacobian", "dsl.value_and_jacobian", "dsl.in_domain"}
ANGLES = {"grassmann.principal_angles", "grassmann.grassmann_distance", "grassmann.contains"}
CHECKS = {
    "regularity.check_whitney_a_at": "a",
    "regularity.check_af_at": "af",
    "regularity.check_tf_at": "tf",
    "regularity.check_afs_at": "afs",
}
LINALG = ("svd", "pinv", "qr", "solve")


def _points(args, kwargs) -> int:
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return 1 if x.ndim == 1 else int(x.shape[0])


def _matrices(args, kwargs) -> int:
    a = np.asarray(args[0] if args else kwargs["a"])
    return int(np.prod(a.shape[:-2], dtype=int)) if a.ndim > 2 else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.kind: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.size: list[int] = []
        self.open: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()
        self.persisted_fraction = 0.0

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, size=None, after=None, new_op: bool = False):
        kind = self.index.setdefault(name, len(self.names))
        if kind == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_op:
                self.op_id += 1
            i = len(self.start)
            self.kind.append(kind)
            self.parent.append(self.open[-1] if self.open else -1)
            self.op.append(self.op_id)
            self.size.append(size(args, kwargs) if size is not None else 0)
            self.end.append(0.0)
            self.open.append(i)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self.open.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), **kw))

    def patch_function(self, module, attr: str, name: str, namespaces, **kw) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, **kw)
        for ns in namespaces:
            for key in [k for k, v in vars(ns).items() if v is original]:
                setattr(ns, key, traced)

    # -- result hooks -------------------------------------------------------

    def _arcs(self, arcs, args, kwargs) -> None:
        plan = (args[3] if len(args) > 3 else kwargs.get("plan")) or strata.ApproachPlan()
        self.counts["arcs_tried"] += max(plan.total_directions, 1)
        self.counts["arcs_kept"] += len(arcs)

    def _limit_verdict(self, verdict, args, kwargs) -> None:
        self.counts["inconclusive_arcs"] += sum(not a.converged for a in verdict.arcs)

    def _tf_verdict(self, verdict, args, kwargs) -> None:
        for r in verdict.detail["radii"]:
            self.counts["tf_seeds"] += r["samples"]
            self.counts["tf_hits"] += r["intersections"]

    def _maps(self, seq, args, kwargs) -> None:
        self.counts["maps"] += len(seq.entries)

    def _bytes(self, _, args, kwargs) -> None:
        self.counts["report_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def _stability(self, rep, args, kwargs) -> None:
        self.persisted_fraction = float(rep.fraction)

    # -- installation -------------------------------------------------------

    def install(self, bench_modules) -> None:
        """Wrap each layer's public entry points (see the module docstring)."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("strathom")]
        namespaces += list(bench_modules)

        def fn(module, attr, name, **kw):
            self.patch_function(module, attr, name, namespaces, **kw)

        for attr, name in (("__call__", "dsl.call"), ("jacobian", "dsl.jacobian"),
                           ("value_and_jacobian", "dsl.value_and_jacobian"),
                           ("in_domain", "dsl.in_domain")):
            self.patch_method(dsl.SmoothMap, attr, name, size=_points)

        self.patch_method(grassmann.Subspace, "__post_init__", "grassmann.subspace")
        self.patch_method(grassmann.Subspace, "contains", "grassmann.contains")
        for attr in ("span_of", "principal_angles", "grassmann_distance", "grassmann_limit"):
            fn(grassmann, attr, f"grassmann.{attr}")

        self.patch_method(strata.Stratum, "locate", "strata.locate")
        self.patch_method(strata.StratifiedMapContext, "leaf_tangent", "strata.leaf_tangent")
        fn(strata, "approach_sequence", "strata.approach_sequence", after=self._arcs)
        fn(strata, "validate_prestratification", "strata.validate_prestratification")
        fn(strata, "validate_constant_rank", "strata.validate_constant_rank")

        fn(regularity, "check_whitney_a_at", "regularity.check_whitney_a_at", after=self._limit_verdict)
        fn(regularity, "check_af_at", "regularity.check_af_at", after=self._limit_verdict)
        fn(regularity, "check_tf_at", "regularity.check_tf_at", after=self._tf_verdict)
        fn(regularity, "check_afs_at", "regularity.check_afs_at")
        fn(regularity, "transverse_at", "regularity.transverse_at")
        self.patch_method(regularity.AffineSurface, "project", "regularity.project")
        self.patch_method(regularity.ChartSurface, "project", "regularity.project")

        fn(experiments, "transversality_margin", "experiments.transversality_margin")
        fn(experiments, "stability_trial", "experiments.stability_trial", after=self._stability)
        self.patch_method(experiments.PerturbationField, "__call__", "experiments.field")
        self.patch_method(experiments.PerturbationField, "jacobian", "experiments.field")

        fn(constructions, "destabilizing_sequence", "constructions.destabilizing_sequence",
           after=self._maps)
        fn(constructions, "rank_drop_map", "constructions.rank_drop_map")

        fn(scene, "load_scene", "scene.load_scene")
        self.patch_method(report.Report, "write", "report.write", after=self._bytes)

        for attr in LINALG:
            setattr(np.linalg, attr, self.wrap(f"linalg.{attr}", getattr(np.linalg, attr),
                                               size=_matrices))

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "kind": np.array(self.kind, dtype=np.int16),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "size": np.array(self.size, dtype=np.int64),
        }

    def write(self, path, **facts) -> None:
        """Spans as columns of an .npz file, plus the run's facts."""
        tmp = f"{path}.tmp.npz"
        np.savez(tmp, **self.arrays(), **{k: np.array(v) for k, v in facts.items()})
        os.replace(tmp, path)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (see BENCHMARK.json)."""
        a = self.arrays()
        names = list(a["names"])
        kind, parent, size = a["kind"], a["parent"], a["size"]
        dur = a["end"] - a["start"]
        label = np.array(names, dtype=object)[kind] if len(kind) else np.array([], dtype=object)
        has_parent = parent >= 0
        child_time = np.zeros(len(dur))
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        own = dur - child_time
        layer = np.array([n.split(".")[0] for n in label], dtype=object)

        def mask(names_):
            return np.isin(label, list(names_)) if len(label) else np.zeros(0, bool)

        def top(names_):
            """Spans of these names not directly nested in one of them."""
            m = mask(names_)
            nested = np.zeros(len(m), bool)
            nested[has_parent] = m[parent[has_parent]]
            return m & ~nested

        def calls(*names_):
            return int(np.count_nonzero(top(names_)))

        def self_s(m):
            return float(own[m].sum())

        def total_s(*names_):
            return float(dur[top(names_)].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        # spans lying inside a transversality margin evaluation
        in_margin = np.zeros(len(dur), bool)
        margin = mask({"experiments.transversality_margin"})
        for i in range(len(dur)):
            in_margin[i] = margin[i] or (parent[i] >= 0 and in_margin[parent[i]])

        dsl_top = top(DSL)
        lin = np.isin(layer, ["linalg"])
        margin_ms = np.sort(dur[margin]) * 1e3
        c = self.counts
        out = {
            "dsl.calls": int(dsl_top.sum()),
            "dsl.points": int(size[dsl_top].sum()),
            "dsl.points_per_call": ratio(int(size[dsl_top].sum()), int(dsl_top.sum())),
            "dsl.self_s": self_s(layer == "dsl"),
            "grassmann.subspaces": calls("grassmann.subspace"),
            "grassmann.span_calls": calls("grassmann.span_of"),
            "grassmann.angle_calls": calls(*ANGLES),
            "grassmann.limit_calls": calls("grassmann.grassmann_limit"),
            "grassmann.self_s": self_s(layer == "grassmann"),
            "strata.locate_calls": calls("strata.locate"),
            "strata.locate_self_s": self_s(mask({"strata.locate"})),
            "strata.leaf_tangent_calls": calls("strata.leaf_tangent"),
            "strata.leaf_tangent_self_s": self_s(mask({"strata.leaf_tangent"})),
            "strata.arcs_tried": c["arcs_tried"],
            "strata.arcs_kept": c["arcs_kept"],
            "strata.arcs_kept_ratio": ratio(c["arcs_kept"], c["arcs_tried"]),
            "strata.validate_s": total_s("strata.validate_prestratification"),
            "strata.rank_cert_s": total_s("strata.validate_constant_rank"),
            "regularity.verdicts": calls(*CHECKS),
            **{f"regularity.{cond}_s": total_s(name) for name, cond in CHECKS.items()},
            "regularity.tf_seeds": c["tf_seeds"],
            "regularity.tf_hits": c["tf_hits"],
            "regularity.tf_hit_ratio": ratio(c["tf_hits"], c["tf_seeds"]),
            "regularity.inconclusive_arcs": c["inconclusive_arcs"],
            "regularity.transverse_calls": calls("regularity.transverse_at"),
            "regularity.project_calls": calls("regularity.project"),
            "experiments.margin_calls": int(margin.sum()),
            "experiments.margin_self_s": self_s(margin),
            "experiments.margin_p50_ms": float(np.median(margin_ms)) if margin_ms.size else 0.0,
            "experiments.evals_per_margin": ratio(int((dsl_top & in_margin).sum()), int(margin.sum())),
            "experiments.field_calls": calls("experiments.field"),
            "experiments.field_self_s": self_s(mask({"experiments.field"})),
            "experiments.persisted_fraction": self.persisted_fraction,
            "constructions.destabilizer_self_s": self_s(mask({"constructions.destabilizing_sequence"})),
            "constructions.maps": c["maps"],
            "constructions.rank_drop_s": total_s("constructions.rank_drop_map"),
            "scene.load_s": total_s("scene.load_scene"),
            "report.write_s": total_s("report.write"),
            "report.bytes": c["report_bytes"],
            "linalg.svd_calls": calls("linalg.svd"),
            "linalg.pinv_calls": calls("linalg.pinv"),
            "linalg.matrices": int(size[lin].sum()),
            "linalg.self_s": self_s(lin),
        }
        return {k: float(v) if isinstance(v, float) else int(v) for k, v in out.items()}
