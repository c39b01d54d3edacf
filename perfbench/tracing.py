"""Spans around the package's public names, for the traced run.

Each target is replaced by a wrapper wherever it is looked up: on its
defining module or class, and under any name in the already imported
`bnd.*` modules that hold the same object (so `bnd.cli.compute_B` and
`bnd.engine.invert_unit` are caught as well as the originals).  A target
that no longer exists is reported as absent, not as an error, so a
refactor that renames or removes it needs no change here.

Spans stay in memory as [id, parent, op, name, start, end] and are
written out once, after the pass.  A span's self time is its duration
minus the durations of its direct children; calls run on one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, "module:attribute path"); the name's first part is the layer
SPANNED = (
    ("cli.main", "bnd.cli:main"),
    *(
        (f"engine.{name}", f"bnd.engine:{name}")
        for name in (
            "compute_B", "bnd_variety", "bnd_affine", "bnd_of_profile", "bnd_projective",
            "epsilon_terms", "epsilon_oracle", "ed_degree", "ambient_stability",
        )
    ),
    *(
        (f"profiles.{name}", f"bnd.profiles:{name}")
        for name in (
            "ci_profile", "polar_degrees", "evaluate_class", "profile_json",
            "hyperplane_section_spec", "hyperplane_section", "chern_to_polar", "polar_to_chern",
        )
    ),
    *(
        (f"schubert.{name}", f"bnd.schubert:{name}")
        for name in (
            "chern_tangent_grassmannian", "pullback_f", "schubert_pullback_direct",
            "schubert_representative", "grassmannian_context",
        )
    ),
    ("ring.mul", "bnd.ring:ClassPoly.__mul__"),
    ("ring.mul", "bnd.ring:ClassPoly.__rmul__"),
    ("ring.invert_unit", "bnd.ring:invert_unit"),
    ("ring.divide_monic", "bnd.ring:divide_monic"),
    ("ring.substitute", "bnd.ring:substitute"),
    ("systems.build", "bnd.systems:build_minor_system"),
    ("systems.build", "bnd.systems:build_lagrange_system"),
    ("systems.emit", "bnd.systems:format_system"),
    ("systems.parse", "bnd.systems:parse"),
    ("systems.parse", "bnd.systems:parse_system_text"),
    ("solver.find_bottlenecks", "bnd.solver:find_bottlenecks"),
    ("solver.sample_variety", "bnd.solver:sample_variety"),
    ("solver.classify_isolation", "bnd.solver:classify_isolation"),
    ("solver.narrowest_bottleneck", "bnd.solver:narrowest_bottleneck"),
    ("solver.result_json", "bnd.solver:result_json"),
    ("linalg.pinv", "numpy.linalg:pinv"),
    ("linalg.solve", "numpy.linalg:solve"),
    ("linalg.svd", "numpy.linalg:svd"),
)

# counted without a span: called too often, inside spans that cover them
COUNTED = (
    ("systems.poly_mul", "bnd.systems:Poly.__mul__"),
    ("systems.poly_mul", "bnd.systems:Poly.__rmul__"),
)

# per-module metric -> (how it is computed, the span names it reads).
# time: summed duration of the outermost matching spans; self: summed self
# time; calls: matching spans; count: a counter in Recorder.counts.
METRICS = {
    "ring.mul_calls": ("calls", "ring.mul"),
    "ring.mul_term_pairs": ("count", "ring.mul"),
    "ring.mul_kept_frac": ("kept", "ring.mul"),
    "ring.mul_s": ("time", "ring.mul"),
    "ring.invert_unit_s": ("time", "ring.invert_unit"),
    "ring.divide_monic_s": ("time", "ring.divide_monic"),
    "ring.substitute_s": ("time", "ring.substitute"),
    "ring.peak_terms": ("count", "ring.mul"),
    "schubert.calls": ("calls", "schubert."),
    "schubert.self_s": ("self", "schubert."),
    "profiles.calls": ("calls", "profiles."),
    "profiles.self_s": ("self", "profiles."),
    "engine.compute_B_calls": ("calls", "engine.compute_B"),
    "engine.compute_B_s": ("time", "engine.compute_B"),
    "engine.self_s": ("self", "engine."),
    "systems.build_s": ("time", "systems.build"),
    "systems.emit_s": ("time", "systems.emit"),
    "systems.parse_s": ("time", "systems.parse"),
    "systems.poly_mul_calls": ("count", "systems.poly_mul"),
    "systems.terms_emitted": ("count", "systems.emit"),
    "systems.bytes_emitted": ("count", "systems.emit"),
    "solver.sample_s": ("time", "solver.sample_variety"),
    "solver.self_s": ("self", "solver."),
    "solver.linalg_s": ("time", "linalg."),
    "solver.linalg_calls": ("calls", "linalg."),
    "cli.calls": ("calls", "cli.main"),
    "cli.self_s": ("self", "cli."),
}


def _after_mul(counts, args, result) -> None:
    other = args[1]
    right = len(other.terms) if hasattr(other, "terms") else int(other != 0)
    counts["ring.mul_term_pairs"] += len(args[0].terms) * right
    if hasattr(result, "terms"):
        out = len(result.terms)
        counts["ring.mul_terms_out"] += out
        counts["ring.peak_terms"] = max(counts["ring.peak_terms"], out)


def _after_emit(counts, args, result) -> None:
    counts["systems.terms_emitted"] += sum(len(p.terms) for p in args[0].polynomials)
    counts["systems.bytes_emitted"] += len(result.encode("utf-8"))


# counters read off a spanned call's arguments and result
_AFTER = {"ring.mul": _after_mul, "systems.emit": _after_emit}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts = {
            "ring.mul_term_pairs": 0,
            "ring.mul_terms_out": 0,
            "ring.peak_terms": 0,
            "systems.poly_mul_calls": 0,
            "systems.terms_emitted": 0,
            "systems.bytes_emitted": 0,
        }
        self.installed: set[str] = set()
        self.absent: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, target in SPANNED:
            self._replace(target, name, lambda fn, name=name: self._spanned(fn, name))
        for name, target in COUNTED:
            self._replace(target, name, self._counted)

    def _replace(self, target: str, name: str, make) -> None:
        module_name, path = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if not parents:
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "bnd" or mod_name.startswith("bnd."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        self.installed.add(name)

    def _spanned(self, fn, name: str):
        spans, stack = self.spans, self.stack
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, self.op, name, 0.0, 0.0]
            spans.append(record)
            stack.append(record[0])
            record[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["systems.poly_mul_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                         "start": start, "end": end}) + "\n")

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-module metrics of the pass, and those whose targets are all absent."""
        spans = self.spans
        dur = [end - start for *_, start, end in spans]
        child = [0.0] * len(spans)
        for (_, parent, *_), d in zip(spans, dur):
            if parent >= 0:
                child[parent] += d

        def outermost(i: int, prefix: str) -> bool:
            parent = spans[i][1]
            while parent >= 0 and not spans[parent][3].startswith(prefix):
                parent = spans[parent][1]
            return parent < 0

        out, absent = {}, []
        for metric, (how, prefix) in METRICS.items():
            if not any(name.startswith(prefix) for name in self.installed):
                absent.append(metric)
            ids = [i for i, s in enumerate(spans) if s[3].startswith(prefix)]
            if how == "calls":
                out[metric] = len(ids)
            elif how == "self":
                out[metric] = sum(dur[i] - child[i] for i in ids)
            elif how == "time":
                out[metric] = sum(dur[i] for i in ids if outermost(i, prefix))
            elif how == "count":
                out[metric] = self.counts[metric]
            else:
                pairs = self.counts["ring.mul_term_pairs"]
                out[metric] = self.counts["ring.mul_terms_out"] / pairs if pairs else 0.0
        return out, absent
