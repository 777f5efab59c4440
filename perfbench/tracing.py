"""Spans and call counts taken from outside icofold.

Nothing in `src/` is changed.  A `Tracer` replaces public functions with
wrappers at every module attribute (and class attribute) that holds them,
so calls made through re-imported names -- `onion.generate_array`,
`engine.norm2`, the helpers `cages.detect_cage` reaches through the
`cages` globals -- are caught too.  Spans (name, start, end, parent) stay
in memory until the run ends.  Counting is a separate mode: it patches the
field-arithmetic operators and `norm2`, which are called millions of
times, so their per-call cost never lands inside a span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _generate_array_hook(counts, args, kwargs, result):
    from icofold import engine
    start, translation = args[0], args[1]
    depth = args[2] if len(args) > 2 else kwargs.get("depth", 1)
    counts["engine.candidate_points"] += engine.generic_cardinality(
        start, translation, depth)
    counts["engine.points"] += len(result)


def _threshold_hook(counts, args, kwargs, result):
    n = len(args[0])
    counts["cages.trivalence_threshold_search.points"] += n
    # N x N x 3 float64 differences plus the N x N float64 squared distances
    counts["cages.trivalence_threshold_search.pair_bytes"] += 32 * n * n
    counts["cages.trivalence_threshold_search.hits"] += result is not None


def _census_hook(counts, args, kwargs, result):
    counts["cages.face_census.faces"] += len(result.faces)


def _onion_hook(counts, args, kwargs, result):
    counts["onion.members"] += len(result.family)


# (span name, module, attribute); "Class.method" names a method.
SPAN_TARGETS = (
    ("engine.make_translation", "engine", "make_translation"),
    ("engine.classify_length", "engine", "classify_length"),
    ("engine.generate_array", "engine", "generate_array"),
    ("engine.build_shells", "engine", "build_shells"),
    ("engine.bands", "engine", "bands"),
    ("engine.outer_cage", "engine", "outer_cage"),
    ("cages.detect_cage", "cages", "detect_cage"),
    ("cages.trivalence_threshold_search", "cages",
     "trivalence_threshold_search"),
    ("cages.as_coords", "cages", "as_coords"),
    ("cages.face_census", "cages", "face_census"),
    ("cages.pentagon_contact_signature", "cages",
     "pentagon_contact_signature"),
    ("onion.build_onion", "onion", "build_onion"),
    ("groups.full_group", "groups", "full_group"),
    ("groups.orbit", "groups", "PointGroup.orbit"),
    ("groups.stabilizer_order", "groups", "PointGroup.stabilizer_order"),
    ("geometry.mat_apply", "geometry", "mat_apply"),
    ("configs.builtin", "configs", "builtin"),
)

SPAN_HOOKS = {
    "engine.generate_array": _generate_array_hook,
    "cages.trivalence_threshold_search": _threshold_hook,
    "cages.face_census": _census_hook,
    "onion.build_onion": _onion_hook,
}

# __radd__/__rmul__ are the same functions as __add__/__mul__ and are
# patched with them, so every addition and product is counted.
COUNT_TARGETS = (
    ("golden.gold_add", "golden", "GoldenNumber.__add__"),
    ("golden.gold_mul", "golden", "GoldenNumber.__mul__"),
    ("golden.ext_add", "golden", "ExtNumber.__add__"),
    ("golden.ext_mul", "golden", "ExtNumber.__mul__"),
    ("geometry.norm2", "geometry", "norm2"),
)


def _resolve(module_name: str, attr: str):
    """(owner, name, original) for `attr` on an icofold module, or None."""
    owner = sys.modules[f"icofold.{module_name}"]
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


class Tracer:
    """Installs span or counting wrappers and keeps what they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _span_wrapper(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name, fn, hook):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _install(self, targets, make_wrapper) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "icofold" or key.startswith("icofold.")]
        for span_name, module_name, attr in targets:
            found = _resolve(module_name, attr)
            if found is None:
                if f"icofold.{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"icofold.{module_name}.{attr}")
                continue
            owner, _, original = found
            wrapper = make_wrapper(span_name, original,
                                   SPAN_HOOKS.get(span_name))
            for namespace in [owner, *modules]:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, key, original))
                        setattr(namespace, key, wrapper)

    def install_spans(self) -> None:
        self._install(SPAN_TARGETS, self._span_wrapper)

    def install_counts(self) -> None:
        self._install(COUNT_TARGETS, self._count_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            setattr(namespace, key, original)

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts so far and start afresh."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return totals


def count_within(spans, name: str, ancestor: str) -> int:
    """How many spans called `name` run inside a span called `ancestor`."""
    found = 0
    for span_name, _, _, parent in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        found += parent >= 0
    return found


def top_level_seconds(spans) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)
