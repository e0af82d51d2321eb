"""Layer-boundary tracing for one benchmark op, without touching agkit.

`Tracer.install()` replaces every module-level binding of each traced agkit
function with a wrapper that records a span.  Names are imported by value
(`enumerate_homs` is bound in `morphisms`, `amalgamation`, `variety` and the
package root), so every binding that holds the original function object is
swapped, and `uninstall()` puts the originals back.

A span is [name index, start, end, parent span index]; spans stay in memory
until `summary()` turns them into per-function counters and self times
(duration minus the durations of direct children) and `write_spans()` appends
them to a file.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function; metric names are
# "<module>.<attribute path>.<stat>".
TRACED = (
    ("congruence", "principal_congruence"),
    ("congruence", "congruence_lattice"),
    ("congruence", "classify"),
    ("congruence", "cep_instance"),
    ("amalgamation", "decide_amalgamation"),
    ("amalgamation", "classify_ap"),
    ("amalgamation", "applications"),
    ("terms", "holds_in"),
    ("axioms", "satisfies_axiom_system"),
    ("variety", "require_in_variety"),
    ("variety", "free_algebra"),
    ("algebra", "subuniverse_closure"),
    ("algebra", "enumerate_subalgebras"),
    ("algebra", "direct_product"),
    ("algebra", "load_algebra"),
    ("algebra", "builtin"),
    ("morphisms", "enumerate_homs"),
    ("morphisms", "enumerate_embeddings"),
    ("verify", "verify_paper"),
    ("report", "Report.to_json"),
)

# Functions whose repeated arguments within one op are counted: the
# compute-each-fact-once work targets exactly these.
REPEAT_TRACKED = frozenset({
    "congruence.congruence_lattice",
    "amalgamation.decide_amalgamation",
    "amalgamation.classify_ap",
})

EXTRA_STATS = (
    ("congruence.congruence_lattice", "repeat_ratio"),
    ("amalgamation.decide_amalgamation", "repeat_ratio"),
    ("amalgamation.classify_ap", "repeat_ratio"),
    ("terms.holds_in", "assignments"),
    ("variety.free_algebra", "elements"),
    ("morphisms.enumerate_homs", "results"),
)

NAMES = tuple(f"{module}.{path}" for module, path in TRACED)


def _scanned_assignments(args, kwargs, verdict) -> int:
    """Assignments holds_in visited: the whole space when the sentence holds,
    else up to and including the witness, which is the lexicographically
    least failing assignment (variables in name order, last one fastest)."""
    bound = dict(zip(("algebra", "sentence"), args)) | kwargs
    algebra, variables = bound["algebra"], bound["sentence"].variables()
    if verdict.holds:
        return algebra.size ** len(variables)
    index = 0
    for name in variables:
        index = index * algebra.size + verdict.witness[name]
    return index + 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._errors = defaultdict(int)
        self._repeats = defaultdict(int)
        self._seen = defaultdict(set)
        self._extra = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "agkit" or name.startswith("agkit."))]
        for index, (module_name, path) in enumerate(TRACED):
            owner = sys.modules[f"agkit.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(index, NAMES[index], original)
            if outer:  # a method: rebinding the class attribute covers every caller
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, index: int, name: str, original):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        track_repeats = name in REPEAT_TRACKED
        seen = self._seen[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if track_repeats:
                key = (args, tuple(sorted(kwargs.items())))
                try:
                    if key in seen:
                        self._repeats[name] += 1
                    else:
                        seen.add(key)
                except TypeError:  # unhashable arguments never count as repeats
                    pass
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if name == "terms.holds_in":
                self._extra[(name, "assignments")] += _scanned_assignments(args, kwargs, result)
            elif name == "variety.free_algebra":
                self._extra[(name, "elements")] += result.algebra.size
            elif name == "morphisms.enumerate_homs":
                self._extra[(name, "results")] += len(result)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, self seconds, errors, repeated-argument
        calls and the extra counters, summed over this tracer's spans."""
        child_time = [0.0] * len(self.spans)
        for name_index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "errors": self._errors[name],
                      "repeats": self._repeats[name]} for name in NAMES}
        for i, (name_index, start, end, _) in enumerate(self.spans):
            entry = out[NAMES[name_index]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
        for (name, stat), value in self._extra.items():
            out[name][stat] = value
        return out

    def write_spans(self, path: str, label: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"op": label, "names": NAMES, "spans": self.spans},
                                    separators=(",", ":")) + "\n")

