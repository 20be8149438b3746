"""Per-layer spans for a traced benchmark run.

Each traced function is wrapped from outside, under the name its caller
looks up (``ltbe.engine.lift_poly``, not ``ltbe.lifting.lift_poly``), so
the program itself is unchanged.  A span's self time is its duration minus
the time of the traced spans it encloses.  Spans are summed in memory per
layer name and read out once per round.
"""

from __future__ import annotations

from time import perf_counter


def _cells(rel) -> int:
    return len(rel.rows) * len(rel.cols)


class Tracer:
    """Wraps the layer functions of one imported ``ltbe`` and sums their spans."""

    def __init__(self, ltbe) -> None:
        engine, lifting, semiring = ltbe.engine, ltbe.lifting, ltbe.semiring
        self._stack: list[float] = []
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        valrel = ltbe.relation.ValRel
        spans = (
            (engine, "lift_poly", "lifting.lift_poly", "cells", _cells),
            (engine, "lift_extension", "lifting.lift_extension", "cells", _cells),
            (engine, "lift_double_extension", "lifting.lift_double_extension", "cells", _cells),
            (engine, "lift_egli_milner", "lifting.lift_egli_milner", "cells", _cells),
            (lifting, "enumerate_terms", "polyfunctor.enumerate_terms", "terms", len),
            (engine, "reindex", "relation.reindex", "cells", _cells),
            (valrel, "pointwise_leq", "relation.check", None, None),
            (valrel, "max_gap", "relation.check", None, None),
            (valrel, "to_csv", "relation.to_csv", None, None),
            (ltbe, "parse_system", "system.parse", None, None),
            (ltbe, "parse_spec", "system.parse", None, None),
        )
        for owner, attr, name, count_name, count in spans:
            self.self_s.setdefault(name, 0.0)
            if count_name:
                self.counts.setdefault(f"{name}.{count_name}", 0)
            # a function a later version of the package no longer has reads as 0
            if hasattr(owner, attr):
                self._patch(owner, attr, self._span(getattr(owner, attr), name, count_name, count))
        self.counts["semiring.values_built"] = 0
        value_cls = semiring.SemiringValue
        if hasattr(value_cls, "__post_init__"):
            self._patch(value_cls, "__post_init__",
                        self._counter(value_cls.__post_init__, "semiring.values_built"))

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, fn, name, count_name, count):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        key = f"{name}.{count_name}"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[name] += elapsed - inner
            if count_name:
                counts[key] += count(result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset(self) -> None:
        for name in self.self_s:
            self.self_s[name] = 0.0
        for name in self.counts:
            self.counts[name] = 0

    def snapshot(self) -> dict[str, float]:
        """This round's totals: ``<layer>.self_ms`` and the counts."""
        out = {f"{name}.self_ms": s * 1e3 for name, s in self.self_s.items()}
        out.update(self.counts)
        return out

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
