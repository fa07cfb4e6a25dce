"""Outside-in tracer for cdf_lab.

Wraps, from outside the package, the public functions of the modules named
in ``MODULES``, the checks that ``verify.run_full_audit`` bound at import
(``verify._CHECKS``), and a model's callables (via ``dataclasses.replace``
on the frozen ``CdfModel``).  Each wrapped call is a span.  Per span name
the tracer aggregates calls, self time (duration minus the time covered by
child spans) and inclusive time.  Spans of the first recorded operation
stay in memory and are written out by the caller at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
from time import perf_counter

MODULES = ("core", "solver", "diagnostics", "verify", "cli")

MODEL_CALLABLES = ("flux", "entropy", "entropy_grad", "dissipation_matrix",
                   "admissible", "max_wave_speed", "source_decay_rates",
                   "source_fn", "from_sample", "derived")


class Tracer:
    """Span recorder; `install` patches cdf_lab, `uninstall` restores it."""

    def __init__(self):
        self._patches = []
        self.spans = []      # (span id, parent id, name, start, end)
        self.reset(record_spans=False)

    def reset(self, record_spans: bool) -> None:
        """Clear the aggregates of the previous operation; keep its spans
        and add this operation's only if `record_spans`."""
        self.stats = {}      # name -> [calls, self seconds, inclusive seconds]
        self.counters = {}
        self.record_spans = record_spans
        self._stack = []     # open spans: [span id, seconds in children]
        self._open = {}      # name -> how many spans of that name are open
        self._next_id = 0

    def wrap(self, name: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = tracer
            if name == "solver.step_source_exact":
                field_arr = args[1] if len(args) > 1 else kwargs["field_arr"]
                t._count("solver.source_rows",
                         field_arr.size // field_arr.shape[-1])
            elif name == "core.fd_jacobian" \
                    and t._open.get("solver.step_source_exact"):
                # FD Jacobians under the source step are Newton iterations
                t._count("solver.newton_iters", 1)
            depth = t._open.get(name, 0)
            t._open[name] = depth + 1
            frame = [t._next_id, 0.0]
            t._next_id += 1
            t._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                t._stack.pop()
                t._open[name] = depth
                elapsed = end - start
                agg = t.stats.get(name)
                if agg is None:
                    agg = t.stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed - frame[1]
                if depth == 0:
                    agg[2] += elapsed
                parent = -1
                if t._stack:
                    t._stack[-1][1] += elapsed
                    parent = t._stack[-1][0]
                if t.record_spans:
                    t.spans.append((frame[0], parent, name, start, end))
            return result if post is None else post(result)

        return traced

    def _count(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def wrap_model(self, model):
        """Copy of `model` whose callables are spans '<layer>.<field>'."""
        layer = model.name.split("-")[0]
        changes = {f: self.wrap(f"{layer}.{f}", getattr(model, f))
                   for f in MODEL_CALLABLES if getattr(model, f) is not None}
        return dataclasses.replace(model, **changes)

    def install(self) -> None:
        import cdf_lab
        from cdf_lab import verify

        check_names = {fn: f"verify.{key}"
                       for key, fn in verify._CHECKS.items()}
        for short in MODULES:
            module = getattr(cdf_lab, short)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = check_names.get(fn, f"{short}.{attr}")
                post = self.wrap_model if name == "cli.build_model" else None
                self._patch(module, attr, self.wrap(name, fn, post))
        for key, fn in list(verify._CHECKS.items()):
            self._patch(verify._CHECKS, key, self.wrap(check_names[fn], fn))

    def _patch(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def uninstall(self) -> None:
        while self._patches:
            target, key, old = self._patches.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
