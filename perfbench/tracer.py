"""Span tracer that times calls into the program's layers from outside it.

It wraps the names a calling module looks up (``engine.client_gradient`` is
the oracle as the engine sees it), records one span per call in memory, and
accumulates self time per layer metric: a span's duration minus the time its
child spans cover. Spans are written out only when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, self-time metric, call-count metric)
# The module is given by name and resolved at install time; "core.SeededRng"
# wraps a method on the class, which is where every caller looks it up.
LAYERS = (
    ("experiments", "run_experiment", "experiments.run_experiment", "experiments.sweep_self_s", None),
    ("experiments", "build_dataset", "experiments.build_dataset", "datasets.parse_s", None),
    ("experiments", "parse_libsvm", "datasets.parse_libsvm", "datasets.parse_s", None),
    ("experiments", "make_synthetic", "datasets.make_synthetic", "datasets.synthetic_s", None),
    ("experiments", "build_problem", "datasets.build_problem", "datasets.partition_s", None),
    ("datasets", "to_dense", "datasets.to_dense", "datasets.densify_s", None),
    ("datasets", "partition", "datasets.partition", "datasets.partition_s", None),
    ("experiments", "run", "engine.run", "engine.step_self_s", "experiments.runs"),
    ("experiments", "write_trace", "experiments.write_trace", "experiments.trace_write_s", None),
    ("engine", "smoothness", "problems.smoothness", "problems.smoothness_s", None),
    ("engine", "init", "engine.init", "engine.init_s", None),
    ("engine", "step", "engine.step", "engine.step_self_s", "engine.rounds"),
    ("engine", "_make_record", "engine._make_record", "engine.record_s", None),
    ("engine", "loss", "problems.loss", "problems.loss_s", None),
    ("problems", "client_loss", "problems.client_loss", "problems.loss_s", "problems.loss_calls"),
    ("engine", "client_gradient", "problems.client_gradient", "problems.gradient_s", "problems.gradient_calls"),
    ("engine", "_compress_raw", "compressors.compress", None, None),  # worker or master, see _compress_key
    ("compressors", "_top_k_indices", "compressors.top_k", "compressors.topk_s", "compressors.topk_calls"),
    ("core.SeededRng", "derive", "core.derive", "core.derive_s", "core.derive_calls"),
    ("core.SeededRng", "generator", "core.generator", "core.generator_s", "core.generator_calls"),
    ("engine", "as_vector", "core.as_vector", "core.validate_s", "core.validate_calls"),
    ("problems", "as_vector", "core.as_vector", "core.validate_s", "core.validate_calls"),
    ("compressors", "as_vector", "core.as_vector", "core.validate_s", "core.validate_calls"),
    ("engine", "mean_ascending", "core.mean_ascending", "core.aggregate_s", None),
    ("problems", "mean_ascending", "core.mean_ascending", "core.aggregate_s", None),
)

TIME_METRICS = tuple(sorted({m for *_, m, _ in LAYERS if m} | {"compressors.worker_s", "compressors.master_s"}))
COUNT_METRICS = tuple(sorted({c for *_, c in LAYERS if c} | {"compressors.worker_calls", "compressors.master_calls"}))


class Tracer:
    """Install with ``with tracer.installed(program):`` around the calls to trace.

    ``program`` maps the module names used in LAYERS to the imported modules.
    Spans of one engine run share an operation id.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # span id, parent id, name index, op id, start ns, end ns
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.trace_bytes = 0
        self.examples = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 1
        self._op = 0
        self._master_spec = None
        self._in_worker = False

    def reset_totals(self) -> None:
        self.self_ns.clear()
        self.counts.clear()
        self.trace_bytes = 0
        self.examples = 0

    def _wrap(self, fn, name: str, metric, count, before=None, after=None, metric_of=None):
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        stack, spans, self_ns, counts = self._stack, self.spans, self.self_ns, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            key, n_key = (metric, count) if metric_of is None else metric_of(args)
            if n_key is not None:
                counts[n_key] += 1
            if before is not None:
                before(args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.extend((sid, parent, name_idx, self._op, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    # Hooks for the layers that need more than a time and a count.

    def _new_op(self, args) -> None:
        self._op += 1

    def _remember_master(self, args) -> None:
        self._master_spec = args[3]  # engine.step(state, problem, worker_spec, master_spec, ...)

    def _compress_key(self, args):
        if args[0] is self._master_spec:
            return "compressors.master_s", "compressors.master_calls"
        return "compressors.worker_s", "compressors.worker_calls"

    def _count_examples(self, args, result) -> None:
        self.examples += len(result[0]) if isinstance(result, tuple) else len(result)

    def _count_bytes(self, args, result) -> None:
        self.trace_bytes += Path(args[0]).stat().st_size

    def _counting_candidates(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self._in_worker:
                counts["compressors.worker_candidates"] += 1
            return fn(*args, **kwargs)

        return counted

    def _worker_scope(self, fn):
        def scoped(*args, **kwargs):
            outer = self._in_worker
            self._in_worker = args[0] is not self._master_spec
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_worker = outer

        return scoped

    def installed(self, program: dict):
        return _Installed(self, program)

    def metrics(self, setup_factor: float = 1.0, round_factor: float = 1.0) -> dict:
        """Per-layer totals since the last reset: counts, and seconds rescaled by
        ``setup_factor`` (the datasets layer) or ``round_factor`` (every other layer)."""
        out = {
            m: self.self_ns.get(m, 0) / 1e9 * (setup_factor if m.startswith("datasets.") else round_factor)
            for m in TIME_METRICS
        }
        out.update({c: self.counts.get(c, 0) for c in COUNT_METRICS})
        worker_calls = self.counts.get("compressors.worker_calls", 0)
        out["compressors.candidates_per_call"] = (
            self.counts.get("compressors.worker_candidates", 0) / worker_calls if worker_calls else 0.0
        )
        out["datasets.examples"] = self.examples
        out["experiments.trace_bytes"] = self.trace_bytes
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span recorded so far as CSV (times in ns from an arbitrary origin)."""
        lines = ["span,parent,name,op,start_ns,end_ns"]
        s = self.spans
        for i in range(0, len(s), 6):
            lines.append(f"{s[i]},{s[i + 1]},{self.names[s[i + 2]]},{s[i + 3]},{s[i + 4]},{s[i + 5]}")
        Path(path).write_text("\n".join(lines) + "\n")


class _Installed:
    def __init__(self, tracer: Tracer, program: dict):
        self.tracer = tracer
        self.program = program
        self.saved: list[tuple[object, str, object]] = []

    def _target(self, module_name: str):
        if module_name == "core.SeededRng":
            return self.program["core"].SeededRng
        return self.program[module_name]

    def __enter__(self):
        t = self.tracer
        hooks = {
            "run": dict(before=t._new_op),
            "step": dict(before=t._remember_master),
            "_compress_raw": dict(metric_of=t._compress_key),
            "make_synthetic": dict(after=t._count_examples),
            "parse_libsvm": dict(after=t._count_examples),
            "write_trace": dict(after=t._count_bytes),
        }
        for module_name, attr, name, metric, count in LAYERS:
            target = self._target(module_name)
            original = getattr(target, attr)
            wrapped = t._wrap(original, name, metric, count, **hooks.get(attr, {}))
            if attr == "_compress_raw":
                wrapped = t._worker_scope(wrapped)
            self._swap(target, attr, original, wrapped)
        compressors = self.program["compressors"]
        original = compressors._contract_support
        self._swap(compressors, "_contract_support", original, t._counting_candidates(original))
        return t

    def _swap(self, target, attr, original, replacement) -> None:
        self.saved.append((target, attr, original))
        setattr(target, attr, replacement)

    def __exit__(self, *exc):
        for target, attr, original in reversed(self.saved):
            setattr(target, attr, original)
        self.saved.clear()
        return False
