"""Per-layer tracing by patching qclab's module and class attributes.

qclab's modules call each other through module attributes (`qsim.apply_unitary`,
`gf2.hash_eval`, ...) and through their own module globals, so replacing an
attribute catches both cross-module and in-module calls.  Classes are traced
by patching `__init__`, which keeps `isinstance` working.  Two call sites are
not caught because they bind the function at import time: the
`seed_factory=sample_hash_seed` default of `gf2.lhl_distance`, and the
`hoeffding_radius` name imports from `qclab._mc`.

A span records (op, name, parent span, start, end); self time is a span's
duration minus the time of the spans it directly caused.  Spans stay in
memory and are written out by `write`.  The tracer keeps one call stack, so
it must only be active while one thread runs qclab code.
"""

import functools
import importlib
import json
import time

# (metric prefix, module, attribute path, kind); "span" records spans and
# self time, "count" only counts calls
TARGETS = (
    ("qsim.apply_unitary", "qclab.qsim", "apply_unitary", "span"),
    ("qsim.PureState", "qclab.qsim", "PureState.__init__", "span"),
    ("qsim.DensityMatrix", "qclab.qsim", "DensityMatrix.__init__", "span"),
    ("qsim.partial_trace", "qclab.qsim", "partial_trace", "span"),
    ("qsim.dephase", "qclab.qsim", "dephase", "span"),
    ("qsim.project", "qclab.qsim", "project", "span"),
    ("qsim.trace_distance", "qclab.qsim", "trace_distance", "span"),
    ("owsg.state_gen", "qclab.owsg", "OwsgScheme.state_gen", "span"),
    ("puzzles.shadow_gen", "qclab.puzzles", "shadow_gen", "span"),
    ("puzzles.estimate_overlap_many", "qclab.puzzles", "estimate_overlap_many",
     "span"),
    ("puzzles.preimage_list", "qclab.puzzles", "preimage_list", "span"),
    ("puzzles.shadow_to_bytes", "qclab.puzzles", "shadow_to_bytes", "span"),
    ("puzzles.shadow_from_bytes", "qclab.puzzles", "shadow_from_bytes", "span"),
    ("gf2.hash_eval", "qclab.gf2", "hash_eval", "span"),
    ("gf2.hash_eval_batch", "qclab.gf2", "hash_eval_batch", "span"),
    ("gf2.inner_product", "qclab.gf2", "inner_product", "count"),
    ("gf2.sample_hash_seed", "qclab.gf2", "sample_hash_seed", "count"),
    ("gf2.gl_decode", "qclab.gf2", "gl_decode", "span"),
    ("gf2.extractor_distance", "qclab.gf2", "extractor_distance", "span"),
    ("efi.distance_sweep", "qclab.efi", "distance_sweep", "span"),
    ("efi.hash_truncation_sd", "qclab.efi", "hash_truncation_sd", "span"),
    ("pseudoentropy.wpeg_entropy_gap", "qclab.pseudoentropy",
     "wpeg_entropy_gap", "span"),
    ("pseudoentropy.slice_analysis", "qclab.pseudoentropy", "slice_analysis",
     "span"),
    ("dist.Pmf", "qclab.dist", "Pmf.__init__", "span"),
    ("dist.product_spectrum", "qclab.dist", "product_spectrum", "span"),
    ("dist.smooth_min_entropy_spectrum", "qclab.dist",
     "smooth_min_entropy_spectrum", "span"),
    ("commit.xor_combine", "qclab.commit", "xor_combine", "span"),
    ("commit.binding_states", "qclab.commit", "binding_states", "span"),
    ("commit.hiding_advantage", "qclab.commit", "hiding_advantage", "span"),
    ("commit.decommit_probability", "qclab.commit", "decommit_probability",
     "span"),
    ("cli.main", "qclab.cli", "main", "span"),
)

# gate applications whose array traffic is computed from argument sizes
_BYTES_OF = {"qsim.apply_unitary"}

SPAN_LOG_CAP = 200_000


def _array_bytes(args):
    """Bytes `apply_unitary(state, u, targets)` reads and writes: the state
    in and out, and the gate once."""
    state, gate = (tuple(args[:2]) + (None, None))[:2]
    arr = getattr(state, "vector", None)
    if arr is None:
        arr = getattr(state, "matrix", None)
    return 2 * getattr(arr, "nbytes", 0) + getattr(gate, "nbytes", 0)


class Tracer:
    """Call counts, self time and computed bytes per traced name."""

    def __init__(self):
        self.calls = {name: 0 for name, _, _, _ in TARGETS}
        self.self_s = {name: 0.0 for name, _, _, kind in TARGETS
                       if kind == "span"}
        self.bytes = {name: 0 for name in _BYTES_OF}
        self.spans = []
        self.dropped = 0
        self.active = False
        self._stack = []
        self._op = -1
        self._top_s = 0.0
        self._origin = time.perf_counter()
        self._saved = []

    def install(self):
        for name, module, path, kind in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            wrap = self._span if kind == "span" else self._count
            setattr(owner, attr, wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def begin_op(self, i):
        self._op = i
        self._top_s = 0.0
        self.active = True

    def end_op(self):
        """Stop tracing and return the time top-level spans covered."""
        self.active = False
        return self._top_s

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        bytes_of = name in _BYTES_OF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if bytes_of:
                self.bytes[name] += _array_bytes(args)
            if len(spans) < SPAN_LOG_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                self.dropped += 1
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                took = end - start
                self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                else:
                    self._top_s += took
                if index >= 0:
                    spans[index] = (self._op, name, parent,
                                    start - self._origin, end - self._origin)

        return traced

    def write(self, path, header):
        """Write a header line, then one JSON array per span:
        [op, name, parent span index or -1, start s, end s]."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans),
                                     spans_dropped=self.dropped)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
