"""Spans and counters recorded from outside the program.

`Tracer.installed()` replaces public functions of the phonolm modules with
wrappers that open a span (key, start, end, parent, root) around each call and
add work counts to the enclosing root. Nothing inside the program changes;
leaving the context restores every original binding, so untraced rounds run
the unmodified code.

A layer's self time is the sum over its spans of duration minus the time
covered by child spans. Within one root the self times of all keys add up to
the root's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

from phonolm import checkpoint
from phonolm import cli
from phonolm import evaluation as ev
from phonolm import model as md
from phonolm import numerics as nm
from phonolm import pipeline as pl
from phonolm import quantizer as qz
from phonolm import tokenworld as tw

# numerics ops timed one by one; the shape plumbing shares one bucket
_OP_GROUPS = {
    "matmul": "matmul",
    "softmax_rows": "softmax_rows",
    "layer_norm": "layer_norm",
    "gelu": "gelu",
    "embedding": "embedding",
    "dropout": "dropout",
    "narrow": "shape_ops",
    "concat": "shape_ops",
    "pad_stack": "shape_ops",
    "reshape": "shape_ops",
    "transpose": "shape_ops",
    "gather_rows": "shape_ops",
    "sum_axis": "shape_ops",
}


@contextlib.contextmanager
def patched(module, attr: str, wrapper):
    """Bind `module.attr` to `wrapper` for the duration of the block, then
    restore the original binding."""
    original = getattr(module, attr)
    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _batch_positions(lengths) -> tuple:
    """(real positions, padded B x T positions) of one batched forward."""
    return sum(lengths), len(lengths) * max(lengths)


def _ar_lengths(items) -> list:
    return [len(ph) + 1 + len(prompt) + len(target) for ph, prompt, target in items]


def _nar_lengths(items) -> list:
    return [len(ph) + 1 + len(pc) + len(tb) for ph, _, pc, tb, _ in items]


class Tracer:
    def __init__(self):
        self.spans = []  # [key, start, end, parent index, root index]
        self.counts = defaultdict(lambda: defaultdict(float))  # root index -> name -> value
        self._stack = []

    # -- spans --------------------------------------------------------------

    def _enter(self, key: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][4] if parent is not None else idx
        self.spans.append([key, time.perf_counter(), 0.0, parent, root])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a top-level span; wrapped calls record only inside one."""
        if self._stack:
            raise RuntimeError("roots do not nest")
        idx = self._enter(name)
        try:
            yield idx
        finally:
            self._exit(idx)

    def parent_key(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        if self._stack:
            self.counts[self.spans[self._stack[0]][4]][name] += value

    # -- aggregation --------------------------------------------------------

    def self_times(self, root: int) -> dict:
        """key -> self time (s) of every span under `root`, the root included."""
        child = defaultdict(float)
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == root]
        for _, (key, start, end, parent, _) in spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (key, start, end, _, _) in spans:
            out[key] += (end - start) - child[i]
        return dict(out)

    def duration(self, root: int) -> float:
        return self.spans[root][2] - self.spans[root][1]

    def dump(self) -> list:
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": k, "start": s - t0, "end": e - t0, "parent": p, "root": r}
            for k, s, e, p, r in self.spans
        ]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, key, after=None):
        """`key` is a name or a callable(tracer) -> name; `after(args, kwargs,
        result)` adds counts once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._enter(key if isinstance(key, str) else key(tracer))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _targets(self) -> list:
        """(module, attribute, key, after) for every wrapped public function."""
        c = self.count

        def calls(name):
            return lambda a, k, r: c(name)

        def fit_key(tr):
            # rvq_fit calls kmeans_fit through the module global, so its
            # per-layer fits land under the rvq key
            return "quantizer.rvq_fit" if tr.parent_key() == "quantizer.rvq_fit" else "quantizer.phonetic_fit"

        def lloyd(a, k, book):
            c("quantizer.lloyd_rounds", book.iterations_run)

        def frames(a, k, r):
            c("quantizer.assign_frames", len(a[0]))

        def batch(prefix, lengths_of):
            def after(a, k, r):
                real, padded = _batch_positions(lengths_of(a[1]))
                c(f"{prefix}_logits_calls")
                c(f"{prefix}_positions", padded)
                c("model.real_positions", real)
            return after

        def tape_records(a, k, r):
            c("numerics.backward_calls")
            c("numerics.tape_records", len(a[1]))

        def trained(a, k, r):
            c("pipeline.train_steps", len(r[1]))

        def synthesized(a, k, results):
            c("pipeline.synth_tokens", sum(res.generated_length for res in results))
            c("pipeline.synth_frames", sum(res.codes.shape[0] for res in results))

        def file_bytes(a, k, r):
            c("checkpoint.bytes", os.path.getsize(a[0]))

        targets = [
            (cli, "main", "cli.self", None),
            (tw, "build_corpus", "tokenworld.build_corpus", None),
            (tw, "load_corpus", "tokenworld.load_corpus", calls("tokenworld.load_corpus_calls")),
            (qz, "kmeans_fit", fit_key, lloyd),
            (qz, "rvq_fit", "quantizer.rvq_fit", None),
            (qz, "kmeans_assign", "quantizer.assign", frames),
            (qz, "rvq_encode", "quantizer.assign", frames),
            (checkpoint, "save_tensors", "checkpoint.save", file_bytes),
            (checkpoint, "load_tensors", "checkpoint.load", file_bytes),
            (pl, "tokenize_utterances", "pipeline.tokenize", calls("pipeline.tokenize_calls")),
            (pl, "train_mode", "pipeline.train", trained),
            (pl, "synthesize_many", "pipeline.synthesize", synthesized),
            # pipeline binds these by name at import time
            (pl, "backward", "numerics.backward", tape_records),
            (pl, "adam_step", "numerics.adam_step", None),
            (pl, "clip_grad_norm", "numerics.clip_grad_norm", None),
            (md, "ar_batch_logits", "model.ar_logits", batch("model.ar", _ar_lengths)),
            (md, "nar_batch_logits", "model.nar_logits", batch("model.nar", _nar_lengths)),
            (md, "ar_sample_next", "model.sample", calls("model.sampled_tokens")),
            (ev, "evaluate_system", "evaluation.score", None),
        ]
        for op, bucket in _OP_GROUPS.items():
            targets.append((nm, op, f"numerics.{bucket}", calls(f"numerics.{bucket}_calls")))
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        with contextlib.ExitStack() as stack:
            for module, attr, key, after in self._targets():
                stack.enter_context(patched(module, attr, self.wrap(getattr(module, attr), key, after)))
            yield self
