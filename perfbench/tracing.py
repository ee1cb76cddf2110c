"""Span tracer that wraps annosql's layer functions from outside the package.

A hook replaces a function on the module where its caller looks it up (for
example `harness.annotate`, the name `prepare_examples` calls), so the
program runs unmodified while the wrapper sees every call. Installing a hook
whose attribute no longer exists raises, and so does a hook that never fired:
a refactor that renames or inlines a layer function breaks the traced run
instead of reporting zero.

Spans live in memory as parallel arrays (name, parent, start, end); a span's
parent is the span that was open when it started, so the spans of one request
share the request's top-level span.
"""

import functools
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from annosql import harness, mentions, model, resolve


class TraceError(RuntimeError):
    """A hook could not be installed or never fired."""


@dataclass(frozen=True)
class Hook:
    owner: object  # module or class holding the attribute
    attr: str
    name: str  # metric prefix: the defining module and function
    count_only: bool = False  # count calls, record no span: time stays with the caller
    observe: object = None  # fn(args, kwargs) -> {counter: amount}


def _arg(args, kwargs, position, name):
    """A call's argument, passed by position or by keyword."""
    return args[position] if len(args) > position else kwargs[name]


def _src_fill(args, kwargs):
    # loss_and_grad(params, src_ids, src_mask, ...)
    mask = np.asarray(_arg(args, kwargs, 2, "src_mask"))
    return {"src_real": float(mask.sum()), "src_slots": mask.size}


def _decoder_rows(args, kwargs):
    # decoder_step(prev_ids, state, enc, params)
    return {"decoder_rows": np.asarray(_arg(args, kwargs, 0, "prev_ids")).size}


HOOKS = {
    "annotate": (
        Hook(harness, "annotate", "resolve.annotate"),
        Hook(resolve, "detect_column_mentions", "mentions.detect_column_mentions"),
        Hook(resolve, "detect_value_mentions", "mentions.detect_value_mentions"),
        Hook(mentions, "edit_closeness", "mentions.edit_closeness", count_only=True),
        Hook(mentions, "value_affinity", "mentions.value_affinity"),
        Hook(resolve, "build_match_graph", "resolve.build_match_graph"),
        Hook(resolve, "max_bipartite_matching", "resolve.max_bipartite_matching"),
        Hook(resolve, "assign_indices", "resolve.assign_indices"),
        Hook(harness, "encode_question", "encoding.encode_question"),
        Hook(harness, "align_gold_sql", "sqlgen.align_gold_sql"),
    ),
    "train": (
        Hook(model, "loss_and_grad", "model.loss_and_grad", observe=_src_fill),
        Hook(model, "encoder_forward", "model.encoder_forward"),
        Hook(model, "clip_gradients", "model.clip_gradients"),
        Hook(model.Adam, "step", "model.Adam.step"),
    ),
    "answer": (
        Hook(harness, "evaluate", "harness.evaluate"),
        Hook(harness, "translate_question", "harness.translate_question"),
        Hook(model, "beam_search", "model.beam_search"),
        Hook(model, "encoder_forward", "model.encoder_forward"),
        Hook(model, "decoder_step", "model.decoder_step", observe=_decoder_rows),
        Hook(harness, "parse_annotated_sql", "sqlgen.parse_annotated_sql"),
        Hook(harness, "resolve_symbols", "sqlgen.resolve_symbols"),
        Hook(harness, "execute", "sqlgen.execute"),
    ),
}


def self_times(parent, start, end):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            s, e = max(start[c], reach), min(end[c], hi)
            if e > s:
                covered += e - s
                reach = e
        out.append(hi - lo - covered)
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = Counter()
        self.counters = Counter()
        self._stack = [-1]

    def _open(self, name):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, hook, fn):
        name = hook.name
        if hook.count_only:

            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)

        else:
            observe = hook.observe

            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                if observe is not None:
                    self.counters.update(observe(args, kwargs))
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def installed(self, hooks):
        """Wrap every hook for the duration of the block, then check each fired."""
        saved = []
        try:
            for hook in hooks:
                try:
                    fn = getattr(hook.owner, hook.attr)
                except AttributeError as exc:
                    raise TraceError(f"cannot hook {hook.name}: {exc}") from exc
                saved.append((hook, fn))
                setattr(hook.owner, hook.attr, self._wrap(hook, fn))
            yield self
        finally:
            for hook, fn in reversed(saved):
                setattr(hook.owner, hook.attr, fn)
        silent = [h.name for h in hooks if not self.calls[h.name]]
        if silent:
            raise TraceError(f"hooked functions never called: {silent}")

    def summary(self):
        """name -> {"calls", "total_s", "self_s"} over the recorded spans."""
        out = {name: {"calls": n, "total_s": 0.0, "self_s": 0.0} for name, n in self.calls.items()}
        for i, own in enumerate(self_times(self.parent, self.start, self.end)):
            rec = out[self.names[self.name_of[i]]]
            rec["total_s"] += self.end[i] - self.start[i]
            rec["self_s"] += own
        return out
