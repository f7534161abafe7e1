"""Span recorder for the traced run.

``install`` wraps the public functions and public methods of every dualpart
module, from outside the package: each wrapper replaces the original in
every module namespace that holds it (``cli`` binds ``DualityContext`` and
``induce_CO`` by name, for instance), and methods are replaced on their
class, so every caller reaches the wrapper however it looks the name up.

A span is (name, start_ns, end_ns, parent, op_id), kept in memory per
operation.  ``end_op`` folds an operation's spans into self times (span
duration minus the durations of its direct children; one thread, so
children never overlap) and work counts.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

# Called so often that a span each would distort the run; they are counted.
COUNT_ONLY = {"exactarith.CycInt.__init__": "exactarith.cycint_built"}

# Wrapped with spans although they are dunder methods.
SPAN_DUNDERS = {"partitions.DualityContext.__init__"}


def _after_context(rec, args, result):
    rec.pair_table_bytes = max(rec.pair_table_bytes, args[0].exponents.nbytes)


def _after_residue_matrix(rec, args, result):
    rec.counts["groups.elements"] += result.shape[0]


def _after_dual(rec, args, result):
    if result.labels is not None:
        rec.counts["partitions.labels_built"] += len(result.labels) * args[1].num_classes


def _after_inv_enumerate(rec, args, result):
    rec.counts["macwilliams.inv_maps"] += len(result)


AFTER = {
    "partitions.DualityContext.__init__": _after_context,
    "groups.GroupProduct.residue_matrix": _after_residue_matrix,
    "partitions.DualityContext.left_dual": _after_dual,
    "partitions.DualityContext.right_dual": _after_dual,
    "macwilliams.inv_enumerate": _after_inv_enumerate,
}

# Generator functions: their bodies run in the consumer, so they get no
# span; the items they yield are counted under this name.
ITEM_COUNTS = {"macwilliams.subspace_rref_bases": "macwilliams.subspaces"}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.counts = collections.Counter()
        self.pair_table_bytes = 0

    def begin_op(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.pair_table_bytes = 0

    def end_op(self):
        """Self time (ns) and calls per span name, plus work counts."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = collections.Counter()
        calls = collections.Counter()
        top_ns = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                top_ns += end - start
        return {
            "self_ns": self_ns,
            "calls": calls,
            "top_ns": top_ns,
            "counts": self.counts,
            "pair_table_bytes": self.pair_table_bytes,
            "spans": self.spans,
        }

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn):
        after = AFTER.get(name)
        clock = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = rec.spans, rec.stack  # rebound by begin_op
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, rec.op_id)
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def counter(self, key, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def item_counter(self, key, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                rec.counts[key] += 1
                yield item

        return wrapper

    def wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self.counter(COUNT_ONLY[name], fn)
        if inspect.isgeneratorfunction(fn):
            return self.item_counter(ITEM_COUNTS.get(name, name + ".items"), fn)
        return self.span(name, fn)


def package_modules(package="dualpart"):
    return [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]


def install(rec, modules):
    """Wrap every public callable of the given modules; returns a function
    that puts the originals back."""
    undo = []
    for mod in modules:
        short = mod.__name__.split(".")[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = rec.wrap(f"{short}.{attr}", obj)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, name, wrapper)
                            undo.append((other, name, obj))
            elif inspect.isclass(obj):
                for name, member in list(vars(obj).items()):
                    full = f"{short}.{obj.__name__}.{name}"
                    if name.startswith("_") and full not in COUNT_ONLY and full not in SPAN_DUNDERS:
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        wrapped = type(member)(rec.wrap(full, member.__func__))
                    elif inspect.isfunction(member):
                        wrapped = rec.wrap(full, member)
                    else:
                        continue  # properties and data
                    setattr(obj, name, wrapped)
                    undo.append((obj, name, member))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore
