"""Spans around calls into the package, and the self-time arithmetic over them.

A traced child patches the package's public functions with wrappers that
record one span per call: its name, start, end and the span that was open
when it began (its parent).  Spans are kept in flat arrays so that the
hundreds of thousands a census run makes stay small, and are written out
when the job ends.  A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

import json
import sys
import time
from array import array
from pathlib import Path


class Recorder:
    """Collects spans in memory; one recorder per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped to record a span; observe(args, result) sees each call."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def write(self, path: Path) -> None:
        """Write a JSON header and the four span arrays in native binary form."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["name_id:i", "start:d", "end:d", "parent:i"],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)


def patch(recorder: Recorder, targets, modules) -> list[str]:
    """Replace each target function by a recording wrapper, everywhere it is bound.

    A target is (module, attribute, span name, observe).  The attribute is
    either a module-level function or "Class.method".  A function imported
    by name into other modules is replaced in every module of `modules`
    that holds it.  Targets the package no longer has are skipped and
    returned.
    """
    missing = []
    for module, attr, name, observe in targets:
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, method, None)
        if original is None:
            missing.append(name)
            continue
        wrapper = recorder.wrap(name, original, observe)
        if owner_name:
            setattr(owner, method, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return missing


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: duration minus the union of its children's intervals.

    The spans are given as parallel sequences; parent is -1 for a root.
    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    covered = [0.0] * len(start)
    reach = list(start)
    for i in sorted(range(len(start)), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [e - s - c for s, e, c in zip(start, end, covered)]


def summarize(recorder: Recorder, wall: float) -> dict:
    """Per-name and per-layer totals of a recorder's spans over a job of `wall` seconds.

    A layer is the part of a span name before its first dot.  Returns
    calls, self time and longest duration per name, calls per
    (name, parent name), self time per layer, and the unspanned time:
    the job's wall time not covered by any root span.
    """
    names, name_id, start, end, parent = (
        recorder.names, recorder.name_id, recorder.start, recorder.end, recorder.parent
    )
    selfs = self_times(start, end, parent)
    by_name = {name: {"calls": 0, "self_s": 0.0, "max_s": 0.0} for name in names}
    layers: dict[str, float] = {}
    calls_from: dict[tuple[str, str], int] = {}
    rooted = 0.0
    for nid, s, e, p, own in zip(name_id, start, end, parent, selfs):
        name = names[nid]
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["max_s"] = max(entry["max_s"], e - s)
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
        key = (name, names[name_id[p]] if p >= 0 else "")
        calls_from[key] = calls_from.get(key, 0) + 1
        if p < 0:
            rooted += e - s
    return {
        "by_name": by_name,
        "layers": layers,
        "calls_from": calls_from,
        "unspanned_s": wall - rooted,
    }
