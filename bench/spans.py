"""Spans around the harness's calls into the package.

A span is (name, start_ns, end_ns, parent, item, ok, probe).  The tracer
keeps spans in memory; `write` saves them as JSON lines when a run ends.
Self time of a span is its duration minus the part its child spans cover.
Only the harness's own calls are wrapped; nothing inside the package is
patched.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def direct(name, fn, *args):
    """The untraced `call`: no span, no bookkeeping."""
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.parent: int | None = None
        self.item = None
        self.probe = False

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        ok = False
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            self.spans.append(
                (name, start, time.perf_counter_ns(), self.parent, self.item, ok, self.probe))

    def begin_item(self, item) -> None:
        """Open an item span; the calls until `end_item` become its children."""
        self.item = item
        self.parent = len(self.spans)
        self.spans.append(None)

    def end_item(self, start_ns: int, end_ns: int, ok: bool) -> None:
        self.spans[self.parent] = ("item", start_ns, end_ns, None, self.item, ok, False)
        self.parent = None

    def layer_stats(self) -> tuple[dict, int]:
        """Per layer: calls, failed calls and busy time, outside probes; and
        the total item time."""
        out: dict = defaultdict(lambda: {"calls": 0, "failed": 0, "busy_ns": 0})
        item_ns = 0
        for name, start, end, _parent, _item, ok, probe in self.spans:
            if name == "item":
                item_ns += end - start
            elif not probe:
                layer = out[name.split(".")[0]]
                layer["calls"] += 1
                layer["failed"] += not ok
                layer["busy_ns"] += end - start
        return dict(out), item_ns

    def square_share_ns(self) -> int:
        """Time of `bundle.classify` spent in `square`, estimated per item as
        the separately timed probe `forms.square`, capped at the classify span."""
        classify, probe = {}, {}
        for name, start, end, _parent, item, _ok, is_probe in self.spans:
            if is_probe and name == "forms.square":
                probe[item] = probe.get(item, 0) + end - start
            elif name == "bundle.classify":
                classify[item] = classify.get(item, 0) + end - start
        return sum(min(probe[i], classify[i]) for i in probe if i in classify)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                if s:
                    fh.write(json.dumps(s) + "\n")
