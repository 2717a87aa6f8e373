"""Spans recorded from outside the program, around calls into its layers.

The traced run wraps public functions and methods of ``repro`` in this
process (``Tracer.wrap``) instead of instrumenting ``src/``: each call
becomes a span with a name, start, end, parent span and the id of the
request it belongs to.  Spans stay in memory and are written out as JSONL
when the run ends.  A layer's self time is its span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Install timing wrappers, collect spans, derive per-layer times."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.active = False
        #: Id of the request the spans now being recorded belong to.
        self.request: Optional[int] = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (until :meth:`unwrap_all`).

        ``tag`` maps the call's return value to an attribute stored on the
        span (for example the tier an instantiation was answered from).
        """
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            value = None
            try:
                result = original(*args, **kwargs)
                if tag is not None:
                    value = tag(result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "request": tracer.request,
                        "tag": value,
                    }
                )

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, owned))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def self_times_ns(self) -> Dict[int, int]:
        """Span id -> duration minus the time its child spans cover."""
        child_time: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end_ns"] - span["start_ns"]
        return {
            span["id"]: span["end_ns"] - span["start_ns"] - child_time[span["id"]]
            for span in self.spans
        }

    def durations_ns(self, name: str, tag: Any = None) -> List[int]:
        """Durations of every span called ``name`` (optionally with ``tag``)."""
        return [
            span["end_ns"] - span["start_ns"]
            for span in self.spans
            if span["name"] == name and (tag is None or span["tag"] == tag)
        ]

    def tags(self, name: str) -> List[Any]:
        """The ``tag`` of every span called ``name``."""
        return [span["tag"] for span in self.spans if span["name"] == name]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")
