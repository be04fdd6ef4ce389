"""Spans around nonshare's public calls and the numpy/scipy calls they make.

The tracer patches module attributes from the outside and restores them on
`uninstall`, so untraced rounds run the program unchanged. A span records
name, start, end, its parent span and a tag inherited from the nearest
tagged ancestor (the extension class of an LP instance, for example). Hot
numpy/scipy entry points inside a span are not spans of their own: each call
adds to a (calls, seconds) counter on the innermost open span, which keeps
the cost per call near one microsecond. Spans are kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    tag: str | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time inside direct child spans and counted calls
    counters: dict[str, list] = field(default_factory=dict)  # key -> [calls, seconds]
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def count(self, key: str) -> tuple[int, float]:
        calls, seconds = self.counters.get(key, (0, 0.0))
        return calls, seconds


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []  # (owner, attr, original, wrapper)

    # -- recording -------------------------------------------------------

    def _open(self, name: str, tag: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if tag is None and parent is not None:
            tag = parent.tag
        span = Span(len(self.spans), name, parent.ident if parent else None, tag, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    def spanned(self, name: str, fn: Callable,
                tag: Callable[..., str | None] | None = None,
                after: Callable[..., None] | None = None) -> Callable:
        """Wrap fn in a span; `tag(*args, **kw)` names the span's tag and
        `after(span, result, *args, **kw)` records attributes of the result."""

        def wrapper(*args, **kwargs):
            span = self._open(name, tag(*args, **kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable,
                after: Callable[..., None] | None = None) -> Callable:
        """Wrap a hot call: add its calls and time to the innermost span."""

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            if self._stack:
                span = self._stack[-1]
                entry = span.counters.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                span.child_s += elapsed
                if after is not None:
                    after(span, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Register `owner.attr = make(original)`, applied by `install`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, make(original)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one round."""
        return len(self.spans)

    def attributed_s(self, since: int) -> float:
        """Time inside top-level spans opened since the mark."""
        return sum(s.duration for s in self.spans[since:] if s.parent is None)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.ident, "name": s.name, "parent": s.parent, "tag": s.tag,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "counters": s.counters, "attrs": s.attrs,
                }) + "\n")
