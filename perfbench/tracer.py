"""Outside-in span tracer.

Functions are wrapped at the site where their callers look them up (a module
global, or an attribute on a class), so the library itself is not edited.
Spans are kept in memory; the caller takes them when a pass ends.

A span is recorded only inside an op root opened with :meth:`Tracer.op`, so
correctness checks that run between ops are never traced.  A wrapped function
called directly from a span of the same name (recursion, such as the 3x3
branch of ``expm_herm`` calling itself for the decoupled block) is not
recorded again: only the outermost call counts.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0
        self.attrs = {}

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.attrs]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._sites = []      # (owner, attr, span name, attrs fn)
        self._originals = []  # (owner, attr, original) while installed
        self.missing: list[str] = []  # registered sites the program lacks

    def site(self, owner, attr: str, name: str, attrs=None) -> None:
        """Register ``owner.attr`` to be traced as span ``name``.

        ``attrs(args, kwargs, result) -> dict`` records work counts on the
        span; it runs after the span has ended.
        """
        self._sites.append((owner, attr, name, attrs))

    def _open(self, name: str, op=None) -> Span:
        stack = self._stack
        span = Span(name, stack[-1] if stack else None,
                    self.spans[stack[0]].op if stack else op)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, original, name, attrs):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack or tracer.spans[stack[-1]].name == name:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every registered site for the duration of the block.

        A site the program no longer has is skipped and listed in
        ``missing``, so its layer reads 0 rather than failing the run.
        """
        try:
            for owner, attr, name, attrs in self._sites:
                original = vars(owner).get(attr)
                if original is None:
                    label = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, attrs))
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one benchmark op; library spans nest below it."""
        if self._stack:
            raise RuntimeError("op roots do not nest")
        span = self._open(name, op_id)
        try:
            yield span
        finally:
            self._close(span)

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[int]:
    """Span duration minus the durations of its direct children, in ns.

    Children of one parent never overlap (the benchmark is single-threaded),
    so the self times of all spans sum to the durations of the roots.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out
