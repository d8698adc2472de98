"""In-memory spans around the public functions of the lrhist modules.

A Tracer replaces every public function binding in the given modules with
a wrapper that records one span per call: name, start, end, the span that
was open when the call began (its parent) and the root span of the call
chain (its request).  Wrapping happens at every module that binds the
function, because callers look names up in their own module namespace:
`lrhist.experiment.mu_fit_batch` and `lrhist.decomp.mu_fit_batch` are two
bindings of one function, and both get a wrapper.  The span name is always
`<defining module>.<function>`, e.g. `decomp.mu_fit_batch`.

Spans stay in memory until `write` is called; `remove` restores every
binding that `install` replaced.  Single-threaded use only: the traced
calls must run in this process (jobs=1).
"""

import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int
    request: int
    name: str
    start: float
    end: float
    attrs: dict = None


class Tracer:
    def __init__(self, probes=None):
        """probes maps a span name to f(*args, **kwargs) -> dict of attrs.

        A probe runs before the span's clock starts, so its own cost is
        charged to the parent span.
        """
        self.spans = []
        self._stack = []
        self._saved = []
        self._probes = probes or {}

    def install(self, modules):
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("lrhist"):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        probe = self._probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(
                id=len(self.spans),
                parent=None if parent is None else parent.id,
                request=len(self.spans) if parent is None else parent.request,
                name=name,
                start=0.0,
                end=0.0,
                attrs=probe(*args, **kwargs) if probe else None,
            )
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans):
    """Map span id -> duration minus the part covered by its child spans.

    Children's intervals are clipped to the parent and merged before they
    are subtracted, so overlapping or out-of-bounds children never make a
    self time negative.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out
