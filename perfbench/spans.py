"""Outside-in span recording for the traced benchmark run.

:class:`SpanRecorder` replaces public functions and methods of ``repro``
with thin wrappers that time each call and, through an optional probe,
read the counters the program already keeps (``OpStats``,
``NetworkStats``, event logs).  Nothing inside ``repro`` is changed and
an untraced run installs no wrapper at all.

A span records its name, start, end, parent span and run id.  Spans stay
in memory and are written as JSONL when the run ends.  A span's self
time is its duration minus the part covered by its child spans; every
wrapped call is synchronous, so spans nest strictly even under asyncio.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    """Wraps callables, records spans and accumulates named counters."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        #: (name, start, end, parent index or -1, run id) per span.
        self.spans: list[tuple] = []
        self._self_s: list[float] = []
        #: Open spans as [index, start, seconds covered by children].
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``probe(*args, **kwargs)`` runs before the call, outside the span,
        and may return ``finish(result)``, called after the span closes.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            finish = probe(*args, **kwargs) if probe is not None else None
            entry = self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(entry, name)
            if finish is not None:
                finish(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _open(self) -> list:
        entry = [len(self.spans), time.perf_counter(), 0.0]
        # Reserve the slot so children can name their parent index.
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(("", entry[1], entry[1], parent, self.run_id))
        self._self_s.append(0.0)
        self._stack.append(entry)
        return entry

    def _close(self, entry: list, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        index, start, covered = entry
        duration = end - start
        self.spans[index] = (name, start, end, self.spans[index][3],
                             self.spans[index][4])
        self._self_s[index] = duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    # -- reading --------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def totals(self) -> dict:
        """``name -> (calls, total seconds, self seconds)``."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), self_s in zip(self.spans, self._self_s):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run,
                    "self_s": self._self_s[i],
                }) + "\n")
