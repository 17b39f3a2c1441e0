"""Outside-in tracing: spans around the calls into each layer.

The traced run wraps the public calls listed in :data:`LAYER_CALLS` at
the place their callers resolve them (a class attribute for methods, the
calling module's namespace for functions imported by name), records a
span per call (name, start, end, parent) in memory, and writes the spans
out at the end. Nothing inside the program changes.

A layer's busy time is the *self* time of its spans: a span's duration
less the part its child spans cover. A traceroute issued by the
background prober is therefore traceroute time, not background time.
A call that re-enters a layer already on the stack (``assign_batch``
calling ``assign_batch_columnar``) is not a new span. Calls made in a
process other than the tracer's (forked pool workers) are not traced;
the sharded workload reads the workers' own ``repro.obs`` spans instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import time
from collections import Counter
from typing import Callable


#: (layer, module, class or None for a module-level name, attribute,
#: count hook). A count hook ``(counts, args, result)`` adds the call's
#: work to the layer's counters.
LAYER_CALLS: list[tuple[str, str, str | None, str, Callable | None]] = [
    ("generation", "repro.perf.batch", "BatchQuartetGenerator", "generate",
     lambda c, a, r: c.update({"generation.quartets": len(r)})),
    ("ingest", "repro.serve.source", "JsonlSource", "next_batch",
     lambda c, a, r: c.update({"ingest.rows": len(r)})),
    ("sanitize", "repro.core.pipeline", None, "sanitize_batch",
     lambda c, a, r: c.update({"ingest.dropped": len(a[0]) - len(r)})),
    ("learning", "repro.core.thresholds", "ExpectedRTTLearner", "observe_batch",
     lambda c, a, r: c.update({"learning.quartets": len(a[1])})),
    ("learning.table", "repro.core.thresholds", "ExpectedRTTLearner", "table",
     lambda c, a, r: c.update({"learning.tables": 1})),
    ("fold", "repro.core.prediction", "ClientCountPredictor", "observe_bucket",
     lambda c, a, r: c.update({"fold.pairs": len(a[1])})),
    ("fold", "repro.core.background", "BackgroundProber", "register_target", None),
    ("passive", "repro.core.passive", "PassiveLocalizer", "assign_batch",
     lambda c, a, r: c.update({"passive.quartets": len(a[1]),
                               "passive.bad": len(r)})),
    ("passive", "repro.core.passive", "PassiveLocalizer", "assign_batch_columnar",
     lambda c, a, r: c.update({"passive.quartets": len(a[1]),
                               "passive.bad": len(r)})),
    ("background", "repro.core.background", "BackgroundProber", "run_bucket", None),
    ("background", "repro.core.background", "BackgroundProber", "on_bgp_update", None),
    ("background", "repro.core.background", "BackgroundProber", "seed_target", None),
    ("tracking", "repro.core.active", "IssueTracker", "update", None),
    ("probing", "repro.core.active", "OnDemandProber", "probe_window", None),
    ("localization", "repro.core.pipeline", None, "localize_culprit", None),
    ("traceroute", "repro.cloud.traceroute", "TracerouteEngine", "issue",
     lambda c, a, r: c.update({"traceroute.probes": 1})),
    ("store", "repro.store.checkpoint", "CheckpointStore", "save",
     lambda c, a, r: c.update({"store.saves": 1})),
    ("store.archive", "repro.store.checkpoint", "CheckpointStore", "append_archive",
     None),
]


class Tracer:
    """Records spans around wrapped calls; undo with :meth:`uninstall`.

    Spans are ``[name, start, end, parent]`` lists in the order their
    calls were made; ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open_layers: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- wrapping --------------------------------------------------------

    def install(self, calls=LAYER_CALLS) -> "Tracer":
        for layer, module_name, class_name, attr, count in calls:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self.wrap(owner, attr, layer, count)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        original = getattr(owner, attr)
        name = f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._open_layers[layer] or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            index = tracer._open(name)
            tracer._open_layers[layer] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._open_layers[layer] -= 1
                tracer._close(index)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- results ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer (a span's duration less its children's)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        busy: Counter = Counter()
        for (name, start, end, _), covered in zip(spans, child):
            busy[name.split(":", 1)[0]] += (end - start) - covered
        return dict(busy)

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: pathlib.Path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
