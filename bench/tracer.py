"""In-memory span tracer that measures eprsignal's layers from outside.

Each layer is a public name (a function, or a method of a class).  The
tracer replaces that object in every ``eprsignal`` module whose global
refers to it, so every caller's lookup goes through the wrapper, and puts
the originals back on ``restore``.  Spans are kept in memory as
``[name, start, end, parent]`` and reduced once, at the end.  A name that
no longer exists is recorded in ``absent`` and its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer name, defining module, attribute path, kind).  "span" records a
# timed span; "count" only counts calls, so its time stays in the caller's
# self time.  Several attributes may share one layer name.
LAYERS = (
    ("streams.pool_mean_var", "streams", "pool_mean_var", "span"),
    ("streams.substream", "streams", "substream", "count"),
    ("signaling.monte_carlo_report", "signaling", "monte_carlo_report", "span"),
    ("signaling.exact_gap", "signaling", "exact_gap", "count"),
    ("signaling.channel_capacity", "signaling", "channel_capacity", "span"),
    ("states.rebase_alice", "states", "rebase_alice", "span"),
    ("states.conditional_ensemble", "states", "conditional_ensemble", "count"),
    ("hilbert.bloch_state", "hilbert", "bloch_state", "span"),
    ("hilbert.haar_unitary", "hilbert", "haar_unitary", "span"),
    ("observables.values", "observables", "FunctionalObservable.values", "span"),
    ("observables.counting_init", "observables",
     "CountingObservable.__post_init__", "span"),
    ("observables.polarization_reconstruct", "observables",
     "polarization_reconstruct", "span"),
    ("nosignal.affinity_scan", "nosignal", "affinity_scan", "span"),
    ("nosignal.gleason_certify", "nosignal", "gleason_certify", "span"),
    ("nosignal.basis_independence", "nosignal", "basis_independence", "span"),
    ("serialize.decode", "serialize", "scenario_from_json", "span"),
    ("serialize.decode", "serialize", "observable_from_json", "span"),
    ("serialize.encode", "serialize", "signal_report_to_json", "span"),
    ("serialize.encode", "serialize", "certificate_to_json", "span"),
    ("serialize.encode", "serialize", "channel_report_to_json", "span"),
    ("serialize.dumps_canonical", "serialize", "dumps_canonical", "span"),
)


def _first_len(args) -> int:
    try:
        return len(args[0])
    except (IndexError, TypeError):
        return 0


def _result_len(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


# Per-layer amounts recorded from a call's arguments or result:
# layer -> (counter suffix, function of (args, result)).
AMOUNTS = {
    "streams.pool_mean_var": ("partials", lambda args, result: _first_len(args)),
    "observables.values": ("rows", lambda args, result: _result_len(result)),
    # the CLI's reports are ASCII, so characters are bytes
    "serialize.dumps_canonical": (
        "bytes", lambda args, result: _result_len(result)),
}


class Tracer:
    """Wraps the LAYERS of an imported eprsignal package while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()  # calls of "count" layers
        self.amounts: Counter = Counter()  # "<layer>.<suffix>" from AMOUNTS
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, layers=LAYERS) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "eprsignal" or name.startswith("eprsignal."))
        ]
        for layer, module_name, path, kind in layers:
            owner = sys.modules.get(f"eprsignal.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(layer, kind, original)
            if owner_path:  # a method: patch it on its class
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, kind: str, fn):
        calls, amounts = self.calls, self.amounts
        amount = AMOUNTS.get(layer)

        if kind == "count":
            def counted(*args, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if amount is not None:
                amounts[f"{layer}.{amount[0]}"] += amount[1](args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds.

        Total time counts only the outermost span of a layer, so a layer that
        calls itself (a decoder decoding a nested object) is not counted
        twice.  Self time is a span's duration minus its child spans'.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["s"] += end - start
        for name, n in self.calls.items():
            out[name] = {"calls": n, "s": 0.0, "self_s": 0.0}
        return out
