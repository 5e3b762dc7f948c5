"""Per-layer tracing from outside the program.

:class:`Ledger` wraps public entry points of the ``repro`` layers
(``netsim``, ``sdn``, ``mboxes``, ``core``, ``policy``, ``obs``) with
span-recording, call-counting wrappers, and restores the originals on
exit.  Nothing under ``src/`` changes: the wrappers are installed on the
classes for the duration of a traced run only, before the deployment is
built, so bound methods captured at schedule time go through them too.

Spans are kept in flat arrays (name, start, end, parent) until the
ledger is folded; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence


@dataclass(frozen=True)
class Hook:
    """One wrapped method.

    ``target`` is ``"module:Class.method"``.  ``span`` names the self-time
    metric the call's time lands in (None: count only).  ``count`` names
    the call counter, advanced by ``weight(args)`` (default 1).  ``peak``
    names a high-water mark of ``peak_of(args)`` read after each call.
    """

    target: str
    span: str | None = None
    count: str | None = None
    weight: Callable[[tuple], int] | None = None
    peak: str | None = None
    peak_of: Callable[[tuple], int] | None = None


def _batch_size(args: tuple) -> int:
    return len(args[1])


def _queue_depth(args: tuple) -> int:
    return args[0].depth()


#: The layer boundaries the traced run records.
HOOKS: tuple[Hook, ...] = (
    # netsim: the event loop, packet delivery, link transmission
    Hook("repro.netsim.simulator:Simulator.run", span="netsim.run_self_ms"),
    Hook("repro.netsim.node:Node.receive", span="netsim.receive_self_ms"),
    Hook("repro.netsim.switch:Switch.on_packet", span="netsim.receive_self_ms"),
    Hook("repro.netsim.link:Link.transmit", span="netsim.transmit_self_ms"),
    Hook("repro.netsim.switch:Switch.lookup", count="netsim.switch.lookups"),
    # sdn: flow-table writes, two-phase epochs, the control channel
    Hook("repro.netsim.switch:Switch.install", span="sdn.install_self_ms",
         count="sdn.flow_installs"),
    Hook("repro.netsim.switch:Switch.install_many", span="sdn.install_self_ms",
         count="sdn.flow_installs", weight=_batch_size),
    Hook("repro.sdn.consistency:ConsistentUpdater.push_two_phase",
         span="sdn.epoch_self_ms"),
    Hook("repro.sdn.channel:ControlChannel.send", span="sdn.channel_self_ms",
         count="sdn.channel_msgs"),
    # mboxes: the cluster data path and µmbox lifecycle
    Hook("repro.mboxes.base:MboxHost.on_packet", span="mboxes.self_ms",
         count="mboxes.packets"),
    Hook("repro.mboxes.base:Mbox.process", span="mboxes.self_ms"),
    Hook("repro.mboxes.manager:MboxManager.deploy", span="mboxes.deploy_self_ms",
         count="mboxes.deploys"),
    # core: controller, orchestrator, ingest, HA
    Hook("repro.core.controller:IoTSecController.on_control_message",
         span="core.controller_self_ms"),
    Hook("repro.core.orchestrator:PostureOrchestrator.apply_many",
         span="core.orchestrator_self_ms"),
    Hook("repro.core.overload:IngestQueue.offer", peak="core.ingest.depth_max",
         peak_of=_queue_depth),
    Hook("repro.core.ha:Checkpoint.capture", span="core.ha.capture_self_ms",
         count="core.ha.checkpoints"),
    # policy
    Hook("repro.policy.pruning:PrunedPolicy.posture_for", span="policy.self_ms",
         count="policy.lookups"),
    # obs
    Hook("repro.obs.journal:Journal.record", span="obs.journal_self_ms",
         count="obs.journal.records"),
    Hook("repro.obs.stream:HostStream.offer", span="obs.stream_self_ms",
         count="obs.stream.offers"),
    Hook("repro.obs.stream:StreamConsumer.on_batch", span="obs.stream_self_ms",
         count="obs.stream.batches"),
    Hook("repro.obs.slo:SloTracker.evaluate", span="obs.slo_self_ms",
         count="obs.slo_evals"),
)


def self_times(
    names: Sequence[int], starts: Sequence[int], ends: Sequence[int],
    parents: Sequence[int],
) -> dict[int, int]:
    """Sum of self time per span name id.

    A span's self time is its duration minus the durations of the spans
    whose parent it is; ``parents[i]`` is -1 for a root span.
    """
    n = len(starts)
    children = [0] * n
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            children[parent] += ends[i] - starts[i]
    out: dict[int, int] = {}
    for i in range(n):
        name = names[i]
        out[name] = out.get(name, 0) + (ends[i] - starts[i]) - children[i]
    return out


class SpanLog:
    """Spans in flat arrays; the parent is the innermost open span."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        return self.ids.setdefault(name, len(self.ids))

    def self_ms(self) -> dict[str, float]:
        totals = self_times(self.names, self.starts, self.ends, self.parents)
        return {name: totals.get(i, 0) / 1e6 for name, i in self.ids.items()}

    def clear(self) -> None:
        # In place: the wrappers hold references to these arrays.
        for arr in (self.names, self.starts, self.ends, self.parents):
            del arr[:]
        self.stack.clear()


_ABSENT = object()


def _resolve(target: str) -> tuple[type, str] | None:
    module_name, __, qualname = target.partition(":")
    class_name, __, attr = qualname.rpartition(".")
    try:
        cls = getattr(importlib.import_module(module_name), class_name)
    except (ImportError, AttributeError):
        return None
    if not hasattr(cls, attr):
        return None
    return cls, attr


class Ledger:
    """Installs :data:`HOOKS`-style wrappers; folds spans and counts.

    Use as a context manager: wrappers are installed on entry and the
    original class attributes are put back on exit, even on error.
    Hooks whose target no longer exists are skipped and listed in
    ``missing``.
    """

    def __init__(
        self, hooks: Iterable[Hook] = HOOKS, clock: Callable[[], int] = time.perf_counter_ns
    ) -> None:
        self.hooks = tuple(hooks)
        self.clock = clock
        self.log = SpanLog()
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._saved: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        counts = self.counts
        count_key, weight = hook.count, hook.weight
        peak_key, peak_of = hook.peak, hook.peak_of
        if count_key:
            counts.setdefault(count_key, 0)
        if peak_key:
            counts.setdefault(peak_key, 0)
        if hook.span is None:
            def counted(*args, **kwargs):
                if count_key:
                    counts[count_key] += weight(args) if weight else 1
                result = fn(*args, **kwargs)
                if peak_key:
                    value = peak_of(args)
                    if value > counts[peak_key]:
                        counts[peak_key] = value
                return result
            return counted

        log = self.log
        nid = log.name_id(hook.span)
        names, starts, ends, parents, stack = (
            log.names, log.starts, log.ends, log.parents, log.stack
        )
        clock = self.clock

        def spanned(*args, **kwargs):
            if count_key:
                counts[count_key] += weight(args) if weight else 1
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return spanned

    def install(self) -> "Ledger":
        self.missing = []
        try:
            for hook in self.hooks:
                found = _resolve(hook.target)
                if found is None:
                    self.missing.append(hook.target)
                    continue
                cls, attr = found
                raw = cls.__dict__.get(attr, _ABSENT)
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(raw.__func__, hook))
                else:
                    wrapped = self._wrap(getattr(cls, attr), hook)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
        except BaseException:
            self.restore()  # never leave a half-installed ledger behind
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            cls, attr, raw = self._saved.pop()
            if raw is _ABSENT:
                delattr(cls, attr)
            else:
                setattr(cls, attr, raw)

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def span_names(self) -> list[str]:
        return sorted({h.span for h in self.hooks if h.span})

    def fold(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (ms) per span name and the counts; then reset both."""
        self_ms = self.log.self_ms()
        for name in self.span_names():
            self_ms.setdefault(name, 0.0)
        counts = dict(self.counts)
        for key in counts:
            self.counts[key] = 0
        self.log.clear()
        return self_ms, counts
