"""In-memory span recorder and the wrappers that time each replaycheck layer.

Spans are recorded from outside the program: the wrappers replace module
attributes that the layers look up at call time (``pipeline`` calls
``parse_capture`` through its own namespace, ``run_attack`` calls
``replay_flow`` through the ``replay`` module, and so on), so nothing
under ``src/`` changes. Wrappers exist only while :func:`install` is in
effect; an untraced run never creates one.

Calls made hundreds of thousands of times per operation (frame decoding,
pcap record iteration, featurization) are not stored as spans. Their time
is tallied on the innermost open span as a "leaf" and subtracted from that
span's self time like any other child.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    op_id: object
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    # leaf name -> [calls, seconds]; leaf calls are children not stored as spans
    leaves: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def leaf_seconds(self) -> float:
        return sum(seconds for _, seconds in self.leaves.values())


def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in children if e > lo and s < hi)
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans and leaf calls cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered((span.start, span.end), children.get(span.span_id, ()))
        - span.leaf_seconds()
        for span in spans
    }


class Recorder:
    """Spans and leaf tallies, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op_id: object = None
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, **attrs) -> Span:
        parent = self.current()
        self._next_id += 1
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            op_id=self.op_id,
            start=self.clock(),
            attrs=attrs,
        )
        self._stack().append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    def leaf(self, name: str, seconds: float) -> None:
        span = self.current()
        if span is None:
            return
        tally = span.leaves.setdefault(name, [0, 0.0])
        tally[0] += 1
        tally[1] += seconds

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "id": span.span_id,
                            "parent": span.parent_id,
                            "op": span.op_id,
                            "start": span.start,
                            "end": span.end,
                            "attrs": span.attrs,
                            "leaves": span.leaves,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _spanned(recorder: Recorder, name: str, fn, after=None, before=None):
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        if before is not None:
            before(span, args, kwargs)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        finally:
            recorder.end(span)

    return wrapper


def _leaf(recorder: Recorder, name: str, fn):
    clock = recorder.clock

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.leaf(name, clock() - start)

    return wrapper


def _leaf_generator(recorder: Recorder, name: str, fn):
    """Time each step of a generator function; the consumer's time is excluded."""
    clock = recorder.clock

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            start = clock()
            try:
                item = next(inner)
            except StopIteration:
                recorder.leaf(name, clock() - start)
                return
            recorder.leaf(name, clock() - start)
            yield item

    return wrapper


def _hooks(recorder: Recorder, response_window: int):
    """(module, attribute, wrapper factory) for every traced boundary."""
    from replaycheck import pcap, pipeline, protocols, replay, simdevices, verdict

    def span(name, **extra):
        return lambda fn: _spanned(recorder, name, fn, **extra)

    def leaf(name):
        return lambda fn: _leaf(recorder, name, fn)

    # Responses queued so far by the attack in progress; a flow is useful
    # when it starts before the queue holds response_window entries.
    queued: list[int] = []

    def flow_before(span_, args, kwargs):
        span_.attrs["useful"] = not queued or queued[-1] < response_window
        # replay_flow stamps arrivals with time.monotonic()
        span_.attrs["monotonic_start"] = time.monotonic()

    def flow_after(span_, args, kwargs, result):
        end = time.monotonic()
        responses, note = result
        start = span_.attrs.pop("monotonic_start")
        span_.attrs["idle_tail_s"] = end - (responses[-1][0] if responses else start)
        span_.attrs["note"] = bool(note)
        if queued:
            queued[-1] += len(responses)

    def run_attack(fn):
        spanned = _spanned(recorder, "replay.run_attack", fn)

        def wrapper(*args, **kwargs):
            queued.append(0)
            try:
                return spanned(*args, **kwargs)
            finally:
                queued.pop()

        return wrapper

    def restart_before(span_, args, kwargs):
        device = args[0] if args else kwargs["device"]
        span_.attrs["delay_s"] = device.profile.post_restart_delay_s

    def parse_after(span_, args, kwargs, result):
        records = result[0] if isinstance(result, tuple) else result
        span_.attrs["records"] = len(records)

    def train(name):
        def factory(fn):
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    recorder.current().attrs["peak_alloc_bytes"] = peak

            return _spanned(recorder, name, measured)

        return factory

    def classify_before(span_, args, kwargs):
        model = args[0] if args else kwargs["model"]
        span_.name = f"models.classify.{model.kind}"

    trigger = span("simdevices.trigger_state")
    companion = span("simdevices.companion_session")
    restart = span("simdevices.restart_device", before=restart_before)
    decide = span("verdict.decide")
    featurize = leaf("features.featurize")
    parse = span("capture.parse", after=parse_after)
    return [
        (pipeline, "assess_device", span("pipeline.assess_device")),
        (pipeline, "train_from_capture", span("pipeline.train_from_capture")),
        (pipeline, "attack_from_capture", span("pipeline.attack_from_capture")),
        (pipeline, "parse_capture", parse),
        (pipeline, "parse_capture_with_notes", parse),
        (pipeline, "segment_flows", span("capture.segment_flows")),
        (pipeline, "featurize", featurize),
        (pipeline, "train_lof", train("models.train_lof")),
        (pipeline, "train_isolation_forest", train("models.train_isolation_forest")),
        (pipeline, "classify_training_responses", span("protocols.classify_training_responses")),
        (pipeline, "run_attack", run_attack),
        (pipeline, "decide", decide),
        (pipeline, "trigger_state", trigger),
        (pipeline, "restart_device", restart),
        (pipeline, "companion_session", companion),
        (replay, "replay_flow", span("replay.replay_flow", before=flow_before, after=flow_after)),
        (pcap, "read_frames", lambda fn: _leaf_generator(recorder, "pcap.read_frames", fn)),
        (pcap, "decode_frame", leaf("pcap.decode_frame")),
        (protocols, "featurize", featurize),
        (verdict, "featurize", featurize),
        (verdict, "classify", span("models.classify", before=classify_before)),
        (
            verdict,
            "detect_standard_security_protocol",
            span("protocols.detect_standard_security_protocol"),
        ),
        (verdict, "decide", decide),
        (simdevices, "spawn_device", span("simdevices.spawn_device")),
        (simdevices, "trigger_state", trigger),
        (simdevices, "restart_device", restart),
        (simdevices, "companion_session", companion),
    ]


def install(recorder: Recorder, response_window: int) -> Callable[[], None]:
    """Wrap every traced module attribute; returns the function that unwraps them."""
    saved = []
    for module, attr, factory in _hooks(recorder, response_window):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, factory(original))

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from one traced run.

    Durations are medians per call; ``.calls`` counts are per traced op;
    a layer the workload never entered reads 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def ms(name):
        return _median([s.duration * 1e3 for s in named(name)])

    def us(name):
        return _median([s.duration * 1e6 for s in named(name)])

    def self_ms(name):
        return _median([selfs[s.span_id] * 1e3 for s in named(name)])

    def leaf_totals(name, op_only=False):
        calls = seconds = 0.0
        for span in spans:
            if op_only and not isinstance(span.op_id, int):
                continue
            tally = span.leaves.get(name)
            if tally:
                calls += tally[0]
                seconds += tally[1]
        return calls, seconds

    flows = named("replay.replay_flow")
    attacks = named("replay.run_attack")
    parses = named("capture.parse")
    frames = sum(s.leaves.get("pcap.decode_frame", [0, 0.0])[0] for s in parses)
    parse_s = sum(s.duration for s in parses)
    records = sum(s.attrs.get("records", 0) for s in parses)  # 0 when the parse raised
    restarts = named("simdevices.restart_device")
    featurize_calls, featurize_s = leaf_totals("features.featurize")
    op_featurize_calls, _ = leaf_totals("features.featurize", op_only=True)
    op_decode_calls, _ = leaf_totals("pcap.decode_frame", op_only=True)
    attack_children = {s.span_id: 0 for s in attacks}
    for flow in flows:
        if flow.parent_id in attack_children:
            attack_children[flow.parent_id] += 1

    def peak_mb(name):
        return _median([s.attrs["peak_alloc_bytes"] / 2**20 for s in named(name)])

    per_op = max(ops, 1)
    return {
        "replay.replay_flow.idle_tail_ms": (
            _median([s.attrs["idle_tail_s"] * 1e3 for s in flows]), "ms"),
        "replay.replay_flow.ms": (ms("replay.replay_flow"), "ms"),
        "replay.inter_flow_sleep_ms": (self_ms("replay.run_attack"), "ms"),
        "replay.flows_per_attack": (
            statistics.fmean(attack_children.values()) if attacks else 0.0, "count"),
        "replay.useful_flow_ratio": (
            sum(s.attrs["useful"] for s in flows) / len(flows) if flows else 0.0, "ratio"),
        "replay.flow_notes": (float(sum(s.attrs["note"] for s in flows)), "count"),
        "simdevices.restart_device.ms": (ms("simdevices.restart_device"), "ms"),
        "simdevices.restart_overhead_ms": (
            _median([(s.duration - s.attrs["delay_s"]) * 1e3 for s in restarts]), "ms"),
        "simdevices.trigger_state.ms": (ms("simdevices.trigger_state"), "ms"),
        "simdevices.companion_session.ms": (ms("simdevices.companion_session"), "ms"),
        "simdevices.spawn_device.ms": (ms("simdevices.spawn_device"), "ms"),
        "pcap.read_frames.self_ms": (
            _median([s.leaves.get("pcap.read_frames", [0, 0.0])[1] * 1e3 for s in parses]), "ms"),
        "pcap.decode_frame.calls": (op_decode_calls / per_op, "count"),
        "capture.parse.frames_per_s": (frames / parse_s if parse_s else 0.0, "1/s"),
        "capture.parse.self_ms": (self_ms("capture.parse"), "ms"),
        "capture.match_ratio": (records / frames if frames else 0.0, "ratio"),
        "capture.segment_flows.ms": (ms("capture.segment_flows"), "ms"),
        "features.featurize.us": (
            featurize_s / featurize_calls * 1e6 if featurize_calls else 0.0, "us"),
        "features.featurize.calls": (op_featurize_calls / per_op, "count"),
        "models.train_lof.ms": (ms("models.train_lof"), "ms"),
        "models.train_isolation_forest.ms": (ms("models.train_isolation_forest"), "ms"),
        "models.classify.lof.us": (us("models.classify.lof"), "us"),
        "models.classify.isolation_forest.us": (us("models.classify.isolation_forest"), "us"),
        "models.train_lof.peak_alloc_mb": (peak_mb("models.train_lof"), "MB"),
        "models.train_isolation_forest.peak_alloc_mb": (
            peak_mb("models.train_isolation_forest"), "MB"),
        "protocols.classify_training_responses.ms": (
            ms("protocols.classify_training_responses"), "ms"),
        "protocols.detect_standard_security_protocol.us": (
            us("protocols.detect_standard_security_protocol"), "us"),
        "verdict.decide.us": (us("verdict.decide"), "us"),
        "pipeline.train_from_capture.self_ms": (self_ms("pipeline.train_from_capture"), "ms"),
        "pipeline.attack_from_capture.self_ms": (self_ms("pipeline.attack_from_capture"), "ms"),
        "pipeline.assess_device.self_ms": (self_ms("pipeline.assess_device"), "ms"),
    }
