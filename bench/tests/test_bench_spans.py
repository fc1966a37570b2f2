"""Self-time arithmetic, span nesting and the layer wrappers."""

import json
from pathlib import Path

import pytest

import spans
from spans import Recorder, Span, covered, layer_metrics, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(span_id, parent, start, end, name="x", leaves=None, **attrs):
    return Span(name, span_id, parent, 1, start, end, attrs, leaves or {})


class TestCovered:
    def test_disjoint_children_add(self):
        assert covered((0, 10), [(1, 2), (4, 7)]) == pytest.approx(4)

    def test_overlapping_children_count_once(self):
        assert covered((0, 10), [(1, 5), (3, 6), (5.5, 8)]) == pytest.approx(7)

    def test_children_are_clipped_to_the_parent(self):
        assert covered((2, 6), [(0, 3), (5, 9), (10, 12)]) == pytest.approx(2)

    def test_no_children(self):
        assert covered((0, 10), []) == 0.0


class TestSelfTimes:
    def test_duration_minus_direct_children_and_leaves(self):
        recorded = [
            span(1, None, 0, 10, leaves={"pcap.decode_frame": [100, 1.5]}),
            span(2, 1, 1, 4),
            span(3, 2, 2, 3),  # grandchild: counted against span 2 only
            span(4, 1, 5, 6),
        ]
        selfs = self_times(recorded)
        assert selfs[1] == pytest.approx(10 - 3 - 1 - 1.5)
        assert selfs[2] == pytest.approx(3 - 1)
        assert selfs[3] == pytest.approx(1)
        assert selfs[4] == pytest.approx(1)


class TestRecorder:
    def test_nesting_parents_ops_and_leaves(self):
        clock = FakeClock()
        recorder = Recorder(clock)
        recorder.op_id = 7
        outer = recorder.begin("outer")
        clock.now = 1.0
        inner = recorder.begin("inner")
        recorder.leaf("features.featurize", 0.25)
        clock.now = 2.0
        recorder.end(inner)
        recorder.leaf("features.featurize", 0.5)
        clock.now = 4.0
        recorder.end(outer)

        assert [s.name for s in recorder.spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id and outer.parent_id is None
        assert inner.op_id == outer.op_id == 7
        assert inner.leaves == {"features.featurize": [1, 0.25]}
        assert outer.leaves == {"features.featurize": [1, 0.5]}
        assert self_times(recorder.spans)[outer.span_id] == pytest.approx(4 - 1 - 0.5)

    def test_leaf_outside_any_span_is_dropped(self):
        recorder = Recorder(FakeClock())
        recorder.leaf("pcap.decode_frame", 1.0)
        assert recorder.spans == []

    def test_out_of_order_close_is_an_error(self):
        recorder = Recorder(FakeClock())
        first = recorder.begin("a")
        recorder.begin("b")
        with pytest.raises(RuntimeError):
            recorder.end(first)


class TestInstall:
    def test_wrappers_record_and_uninstall_restores(self):
        from replaycheck import pcap, pipeline, verdict
        from replaycheck.replay import ResponseQueue

        before = (verdict.decide, pipeline.decide, pcap.decode_frame)
        recorder = Recorder()
        uninstall = spans.install(recorder, response_window=3)
        try:
            assert verdict.decide is not before[0]
            verdict.decide(ResponseQueue(()), [], None)
            pcap.decode_frame(b"")  # a leaf outside any span is not recorded
        finally:
            uninstall()
        assert (verdict.decide, pipeline.decide, pcap.decode_frame) == before
        assert [s.name for s in recorder.spans] == ["verdict.decide"]


class TestLayerMetrics:
    def test_replay_metrics_from_spans(self):
        flows = [
            span(2, 1, 0.0, 0.1, "replay.replay_flow", useful=True, idle_tail_s=0.05, note=False),
            span(3, 1, 0.2, 0.3, "replay.replay_flow", useful=False, idle_tail_s=0.07, note=True),
        ]
        attack = span(1, None, 0.0, 0.35, "replay.run_attack")
        metrics = layer_metrics([*flows, attack], ops=1)
        assert metrics["replay.inter_flow_sleep_ms"][0] == pytest.approx(150)
        assert metrics["replay.flows_per_attack"][0] == 2
        assert metrics["replay.useful_flow_ratio"][0] == 0.5
        assert metrics["replay.flow_notes"][0] == 1
        assert metrics["replay.replay_flow.idle_tail_ms"][0] == pytest.approx(60)
        assert metrics["models.train_lof.ms"] == (0.0, "ms")  # layer never entered

    def test_every_per_layer_metric_of_the_spec_is_produced(self):
        spec = json.loads((Path(spans.__file__).parent.parent / "BENCHMARK.json").read_text())
        produced = set(layer_metrics([], ops=0)) | {"trace.overhead_pct"}
        assert produced == {m["name"] for m in spec["per_layer"]}
