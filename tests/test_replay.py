"""Replay engine tests over real loopback sockets."""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from replaycheck import artifacts
from replaycheck.artifacts import ArtifactError
from replaycheck.capture import Endpoint, Flow, PacketRecord, Transport
from replaycheck.replay import (
    FlowReplayReport,
    QueueEntry,
    ReplayConfig,
    ResponseQueue,
    replay_flow,
    run_attack,
    schedule,
)
from replaycheck.simdevices import ScriptedResponder

APP = Endpoint("10.77.0.2", 38200)
DEV = Endpoint("127.0.0.1", 4000)

FAST = ReplayConfig(
    per_flow_response_timeout_ms=150,
    inter_request_delay_ms=10,
    inter_flow_delay_ms=20,
    connect_timeout_ms=300,
)


def flow_of(*requests, transport=Transport.UDP, at=0):
    records = tuple(
        PacketRecord(at + i, APP, DEV, transport, payload)
        for i, payload in enumerate(requests)
    )
    return Flow(records, ())


class TestSchedule:
    def test_reverses_capture_order(self):
        flows = [flow_of(b"F1"), flow_of(b"F2"), flow_of(b"F3")]
        assert schedule(flows) == [flows[2], flows[1], flows[0]]

    def test_empty(self):
        assert schedule([]) == []

    @given(st.lists(st.binary(min_size=1, max_size=10), max_size=12))
    def test_double_schedule_is_identity(self, payloads):
        flows = [flow_of(p) for p in payloads]
        assert schedule(schedule(flows)) == flows


class TestReplayConfig:
    def test_defaults(self):
        config = ReplayConfig()
        assert config.per_flow_response_timeout_ms == 2000
        assert config.inter_request_delay_ms == 50

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ReplayConfig(per_flow_response_timeout_ms=0)
        with pytest.raises(ValueError):
            ReplayConfig(inter_flow_delay_ms=-5)


class TestReplayFlow:
    def test_udp_request_response(self):
        with ScriptedResponder({b"ping": [b"pong"]}) as responder:
            responses, note = replay_flow(
                flow_of(b"ping"), responder.endpoint, Transport.UDP, FAST
            )
        assert [p for _, p in responses] == [b"pong"]
        assert note == ""
        assert responder.received == [b"ping"]

    def test_multiple_responses_collected_in_order(self):
        script = {b"burst": [b"one", b"two", b"three"]}
        with ScriptedResponder(script) as responder:
            responses, _ = replay_flow(
                flow_of(b"burst"), responder.endpoint, Transport.UDP, FAST
            )
        assert [p for _, p in responses] == [b"one", b"two", b"three"]
        stamps = [ts for ts, _ in responses]
        assert stamps == sorted(stamps)

    def test_all_requests_sent_without_waiting_for_responses(self):
        # silent responder: sends must still all go out
        with ScriptedResponder({}) as responder:
            responses, note = replay_flow(
                flow_of(b"a", b"b", b"c"), responder.endpoint, Transport.UDP, FAST
            )
            assert responses == []
            assert note == ""
            assert responder.received == [b"a", b"b", b"c"]

    def test_tcp_flow(self):
        with ScriptedResponder(
            {b"hello": [b"world"]}, transport=Transport.TCP
        ) as responder:
            responses, note = replay_flow(
                flow_of(b"hello", transport=Transport.TCP),
                responder.endpoint,
                Transport.TCP,
                FAST,
            )
        assert [p for _, p in responses] == [b"world"]
        assert note == ""

    def test_tcp_connect_refused_notes_and_never_raises(self):
        # grab a port and close it so nothing is listening
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        responses, note = replay_flow(
            flow_of(b"x", transport=Transport.TCP),
            Endpoint("127.0.0.1", port),
            Transport.TCP,
            FAST,
        )
        assert responses == []
        assert "connect" in note and "failed" in note


class TestRunAttack:
    def test_newest_flow_replayed_first(self):
        script = {b"F1": [b"R1"], b"F2": [b"R2"], b"F3": [b"R3"]}
        with ScriptedResponder(script) as responder:
            flows = [flow_of(b"F1"), flow_of(b"F2"), flow_of(b"F3")]
            result = run_attack(flows, responder.endpoint, FAST)
        assert responder.received == [b"F3", b"F2", b"F1"]
        assert result.queue.payloads() == [b"R3", b"R2", b"R1"]

    def test_flow_index_refers_to_original_order(self):
        script = {b"F1": [b"R1"], b"F2": [b"R2"]}
        with ScriptedResponder(script) as responder:
            result = run_attack([flow_of(b"F1"), flow_of(b"F2")], responder.endpoint, FAST)
        assert [e.flow_index for e in result.queue.entries] == [1, 0]
        assert [r.original_index for r in result.flows] == [1, 0]
        assert [r.scheduled_position for r in result.flows] == [0, 1]

    def test_report_request_lengths(self):
        with ScriptedResponder({}) as responder:
            result = run_attack(
                [flow_of(b"ab", b"cdef")], responder.endpoint, FAST
            )
        assert result.flows[0].request_lengths == (2, 4)
        assert result.flows[0].response_count == 0

    def test_no_flows(self):
        result = run_attack([], Endpoint("127.0.0.1", 1), FAST)
        assert len(result.queue) == 0
        assert result.flows == ()

    def test_queue_sorted_by_arrival(self):
        script = {b"slow": [b"s1", b"s2"], b"fast": [b"f1"]}
        with ScriptedResponder(script) as responder:
            result = run_attack(
                [flow_of(b"slow"), flow_of(b"fast")], responder.endpoint, FAST
            )
        stamps = [e.timestamp for e in result.queue.entries]
        assert stamps == sorted(stamps)
        # stamps are relative to the attack start, not some host clock
        assert all(0.0 <= s < 10.0 for s in stamps)


class TestArtifacts:
    def test_queue_round_trip_binary_safe(self, tmp_path):
        payloads = [random.Random(5).randbytes(40), b"", b"\x00\xff"]
        queue = ResponseQueue(
            tuple(
                QueueEntry(timestamp=float(i), flow_index=i, payload=p)
                for i, p in enumerate(payloads)
            )
        )
        path = tmp_path / "queue.json"
        artifacts.write(path, artifacts.QUEUE, queue.to_dict())
        assert artifacts.read(path, artifacts.QUEUE) == queue

    def test_queue_schema_checked(self, tmp_path):
        path = tmp_path / "queue.json"
        path.write_text('{"schema": "response-queue/9", "responses": []}')
        with pytest.raises(ArtifactError):
            artifacts.read(path, artifacts.QUEUE)

    def test_transcript_written(self, tmp_path):
        report = FlowReplayReport(
            scheduled_position=0,
            original_index=2,
            transport=Transport.UDP,
            request_lengths=(4,),
            response_count=0,
            note="",
        )
        path = tmp_path / "transcript.json"
        artifacts.write(path, artifacts.TRANSCRIPT, {"flows": [asdict(report)]})
        text = path.read_text()
        assert '"attack-transcript/1"' in text
        assert '"original_index": 2' in text
