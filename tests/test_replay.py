"""Replay engine tests over real loopback sockets."""

import contextlib
import errno
import os
import socket
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

from replaycheck import artifacts, replay
from replaycheck.artifacts import ArtifactError
from replaycheck.capture import Endpoint, Flow, PacketRecord, Transport
from replaycheck.loopback import LoopbackServer
from replaycheck.pipeline import PipelineSettings
from replaycheck.replay import (
    AttackResult,
    FlowReplay,
    QueueEntry,
    ResponseQueue,
    capture_linger_s,
    replay_flow,
    run_attack,
    schedule,
)
from replaycheck.verdict import Outcome, Reason, Verdict, decide
from doubles import ScriptedResponder, SendallServer

APP = Endpoint("10.77.0.2", 38200)
DEV = Endpoint("127.0.0.1", 4000)

FAST = PipelineSettings(
    per_flow_response_timeout_ms=150,
    inter_request_delay_ms=10,
    inter_flow_delay_ms=20,
    connect_timeout_ms=300,
)


def flow_of(*requests, transport=Transport.UDP, at=0, responses=(), gap_us=1000):
    """A captured flow; its responses follow the last request gap_us apart."""
    records = tuple(
        PacketRecord(at + i, APP, DEV, transport, payload)
        for i, payload in enumerate(requests)
    )
    last = records[-1].timestamp
    answers = tuple(
        PacketRecord(last + (i + 1) * gap_us, DEV, APP, transport, payload)
        for i, payload in enumerate(responses)
    )
    return Flow(records, answers)


def timed_replay(flow, endpoint, config, linger_s):
    started = time.monotonic()
    responses, note = replay_flow(flow, endpoint, config, linger_s)
    assert note == ""
    return [p for _, p in responses], time.monotonic() - started


def ipv6_loopback_listener():
    """A TCP socket listening on ::1; skips where the host has no IPv6 loopback."""
    try:
        listener = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
    except OSError:
        pytest.skip("this host has no IPv6 sockets")
    try:
        listener.bind(("::1", 0))
        listener.listen(1)
    except OSError:
        listener.close()
        pytest.skip("this host has no IPv6 loopback")
    return listener


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


class TestTimings:
    def test_defaults(self):
        settings = PipelineSettings()
        assert settings.per_flow_response_timeout_ms == 2000
        assert settings.inter_request_delay_ms == 50
        assert settings.inter_flow_delay_ms == 200
        assert settings.connect_timeout_ms == 1000

    def test_positive_required(self):
        with pytest.raises(ValueError):
            replace(FAST, per_flow_response_timeout_ms=0)
        with pytest.raises(ValueError):
            replace(FAST, inter_flow_delay_ms=-5)


class TestReplayFlow:
    def test_udp_request_response(self):
        with ScriptedResponder({b"ping": [b"pong"]}) as responder:
            flow = flow_of(b"ping")
            responses, note = replay_flow(
                flow, responder.endpoint, FAST, capture_linger_s([flow], FAST)
            )
        assert [p for _, p in responses] == [b"pong"]
        assert note == ""
        assert responder.received == [b"ping"]

    def test_multiple_responses_collected_in_order(self):
        script = {b"burst": [b"one", b"two", b"three"]}
        with ScriptedResponder(script) as responder:
            flow = flow_of(b"burst")
            responses, _ = replay_flow(
                flow, responder.endpoint, FAST, capture_linger_s([flow], FAST)
            )
        assert [p for _, p in responses] == [b"one", b"two", b"three"]
        stamps = [ts for ts, _ in responses]
        assert stamps == sorted(stamps)

    def test_all_requests_sent_without_waiting_for_responses(self):
        # silent responder: sends must still all go out
        with ScriptedResponder({}) as responder:
            flow = flow_of(b"a", b"b", b"c")
            responses, note = replay_flow(
                flow, responder.endpoint, FAST, capture_linger_s([flow], FAST)
            )
            assert responses == []
            assert note == ""
            assert responder.received == [b"a", b"b", b"c"]

    def test_tcp_flow(self):
        with ScriptedResponder(
            {b"hello": [b"world"]}, transport=Transport.TCP
        ) as responder:
            flow = flow_of(b"hello", transport=Transport.TCP)
            responses, note = replay_flow(
                flow, responder.endpoint, FAST, capture_linger_s([flow], FAST)
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
        flow = flow_of(b"x", transport=Transport.TCP)
        replayed = replay_flow(
            flow, Endpoint("127.0.0.1", port), FAST, capture_linger_s([flow], FAST)
        )
        responses, note = replayed
        assert responses == []
        assert "connect" in note and "failed" in note
        assert replayed.first_sent is None and replayed.last_sent is None

    def test_peer_that_closes_mid_flow_is_noted(self):
        # The device answers the first request and hangs up, well inside
        # the gap before the second is due.
        server = LoopbackServer(Transport.TCP, 0, lambda: lambda data: ([b"bye"], True))
        try:
            flow = flow_of(b"one", b"two", transport=Transport.TCP)
            config = replace(FAST, inter_request_delay_ms=200)
            responses, note = replay_flow(
                flow, Endpoint("127.0.0.1", server.port), config, capture_linger_s([flow], config)
            )
        finally:
            server.stop()
        assert [p for _, p in responses] == [b"bye"]
        assert note == "peer closed after 1 of 2 requests"

    def test_udp_flow_to_a_closed_port_ends_at_once_and_reads_no_response(self):
        # The port-unreachable reply surfaces on the connected socket's recv,
        # so the flow ends long before its window and decide finds no response.
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        flow = flow_of(b"x", responses=[b"ack"])
        config = replace(FAST, per_flow_response_timeout_ms=300)
        started = time.monotonic()
        result = run_attack([flow], Endpoint("127.0.0.1", port), config)
        assert time.monotonic() - started < 0.15
        (replayed,) = result.flows
        assert replayed.responses == [] and len(result.queue) == 0
        refused = ConnectionRefusedError(errno.ECONNREFUSED, os.strerror(errno.ECONNREFUSED))
        assert replayed.note == f"receive failed: {refused}"
        records = [*flow.requests, *flow.responses]
        assert decide(result.queue, records, None, config) == Verdict(Outcome.FAILED, Reason.NO_RESPONSE, ())

    def test_tcp_flow_to_an_ipv6_literal(self):
        # The socket's family comes from the address form, with no lookup.
        with ipv6_loopback_listener() as listener:
            flow = flow_of(b"hello", transport=Transport.TCP)
            device = Endpoint("::1", listener.getsockname()[1])
            responses, note = replay_flow(flow, device, FAST, capture_linger_s([flow], FAST))
            peer, _ = listener.accept()
            with peer:
                peer.settimeout(1.0)
                received = peer.recv(64)
        assert note == "" and responses == []
        assert received == b"hello"

    def test_tcp_socket_keeps_its_connect_timeout_with_nagle_off(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            device = Endpoint("127.0.0.1", listener.getsockname()[1])
            with replay.connect(device, Transport.TCP, 0.25) as sock:
                assert sock.family == socket.AF_INET
                assert sock.gettimeout() == 0.25
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_a_source_port_the_client_closed_first_can_serve_a_device(self):
        # The client hangs up first, so its end waits in TIME-WAIT on its
        # source port; a device bound to that port must not be refused.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            device = Endpoint("127.0.0.1", listener.getsockname()[1])
            client = replay.connect(device, Transport.TCP, 1.0)
            port = client.getsockname()[1]
            peer, _ = listener.accept()
            client.close()
            with peer:
                peer.settimeout(1.0)
                assert peer.recv(1) == b""
        server = LoopbackServer("tcp", port, lambda: lambda data: ((), False))
        server.stop()
        assert server.port == port

    def test_reports_when_its_first_and_last_requests_went_out(self):
        with ScriptedResponder({}) as responder:
            replayed = replay_flow(flow_of(b"a", b"b", b"c"), responder.endpoint, FAST, 0.0)
        first, last = replayed.first_sent, replayed.last_sent
        # A request has reached the responder by the time its send returns.
        arrivals = responder.received_at
        assert arrivals[0] <= first < arrivals[1] <= arrivals[2] <= last
        assert last - first >= 2 * FAST.inter_request_delay_ms / 1000


WINDOW = replace(FAST, per_flow_response_timeout_ms=400)
WINDOW_S = WINDOW.per_flow_response_timeout_ms / 1000


@contextlib.contextmanager
def spacing_responder(script, spacing_s):
    """A UDP responder on its own thread that answers each request in
    script with its replies, sleeping spacing_s between one and the next."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(0.05)
    stopping = threading.Event()

    def serve():
        while not stopping.is_set():
            try:
                request, address = sock.recvfrom(65536)
            except socket.timeout:
                continue
            for index, reply in enumerate(script.get(request, [])):
                if index:
                    time.sleep(spacing_s)
                sock.sendto(reply, address)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield Endpoint("127.0.0.1", sock.getsockname()[1])
    finally:
        stopping.set()
        thread.join(timeout=5)
        sock.close()
    assert not thread.is_alive()


class TestEvidenceCollection:
    """Collection ends a linger after a flow's captured responses arrive."""

    def test_linger_is_the_largest_gap_inside_any_flow(self):
        flows = [
            flow_of(b"a", responses=[b"A"], gap_us=3_000),
            flow_of(b"b", at=10_000, responses=[b"B1", b"B2"], gap_us=7_000),
            flow_of(b"c", at=50_000),  # unanswered: no gap to learn
        ]
        assert capture_linger_s(flows, WINDOW) == pytest.approx(0.007)
        assert capture_linger_s(flows[2:], WINDOW) == 0.0
        slow = flow_of(b"d", responses=[b"D"], gap_us=9_000_000)
        assert capture_linger_s([slow], WINDOW) == WINDOW_S

    def test_captured_responses_end_collection_well_inside_the_window(self):
        with ScriptedResponder({b"ping": [b"pong"]}) as responder:
            flow = flow_of(b"ping", responses=[b"pong"])
            payloads, elapsed = timed_replay(
                flow, responder.endpoint, WINDOW, capture_linger_s([flow], WINDOW)
            )
        assert payloads == [b"pong"]
        assert elapsed < WINDOW_S / 4

    def test_extra_response_within_the_linger_is_collected(self):
        # The capture shows one response 30 ms after the request; the device
        # now sends three, 20 ms apart. The third comes 40 ms after the
        # request, past a linger counted from the send: each arrival
        # restarts the linger.
        with spacing_responder({b"burst": [b"one", b"two", b"three"]}, 0.02) as endpoint:
            flow = flow_of(b"burst", responses=[b"one"], gap_us=30_000)
            payloads, elapsed = timed_replay(flow, endpoint, WINDOW, capture_linger_s([flow], WINDOW))
        assert payloads == [b"one", b"two", b"three"]
        assert elapsed < WINDOW_S

    def test_linger_is_learned_from_the_whole_capture(self):
        # The burst flow's own gap is 1 ms, too short for the device's 20 ms
        # spacing; the other flow's 80 ms gap sets the linger for both.
        script = {b"burst": [b"one", b"two"], b"slow": [b"s"]}
        with spacing_responder(script, 0.02) as endpoint:
            flows = [
                flow_of(b"burst", responses=[b"one"]),
                flow_of(b"slow", at=10_000, responses=[b"s"], gap_us=80_000),
            ]
            result = run_attack(flows, endpoint, WINDOW)
        assert [e.payload for e in result.queue.entries] == [b"s", b"one", b"two"]
        assert [(len(r.flow.responses), len(r.responses)) for r in result.flows] == [(1, 1), (1, 2)]

    def test_flow_without_captured_responses_waits_the_full_window(self):
        # The device answers, but the capture gives no evidence it would.
        with ScriptedResponder({b"ping": [b"pong"]}) as responder:
            flow = flow_of(b"ping")
            payloads, elapsed = timed_replay(
                flow, responder.endpoint, WINDOW, capture_linger_s([flow], WINDOW)
            )
        assert payloads == [b"pong"]
        assert elapsed >= WINDOW_S

    def test_flow_short_of_its_captured_count_waits_the_full_window(self):
        with ScriptedResponder({b"ping": [b"pong"]}) as responder:
            flow = flow_of(b"ping", responses=[b"pong", b"more"])
            payloads, elapsed = timed_replay(flow, responder.endpoint, WINDOW, 0.0)
        assert payloads == [b"pong"]
        assert elapsed >= WINDOW_S

    def test_a_tcp_run_captured_as_two_segments_is_evidenced_by_one_write(self):
        # The capture shows two response segments; the device writes both
        # lines in one sendall. A TCP flow's run is one response, so the
        # one chunk is the evidence and collection ends on the linger.
        settings = replace(FAST, per_flow_response_timeout_ms=300)
        both = b"OK obverse\nST obverse\n"
        flow = flow_of(
            b"SET obverse 1\n", transport=Transport.TCP,
            responses=[b"OK obverse\n", b"ST obverse\n"], gap_us=1_700,
        )
        linger_s = capture_linger_s([flow], settings)
        with SendallServer(Transport.TCP, 0, lambda: lambda data: ([both], False)) as server:
            for _ in range(10):
                payloads, elapsed = timed_replay(flow, Endpoint("127.0.0.1", server.port), settings, linger_s)
                assert payloads == [both]
                assert elapsed < 0.05


PACED = replace(FAST, per_flow_response_timeout_ms=150, inter_request_delay_ms=15, inter_flow_delay_ms=60)
FLOW_GAP_S = PACED.inter_flow_delay_ms / 1000
SCHEDULING_TOLERANCE_S = 0.001


def request_gaps(flows, endpoint_script):
    """Replay flows; for each flow but the last in replay order, seconds from
    its last request to the next flow's first, as the responder saw them
    arrive, and how late that last request came after the flow's first."""
    with ScriptedResponder(endpoint_script) as responder:
        run_attack(flows, responder.endpoint, PACED)
    arrivals = responder.received_at
    sizes = [len(flow.requests) for flow in schedule(flows)]
    assert len(arrivals) == sum(sizes)
    gaps, first = [], 0
    for size in sizes[:-1]:
        last, first = first + size - 1, first + size
        due = arrivals[first - size] + (size - 1) * PACED.inter_request_delay_ms / 1000
        gaps.append((arrivals[first] - arrivals[last], max(arrivals[last] - due, 0.0)))
    return gaps


class TestPacing:
    """A flow starts once the previous flow's collection has ended and the
    inter-flow delay has passed since its last request went out. Gaps are
    read from the responder's arrival stamps; the checks still allow for a
    last request that arrived late against the flow's first request."""

    def test_flows_are_at_least_the_delay_apart(self):
        script = {b"F1": [b"R1"], b"F2": [b"R2"], b"F3": [b"R3"]}
        flows = [flow_of(name, responses=script[name]) for name in (b"F1", b"F2", b"F3")]
        for gap, late in request_gaps(flows, script):
            assert gap >= FLOW_GAP_S - SCHEDULING_TOLERANCE_S - late

    def test_collection_longer_than_the_delay_is_followed_at_once(self):
        # The newest flow shows no captured response, so it waits out the
        # whole window; the delay has passed by then and adds nothing.
        window_s = PACED.per_flow_response_timeout_ms / 1000
        flows = [flow_of(b"answered", responses=[b"yes"]), flow_of(b"unanswered")]
        ((gap, _),) = request_gaps(flows, {b"answered": [b"yes"]})
        assert window_s <= gap < window_s + FLOW_GAP_S / 2

    def test_delay_counts_from_the_last_request_of_a_flow(self):
        # 45 ms from the first request to the last, less than the 60 ms delay
        script = {b"c4": [b"C"], b"d": [b"D"]}
        flows = [
            flow_of(b"d", responses=[b"D"]),
            flow_of(b"c1", b"c2", b"c3", b"c4", responses=[b"C"]),
        ]
        ((gap, late),) = request_gaps(flows, script)
        assert gap >= FLOW_GAP_S - SCHEDULING_TOLERANCE_S - late


class TestRunAttack:
    def test_newest_flow_replayed_first(self):
        script = {b"F1": [b"R1"], b"F2": [b"R2"], b"F3": [b"R3"]}
        with ScriptedResponder(script) as responder:
            flows = [flow_of(b"F1"), flow_of(b"F2"), flow_of(b"F3")]
            result = run_attack(flows, responder.endpoint, FAST)
        assert responder.received == [b"F3", b"F2", b"F1"]
        assert [e.payload for e in result.queue.entries] == [b"R3", b"R2", b"R1"]

    def test_flow_index_refers_to_original_order(self):
        script = {b"F1": [b"R1"], b"F2": [b"R2"]}
        with ScriptedResponder(script) as responder:
            flows = [flow_of(b"F1"), flow_of(b"F2")]
            result = run_attack(flows, responder.endpoint, FAST)
        assert [e.flow_index for e in result.queue.entries] == [1, 0]
        assert all(result.flows[i].flow is flows[-1 - i] for i in range(len(flows)))

    def test_transcript_records_each_flow_in_replay_order(self):
        # The middle flow rides TCP at a port served only over UDP, so its
        # connect is refused and it carries the note.
        flows = [
            flow_of(b"F1", b"F1b", responses=[b"R1"]),
            flow_of(b"ab", b"cdef", transport=Transport.TCP, responses=[b"R2"]),
            flow_of(b"F3"),
        ]
        with ScriptedResponder({b"F1": [b"R1"], b"F3": [b"R3"]}) as responder:
            result = run_attack(flows, responder.endpoint, FAST)
        refused = ConnectionRefusedError(errno.ECONNREFUSED, os.strerror(errno.ECONNREFUSED))
        assert result.transcript() == {
            "flows": [
                {
                    "scheduled_position": 0,
                    "original_index": 2,
                    "transport": "udp",
                    "request_lengths": [2],
                    "expected_responses": 0,
                    "response_count": 1,
                    "note": "",
                },
                {
                    "scheduled_position": 1,
                    "original_index": 1,
                    "transport": "tcp",
                    "request_lengths": [2, 4],
                    "expected_responses": 1,
                    "response_count": 0,
                    "note": f"connect to {responder.endpoint} failed: {refused}",
                },
                {
                    "scheduled_position": 2,
                    "original_index": 0,
                    "transport": "udp",
                    "request_lengths": [2, 3],
                    "expected_responses": 1,
                    "response_count": 1,
                    "note": "",
                },
            ]
        }
        for replayed in (result.flows[0], result.flows[2]):
            assert replayed.first_sent is not None
            assert replayed.first_sent <= replayed.last_sent
        assert result.flows[1].first_sent is None and result.flows[1].last_sent is None

    def test_a_slow_connect_does_not_shorten_the_gap(self, monkeypatch):
        # The first flow replayed takes 20 ms to connect; the delay still
        # counts from its request, not from when it began connecting.
        connect, slow = replay.connect, [0.02]

        def delayed(*args):
            if slow:
                time.sleep(slow.pop())
            return connect(*args)

        monkeypatch.setattr(replay, "connect", delayed)
        script = {b"F1": [b"R1"], b"F2": [b"R2"]}
        flows = [flow_of(name, responses=script[name]) for name in (b"F1", b"F2")]
        ((gap, _),) = request_gaps(flows, script)
        assert gap >= FLOW_GAP_S - SCHEDULING_TOLERANCE_S

    def test_a_tcp_flow_queues_and_counts_its_run_as_one_response(self):
        # Two sendalls reach the replay as one recv chunk or two; either
        # way the queue holds one entry and the transcript counts one of
        # one captured.
        lines = [b"OK obverse\n", b"ST obverse\n"]
        flow = flow_of(b"SET obverse 1\n", transport=Transport.TCP, responses=lines, gap_us=1_700)
        with SendallServer(Transport.TCP, 0, lambda: lambda data: (lines, False)) as server:
            result = run_attack([flow], Endpoint("127.0.0.1", server.port), FAST)
        chunks = result.flows[0].responses
        assert b"".join(chunk for _, chunk in chunks) == b"".join(lines)
        (entry,) = result.queue.entries
        assert entry.payload == b"".join(lines)
        counts = result.transcript()["flows"][0]
        assert (counts["expected_responses"], counts["response_count"]) == (1, 1)

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
    @example(
        [
            QueueEntry(0.0, 0, b""),
            QueueEntry(5e-324, 1, b"\x00\xff"),  # the least subnormal
            QueueEntry(sys.float_info.max, 2**70, b"\x00"),
        ]
    )
    @hypothesis_settings(deadline=None)
    @given(
        st.lists(
            st.builds(
                QueueEntry,
                timestamp=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                flow_index=st.integers(min_value=0),
                payload=st.binary(max_size=64),
            ),
            max_size=6,
        )
    )
    def test_queue_round_trip_binary_safe(self, tmp_path_factory, entries):
        """A queue of finite timestamps >= 0, flow indices from 0 and any
        payload bytes reads back as ResponseQueue.to_dict wrote it."""
        queue = ResponseQueue(tuple(entries))
        path = tmp_path_factory.mktemp("queue") / "queue.json"
        artifacts.write(path, artifacts.QUEUE, queue.to_dict())
        assert artifacts.read(path, artifacts.QUEUE) == queue

    def test_queue_schema_checked(self, tmp_path):
        path = tmp_path / "queue.json"
        path.write_text('{"schema": "response-queue/9", "responses": []}')
        with pytest.raises(ArtifactError):
            artifacts.read(path, artifacts.QUEUE)

    def test_transcript_written(self, tmp_path):
        replayed = tuple(FlowReplay(flow_of(name), [], "") for name in (b"F3", b"F2", b"F1"))
        result = AttackResult(replayed, 0.0)
        path = tmp_path / "transcript.json"
        artifacts.write(path, artifacts.TRANSCRIPT, result.transcript())
        text = path.read_text()
        assert '"attack-transcript/1"' in text
        assert '"original_index": 2' in text
