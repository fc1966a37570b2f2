"""The shared loopback servers: fault isolation, restart() and stop()."""

import socket
import sys
import threading
import time

import pytest

from replaycheck.loopback import LoopbackServer


def echo():
    return lambda data: ([data], False)


def raising():
    def handle(data):
        if data == b"fault":
            raise ValueError("handler fault")
        return [data], False

    return handle


@pytest.fixture
def printed_faults(monkeypatch, capsys):
    """Put back the default thread excepthook, which prints to stderr, in
    place of pytest's, which fails the test; return a reader of stderr."""
    monkeypatch.setattr(threading, "excepthook", threading.__excepthook__)
    return lambda: capsys.readouterr().err


def ask(server, payload):
    """Send payload over TCP and return the first reply (b"" if the server hung up)."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=1.0) as sock:
        sock.sendall(payload)
        return sock.recv(65536)


def test_a_raising_handler_is_printed_and_other_servers_keep_answering(printed_faults):
    faulty, healthy = LoopbackServer("tcp", 0, raising), LoopbackServer("tcp", 0, echo)
    try:
        assert ask(faulty, b"fault") == b""  # the fault ends only its connection
        assert ask(healthy, b"ping") == b"ping"
        assert ask(faulty, b"ping") == b"ping"
    finally:
        faulty.stop()
        healthy.stop()
    err = printed_faults()
    assert "Exception in thread loopback-reactor" in err
    assert "Traceback" in err and "ValueError: handler fault" in err


def test_a_raising_handler_drops_only_its_datagram(printed_faults):
    server = LoopbackServer("udp", 0, raising)
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
            client.settimeout(1.0)
            client.connect(("127.0.0.1", server.port))
            client.send(b"fault")
            client.send(b"ping")
            assert client.recv(65536) == b"ping"
    finally:
        server.stop()
    assert "ValueError: handler fault" in printed_faults()


def test_stop_hangs_up_and_frees_the_port():
    server = LoopbackServer("tcp", 0, echo)
    port = server.port
    with socket.create_connection(("127.0.0.1", port), timeout=1.0) as client:
        client.sendall(b"go")
        assert client.recv(65536) == b"go"
        server.stop()
        assert client.recv(65536) == b""
    rebound = LoopbackServer("tcp", port, echo)
    try:
        assert ask(rebound, b"ping") == b"ping"
    finally:
        rebound.stop()


def test_responses_all_go_out_before_the_next_request_is_read():
    # Both requests are queued before the first is read; a response to the
    # second can only follow every response to the first.
    script = {b"go": [b"one", b"two", b"three"], b"next": [b"after"]}
    server = LoopbackServer("udp", 0, lambda: lambda data: (script[data], False))
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
            client.settimeout(1.0)
            client.connect(("127.0.0.1", server.port))
            client.send(b"go")
            client.send(b"next")
            assert [client.recv(65536) for _ in range(4)] == [b"one", b"two", b"three", b"after"]
    finally:
        server.stop()


def test_tcp_responses_arrive_as_one_stream_then_a_closing_handler_hangs_up():
    # Back-to-back writes carry no boundary: the reader sees one byte
    # stream, and the hang-up comes only after the last response.
    server = LoopbackServer("tcp", 0, lambda: lambda data: ([b"one", b"two", b"three"], True))

    def exchange(payload):
        with socket.create_connection(("127.0.0.1", server.port), timeout=1.0) as client:
            client.sendall(payload)
            received = b""
            while chunk := client.recv(65536):
                received += chunk
            return received

    try:
        assert exchange(b"go") == b"onetwothree"
        assert exchange(b"again") == b"onetwothree"  # the next connection is served
    finally:
        server.stop()


def test_servers_made_and_stopped_from_many_threads_all_answer():
    """Registrations from other threads race the reactor's own; every
    exchange must still be answered and every port freed."""
    LoopbackServer("tcp", 0, echo).stop()  # the reactor exists before the count
    threads_before = threading.active_count()
    answers = []

    def worker(index):
        for round_ in range(25):
            server = LoopbackServer("tcp", 0, echo)
            try:
                answers.append(ask(server, b"%d-%d" % (index, round_)))
            finally:
                server.stop()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in workers)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(answers) == sorted(b"%d-%d" % (i, r) for i in range(4) for r in range(25))
    assert threading.active_count() == threads_before


def test_restart_drops_queued_datagrams_then_serves_again():
    handled, reset_on, holding = [], [], threading.Event()

    def handle(data):
        handled.append(data)
        if data == b"hold":  # the datagrams queue and the restart is posted meanwhile
            holding.set()
            time.sleep(0.1)
        return [data], False

    server = LoopbackServer("udp", 0, lambda: handle)
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
            client.settimeout(1.0)
            client.connect(("127.0.0.1", server.port))
            client.send(b"hold")
            assert holding.wait(1.0)
            client.send(b"queued")
            client.send(b"queued too")
            booted = server.restart(lambda: reset_on.append(threading.current_thread().name))
            assert client.recv(65536) == b"hold"
            booted()
            client.send(b"after")
            assert client.recv(65536) == b"after"
            assert handled == [b"hold", b"after"]
    finally:
        server.stop()
    assert reset_on == ["loopback-reactor"]


def test_restart_reraises_what_reset_raised_and_keeps_serving():
    def fail():
        raise ValueError("reset fault")

    server = LoopbackServer("tcp", 0, echo)
    try:
        with pytest.raises(ValueError, match="reset fault"):
            server.restart(fail)()
        assert ask(server, b"ping") == b"ping"
    finally:
        server.stop()


def test_a_restart_after_stop_does_nothing():
    server = LoopbackServer("tcp", 0, echo)
    server.stop()
    reset = []
    server.restart(lambda: reset.append(True))()
    assert reset == []
