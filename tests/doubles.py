"""Test doubles served on loopback, most by the simulator's own LoopbackServer.

ScriptedResponder answers exact request payloads with fixed responses.
FakeDevice is a table-driven device that pipeline.assess_device assesses
through its AssessedDevice interface, with no simulator profile behind it.
SendallServer is a plain threaded TCP server, and TwoSendallDevice a
FakeDevice on one that writes each line of its ack with its own sendall.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time

from replaycheck.capture import Endpoint, PacketRecord, Transport, records_to_capture
from replaycheck.loopback import LoopbackServer

# Linux's SO_TIMESTAMPNS, which the socket module does not name: each
# datagram then carries the kernel's CLOCK_REALTIME receive time.
_SO_TIMESTAMPNS = 35
_KERNEL_STAMPS = sys.platform == "linux"


class _StampingServer(LoopbackServer):
    """A loopback server that keeps, in .arrival, the monotonic time the
    datagram being handled reached the socket: from its kernel receive
    stamp where there is one, so a late wakeup of the serving thread is
    not counted, else when it is read."""

    arrival = 0.0
    # Linux turns receive stamping on lazily once a socket asks for it, so a
    # datagram that arrives just after a server asked can be stamped only
    # when it is read. The first UDP server opens a socket that asks for the
    # rest of the run, before its own socket exists, to keep stamping on.
    _keep_stamping: socket.socket | None = None

    def __init__(self, transport: Transport, port: int, new_handler):
        stamped = transport == Transport.UDP and _KERNEL_STAMPS
        if stamped and _StampingServer._keep_stamping is None:
            keeper = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            keeper.setsockopt(socket.SOL_SOCKET, _SO_TIMESTAMPNS, 1)
            _StampingServer._keep_stamping = keeper
        super().__init__(transport, port, new_handler)
        if stamped:
            self.sock.setsockopt(socket.SOL_SOCKET, _SO_TIMESTAMPNS, 1)

    def _receive(self) -> tuple[bytes, tuple]:
        if not _KERNEL_STAMPS:
            data, address = self.sock.recvfrom(65536)
            self.arrival = time.monotonic()
            return data, address
        data, ancillary, _, address = self.sock.recvmsg(65536, socket.CMSG_SPACE(16))
        now = self.arrival = time.monotonic()
        for level, kind, stamp in ancillary:
            if level == socket.SOL_SOCKET and kind == _SO_TIMESTAMPNS:
                seconds, nanoseconds = struct.unpack("ll", stamp)  # struct timespec
                self.arrival = now - (time.time() - seconds - nanoseconds / 1e9)
        return data, address


class SendallServer:
    """A plain loopback TCP server with a thread per connection, outside
    the shared reactor. Built as LoopbackServer is, from (transport, port,
    new_handler); each response a handler returns goes out in its own
    sendall, with Nagle off, so two responses leave as two segments."""

    def __init__(self, transport: Transport, port: int, new_handler):
        assert transport == Transport.TCP
        self.sock = socket.create_server(("127.0.0.1", port))
        self.port = self.sock.getsockname()[1]
        self._new_handler = new_handler
        self._stopped = False
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self):
        while True:
            connection = self.sock.accept()[0]
            if self._stopped:
                connection.close()
                return
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._threads.append(threading.Thread(target=self._serve, args=(connection,), daemon=True))
            self._threads[-1].start()

    def _serve(self, connection: socket.socket):
        handle = self._new_handler()
        with connection:
            try:
                while data := connection.recv(65536):
                    responses, close_connection = handle(data)
                    for response in responses:
                        connection.sendall(response)
                    if close_connection:
                        return
            except OSError:  # the client closed first
                pass

    def stop(self):
        """Wake the accept loop with a last connection, then wait for every
        connection the clients have closed to finish."""
        self._stopped = True
        socket.create_connection(("127.0.0.1", self.port)).close()
        for thread in self._threads:
            thread.join(timeout=5)
            assert not thread.is_alive(), "a connection was left open"
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


class ScriptedResponder:
    """Maps exact request payloads to fixed response lists.

    Unknown requests get nothing. Each received payload is logged to
    .received, and the monotonic time it reached the socket (the kernel's
    receive stamp, for UDP on Linux) to .received_at, for replay-fidelity
    and pacing checks. UDP treats each datagram as one request; TCP treats
    each recv chunk as one (good enough for a test double on loopback).
    """

    def __init__(
        self,
        script: dict[bytes, list[bytes]],
        transport: Transport = Transport.UDP,
        port: int = 0,
    ):
        self.script = dict(script)
        self.transport = transport
        self.received: list[bytes] = []
        self.received_at: list[float] = []
        self._server = _StampingServer(transport, port, lambda: self._handle)
        self.endpoint = Endpoint("127.0.0.1", self._server.port)

    def _handle(self, request: bytes) -> tuple[list[bytes], bool]:
        udp = self.transport == Transport.UDP
        self.received_at.append(self._server.arrival if udp else time.monotonic())
        self.received.append(request)
        return self.script.get(request, []), False

    def shutdown(self):
        self._server.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()


# Whether a stale command (one whose sequence number is not above the
# last executed one) is executed anyway.
ACCEPT_RULES = {"accepts_stale": True, "refuses_stale": False}

# How a device answers: (ack to an executed command, answer to a refused
# one; None sends nothing). Both are formatted with the state the command
# asked for and the number of commands the device has handled. An unpadded
# counter's ack grows a byte each time the count gains a digit. A twin-row
# ack names its state by one letter, b or e, which share a histogram bucket:
# the two acks differ in bytes but have one feature row, so no training
# dimension varies. A two-line ack is two TCP segments in the companion's
# captures, but the server sends both lines in one write, as a TCP stack
# that coalesces them does. The last three shapes are ones the paper's rule
# cannot see: a silent ack leaves nothing to judge, a rejection that
# permutes the ack's bytes has the ack's feature row, since every feature
# ignores byte order, and so has one whose status digit 0 shares the ack's
# 1's histogram bucket.
RESPONSE_SHAPES = {
    "fixed_ack": ("OK {state}\n", None),
    "counter_ack": ("OK {state} n={count:06d}\n", None),
    "unpadded_counter_ack": ("OK {state} n={count}\n", None),
    "rejection": ("OK {state}\n", "ERR stale command\n"),
    "twin_row_ack": ("OK {state[1]}\n", "ERR stale command\n"),
    "two_line_ack": ("OK {state}\nST {state}\n", None),
    "silent_ack": (None, None),
    "permuted_rejection": ("OK {state}\n", "KO {state}\n"),
    "status_digit_rejection": ('{{"state":"{state}","status":1}}\n', '{{"state":"{state}","status":0}}\n'),
}

_COMMAND_GAP_US = 25_000
_EVENT_GAP_US = 1_700


class FakeDevice:
    """A two-state device on a loopback TCP server, built from one row of
    ACCEPT_RULES and one of RESPONSE_SHAPES.

    Commands are lines "SET <state> <sequence>", which its companion
    numbers 1, 2, ...; the companion drives the server's handler in-process
    and stamps its captures on a logical clock. The device boots, and
    restarts, in "reverse"; its last executed sequence survives a restart.
    Its handled-command count starts at first_count, so the first command
    it handles is number first_count + 1.
    """

    def __init__(self, accept_rule: str, shape: str, first_count: int = 0, server=LoopbackServer):
        self.name = f"fake_{accept_rule}_{shape}"
        self.accepts_stale = ACCEPT_RULES[accept_rule]
        self.ack, self.refusal = RESPONSE_SHAPES[shape]
        self.lock = threading.Lock()
        self.state = "reverse"
        self.last_sequence = 0
        self.handled = first_count
        self.sent = 0
        self.clock_us = 0
        self._server = server(Transport.TCP, 0, self._new_handler)
        self.endpoint = Endpoint("127.0.0.1", self._server.port)

    def _new_handler(self):
        buffer = b""

        def handle(data: bytes) -> tuple[list[bytes], bool]:
            nonlocal buffer
            *lines, buffer = (buffer + data).split(b"\n")
            with self.lock:
                return [answer for line in lines for answer in self._answer(line)], False

        return handle

    def _answer(self, line: bytes) -> list[bytes]:
        self.handled += 1
        _, state, sequence = line.decode().split()
        refused = int(sequence) <= self.last_sequence and not self.accepts_stale
        if not refused:
            self.state = state
            self.last_sequence = max(self.last_sequence, int(sequence))
        answer = self.refusal if refused else self.ack
        return [answer.format(state=state, count=self.handled).encode()] if answer else []

    def _command(self, state: str, app: Endpoint) -> list[PacketRecord]:
        self.sent += 1
        request = f"SET {state} {self.sent}\n".encode()
        responses, _ = self._new_handler()(request)
        assert self.state == state, f"{self.name} did not execute {request!r}"
        self.clock_us += _COMMAND_GAP_US
        records = []
        segments = [line for response in responses for line in response.splitlines(keepends=True)]
        for is_request, payload in [(True, request)] + [(False, line) for line in segments]:
            src, dst = (app, self.endpoint) if is_request else (self.endpoint, app)
            self.clock_us += _EVENT_GAP_US
            records.append(PacketRecord(self.clock_us, src, dst, Transport.TCP, payload))
        return records

    # pipeline.AssessedDevice
    def training_capture(self, app: Endpoint) -> bytes:
        states = ("obverse", "reverse") * 5
        return records_to_capture([r for s in states for r in self._command(s, app)])

    def command_capture(self, app: Endpoint) -> bytes:
        return records_to_capture(self._command("obverse", app))

    def arm(self, app: Endpoint) -> None:
        self._command("reverse", app)

    def restart(self) -> None:
        """Power-cycle as a simulated device does: the port stays bound, and
        what was in flight is dropped."""

        def reset():
            with self.lock:
                self.state = "reverse"

        self._server.restart(reset)()

    def replay_took_effect(self) -> bool:
        with self.lock:
            return self.state == "obverse"

    def shutdown(self):
        self._server.stop()


class TwoSendallDevice(FakeDevice):
    """two_line_ack on a SendallServer: each command's two equal-length
    lines go out by two back-to-back sendall calls, so a replay reads them
    in one recv chunk or two, as the host's TCP stack has it. It serves
    the non_restart scenario only: a SendallServer has no restart."""

    def __init__(self, accept_rule: str):
        super().__init__(accept_rule, "two_line_ack", server=SendallServer)
        self.name = f"fake_{accept_rule}_two_sendall_ack"

    def _answer(self, line: bytes) -> list[bytes]:
        return [part for answer in super()._answer(line) for part in answer.splitlines(keepends=True)]
