"""Loopback TCP and UDP servers, all served by one thread: a reactor
(Schmidt, "Reactor", 1995) waiting in a selectors loop on each server's
socket and a wake socketpair. It starts with the first server, so
creating, restarting or stopping a server starts no thread. A restart
runs on the reactor and keeps the bound socket: what reached the server
before it is dropped, and no other process can take the port."""

import contextlib
import functools
import selectors
import socket
import threading
from collections.abc import Callable


class SpawnError(RuntimeError):
    """The device server could not be started (port in use, bad profile)."""


class _Reactor:
    """A selectors loop on one daemon thread. Any thread may register a
    socket or post() a call; what a callback raises is reported."""

    def __init__(self):
        self.selector = selectors.DefaultSelector()
        self._posted: list = []
        self._wake, self._waker = socket.socketpair()
        self.selector.register(self._wake, selectors.EVENT_READ, self._run_posted)
        threading.Thread(target=self._loop, name="loopback-reactor", daemon=True).start()

    def post(self, callback) -> None:
        self._posted.append(callback)
        self._waker.send(b"\0")

    def _run_posted(self):
        self._wake.recv(4096)  # any bytes left wake the loop again
        while self._posted:
            self._run(self._posted.pop(0))

    def _loop(self):
        while True:
            for key, _ in self.selector.select():
                if self.selector.get_map().get(key.fd) is key:  # not let go by an earlier callback
                    self._run(key.data)

    @staticmethod
    def _run(callback) -> None:
        try:
            callback()
        except Exception as exc:
            args = (type(exc), exc, exc.__traceback__, threading.current_thread())
            threading.excepthook(threading.ExceptHookArgs(args))


_the_reactor = functools.cache(_Reactor)  # one per process, made on first use
_reactor_lock = threading.Lock()


class LoopbackServer:
    """Serves a loopback TCP or UDP socket on the shared reactor until stop().

    transport is "tcp" or "udp". new_handler() is called once per TCP
    connection (once in all for UDP) and returns handle(data) ->
    (responses, close_connection). The responses go out back to back, one
    send each, before their socket is read again, so a TCP reader may get
    several in one read, as it would from a real device that writes twice.
    TCP connections are served one at a time, in accept order. A handler
    that raises ends its connection (or drops its datagram) and, unless
    the error is an OSError, is reported like a thread's uncaught exception.
    """

    def __init__(self, transport: str, port: int, new_handler):
        stream = transport == "tcp"
        self.sock = socket.socket(type=socket.SOCK_STREAM if stream else socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self.sock.bind(("127.0.0.1", port))
            if stream:
                self.sock.listen(8)
        except OSError as exc:
            self.sock.close()
            raise SpawnError(f"cannot bind 127.0.0.1:{port}: {exc}") from exc
        self.sock.setblocking(False)
        self.port = self.sock.getsockname()[1]
        self._new_handler = new_handler
        self._serve = self._accept if stream else functools.partial(self._datagram, new_handler())
        self._connection: socket.socket | None = None
        with _reactor_lock:  # two first servers must not make two reactors
            self._reactor = _the_reactor()
        self._idle()  # registers from this thread; an epoll or kqueue wait sees it

    def _receive(self) -> tuple[bytes, tuple]:  # one datagram and its sender
        return self.sock.recvfrom(65536)

    def _await(self, sock: socket.socket, step) -> None:
        """Run step once sock is readable, not watching sock while it runs."""
        self._reactor.selector.register(sock, selectors.EVENT_READ, lambda: self._attempt(step, sock))

    def _attempt(self, step, readable: socket.socket | None = None) -> None:
        """Run step; if it raises, go back to waiting on the bound socket."""
        try:
            if readable is not None:
                self._reactor.selector.unregister(readable)
            step()
        except Exception as exc:
            self._idle()
            if not isinstance(exc, OSError):
                raise

    def _idle(self) -> None:
        """Close the open connection, if any, and wait on the bound socket."""
        if self._connection is not None:
            self._connection.close()  # a no-op if it was closed before
        self._await(self.sock, self._serve)

    def _accept(self) -> None:
        connection = self._connection = self.sock.accept()[0]
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        handle = self._new_handler()

        def read():
            data = connection.recv(65536)
            if not data:
                return self._idle()
            responses, close_connection = handle(data)
            for response in responses:
                connection.sendall(response)
            (self._idle if close_connection else wait)()

        wait = functools.partial(self._await, connection, read)
        wait()

    def _datagram(self, handle) -> None:
        data, address = self._receive()
        responses, _ = handle(data)
        for response in responses:
            self.sock.sendto(response, address)
        self._idle()

    def restart(self, reset) -> Callable[[], None]:
        """Power-cycle on the reactor thread, keeping the bound socket.

        Closes the open connection, accepts and closes every connection in
        the backlog (or reads and discards every queued datagram), calls
        reset(), then serves again.
        Returns without waiting; the returned wait() blocks until the cycle
        has run and re-raises what it raised. After stop() it does nothing.
        """

        def cycle():
            if self.sock.fileno() == -1:  # stopped
                return
            self._unwatch()
            try:
                with contextlib.suppress(BlockingIOError):  # backlog or buffer empty
                    while True:
                        if self.sock.type == socket.SOCK_STREAM:
                            self.sock.accept()[0].close()
                        else:
                            self.sock.recv(1)
                reset()
            finally:
                self._idle()

        return self._post(cycle)

    def stop(self) -> None:
        """Close the server on the reactor thread; return once its port is free."""

        def close():
            self._unwatch()
            for sock in filter(None, (self._connection, self.sock)):
                sock.close()

        self._post(close)()

    def _unwatch(self) -> None:
        """Stop watching the bound socket and the open connection."""
        for sock in filter(None, (self._connection, self.sock)):
            with contextlib.suppress(KeyError, ValueError):  # unwatched; closed
                self._reactor.selector.unregister(sock)

    def _post(self, call) -> Callable[[], None]:
        """Run call on the reactor thread; return a wait() that blocks until
        it has run and re-raises what it raised."""
        done = threading.Event()
        raised: list[Exception] = []

        def run():
            try:
                call()
            except Exception as exc:
                raised.append(exc)
            finally:
                done.set()

        def wait():
            done.wait()
            if raised:
                raise raised.pop()

        self._reactor.post(run)
        return wait
