"""TCP network mode: DataManager as a real server, Algorithm as a client.

The paper's platform ran the DataManager "on the server" with client PCs
connecting over the campus network ("All the clients connected to a
dedicated server running Linux...").  The in-process backends of
:mod:`repro.distributed.backends` prove the scheduling logic; this module
provides the actual wire deployment: a threaded TCP server that hands
photon-batch tasks to any number of connecting clients, merges their
results, and survives the full fault taxonomy of non-dedicated machines —
clients that vanish (reassignment), clients that hang while still connected
(heartbeat timeout), stragglers (deadline-driven speculative re-dispatch)
and clients that return garbage (merge-time validation).  It reports the
same :class:`~repro.distributed.datamanager.RunReport`, including per-worker
health, and can checkpoint/resume through a
:class:`~repro.distributed.checkpoint.CheckpointManager`.

Wire protocol (length-prefixed pickles, trusted-network only — exactly the
trust model of the paper's Java serialisation):

    client -> server   {"type": "hello", "worker": str, "compress": bool,
                        "codec": bool}
    server -> client   {"type": "session", "config": ..., "kernel": ...,
                        "compress": bool, "codec": bool}
    client -> server   {"type": "next"}                           ┐
    server -> client   {"type": "task", "task": TaskSpec|SpanSpec,│ repeats
                        "attempt": int} | {"type": "done"}        │
    client -> server   {"type": "heartbeat"}   (0+ while working) │
    client -> server   {"type": "result", "result": TaskResult}   ┘

The pull ("next") step makes departures unambiguous: a client that closes
instead of pulling owes the server nothing; only a connection lost between
task dispatch and result delivery triggers reassignment.  Heartbeats flow
while a client computes, so a hung-but-connected client is detected when
``heartbeat_timeout`` elapses without any message, and its task reassigned.

Frame compression: tally payloads dominate the traffic (per-task grids and
histograms), so frames may optionally be zlib-compressed.  The feature is
negotiated per connection — a client advertises ``"compress": True`` in its
hello, and the server enables it only when constructed with
``compress=True`` (off by default) — and is carried in-band: the top bit of
the 8-byte length prefix marks a compressed frame, so small frames
(heartbeats, pulls) skip compression with zero overhead.

Zero-copy tally transport (``"codec"``) is negotiated the same way: a
client that advertises support ships each result's tally as one contiguous
:class:`~repro.io.codec.EncodedTally` buffer instead of a pickled
:class:`~repro.core.tally.Tally`; the server reconstructs it as
``np.frombuffer`` views into the received frame (the frame itself is read
with ``recv_into`` into a preallocated ``bytearray``, so the bytes are
copied exactly once off the socket).  On by default on both sides; a legacy
peer simply keeps the pickled form.
"""

from __future__ import annotations

import logging
import math
import pickle
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass

from .lifecycle import Attempt, RunPlan, RunReport, TaskLifecycle
from .protocol import SpanSpec, TaskResult, TaskSpec, freeze_result
from .worker import execute_unit

__all__ = [
    "ProtocolError",
    "send_message",
    "recv_message",
    "NetworkServer",
    "run_network_client",
]

logger = logging.getLogger(__name__)

_LENGTH = struct.Struct(">Q")

#: Top bit of the length prefix marks a zlib-compressed frame; the low 63
#: bits remain the (compressed) payload length.
_COMPRESS_FLAG = 1 << 63
_LENGTH_MASK = _COMPRESS_FLAG - 1

#: Frames below this size are never compressed (control messages,
#: heartbeats — the zlib header would cost more than it saves).
_COMPRESS_MIN = 1 << 10

#: Refuse messages above this size (corrupt length prefix guard).
_MAX_MESSAGE = 1 << 30


class ProtocolError(ConnectionError):
    """The peer sent bytes that cannot be a protocol message.

    Covers corrupt or hostile length prefixes (value above the message-size
    cap) and payloads that do not decode — both mean the stream is
    unrecoverable, so this is a :class:`ConnectionError`: the connection
    must be dropped, and any task it carried reassigned.
    """


def send_message(sock: socket.socket, obj, *, compress: bool = False, saved_cb=None) -> int:
    """Send one length-prefixed pickled message; returns bytes put on the wire.

    With ``compress=True`` payloads of at least ``_COMPRESS_MIN`` bytes are
    zlib-compressed when that actually shrinks them, flagged by the top bit
    of the length prefix.  ``saved_cb``, when given, receives the bytes
    saved by compression (the ``net.bytes_saved`` hook).  Only enable
    compression towards a peer that negotiated it — a pre-compression peer
    would misread the flagged prefix as an oversized frame.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = len(payload)
    if compress and len(payload) >= _COMPRESS_MIN:
        squeezed = zlib.compress(payload)
        if len(squeezed) < len(payload):
            if saved_cb is not None:
                saved_cb(len(payload) - len(squeezed))
            payload = squeezed
            header = len(payload) | _COMPRESS_FLAG
    sock.sendall(_LENGTH.pack(header) + payload)
    return _LENGTH.size + len(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes into one preallocated buffer.

    ``recv_into`` a single ``bytearray`` instead of the old
    chunk-list-then-join: the bytes are copied exactly once off the socket,
    and the returned buffer is *writable* — so a zero-copy decoded tally
    (``np.frombuffer`` views into this very buffer) can be merged into in
    place by the reducer.
    """
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        read = sock.recv_into(view[got:], n - got)
        if not read:
            raise ConnectionError("peer closed the connection mid-message")
        got += read
    return buf


def recv_message(sock: socket.socket, *, max_size: int = _MAX_MESSAGE, size_cb=None):
    """Receive one length-prefixed pickled message.

    ``size_cb``, when given, is called with the total bytes read off the
    wire for this message (prefix included) — the hook the telemetered
    server uses to count traffic without a second protocol layer.

    Raises :class:`ConnectionError` on a truncated stream and
    :class:`ProtocolError` (a ``ConnectionError`` subclass) on a length
    prefix above ``max_size`` or an undecodable payload — a garbage prefix
    must never make the receiver allocate gigabytes or interpret noise.
    """
    (header,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    compressed = bool(header & _COMPRESS_FLAG)
    length = header & _LENGTH_MASK
    if length > max_size:
        raise ProtocolError(
            f"message of {length} bytes exceeds the {max_size} cap "
            "(corrupt length prefix?)"
        )
    payload = _recv_exact(sock, length)
    if size_cb is not None:
        size_cb(_LENGTH.size + length)
    if compressed:
        # Bounded decompression: a hostile/corrupt frame must not expand
        # past the same cap the prefix is held to (zlib-bomb guard).
        decomp = zlib.decompressobj()
        try:
            payload = decomp.decompress(payload, max_size)
        except zlib.error as exc:
            raise ProtocolError(f"corrupt compressed payload: {exc!r}") from exc
        if decomp.unconsumed_tail or not decomp.eof:
            raise ProtocolError(
                "compressed payload is truncated or decompresses past the "
                f"{max_size} cap"
            )
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure is fatal
        raise ProtocolError(f"undecodable message payload: {exc!r}") from exc


class _WorkerHung(ConnectionError):
    """A connected client stopped sending heartbeats mid-task."""


@dataclass(kw_only=True)
class NetworkServer(RunPlan):
    """The DataManager as a TCP server.

    Takes every :class:`~repro.distributed.lifecycle.RunPlan` field — the
    scheduling rules are the same
    :class:`~repro.distributed.lifecycle.TaskLifecycle` core the executor
    backends run under, called here under one lock — plus the transport's
    own knobs:

    ``host`` / ``port``
        The listening endpoint (port 0 picks a free port, exposed as
        :attr:`port` after :meth:`start`).
    ``heartbeat_timeout``
        Seconds without any message from a client that is holding a task
        before it is declared hung, its connection dropped and its task
        reassigned.  ``None`` (default) disables hang detection.
    ``compress``
        Offer zlib frame compression to clients (negotiated per
        connection; a client that does not advertise support keeps an
        uncompressed stream).  Off by default.
    ``codec``
        Offer zero-copy tally transport (negotiated per connection like
        compression; on by default).  A client that advertises support
        returns each tally as one :class:`~repro.io.codec.EncodedTally`
        buffer, decoded server-side into ``np.frombuffer`` views; the
        ``codec.bytes`` / ``codec.bytes_saved`` counters quantify it.

    A blacklisted client (``blacklist_after``) is refused work: its next
    pull is answered with ``done``.  With ``telemetry`` the server also
    counts traffic (``net.bytes_sent`` / ``net.bytes_recv``, plus
    ``net.bytes_saved`` when compression is active), round-trips,
    heartbeats (with a ``net.heartbeat_gap_s`` histogram of inter-message
    gaps while a client computes) and connected clients.

    Usage::

        server = NetworkServer(config, n_photons=10**6, task_size=10**4)
        server.start()
        ... point clients at server.port ...
        report = server.wait(timeout=3600)
    """

    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_timeout: float | None = None
    compress: bool = False
    codec: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0 or None, got {self.heartbeat_timeout}"
            )
        self._listener: socket.socket | None = None
        self._core: TaskLifecycle | None = None
        # Guards the core, the thread and connection lists and ``_closed``;
        # notified whenever an attempt settles or the server closes, which
        # is all that can change what the core answers a waiting handler.
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._closed = False

    def start(self) -> "NetworkServer":
        """Bind, listen and start accepting clients (returns self)."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._core = TaskLifecycle(self, time.perf_counter())
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener shut down by close()
            handler = threading.Thread(
                target=self._serve_client, args=(conn,), daemon=True
            )
            with self._cond:
                if self._closed:
                    conn.close()
                    return
                self._threads.append(handler)
            handler.start()

    def _claim(self, worker: str) -> Attempt | None:
        """Block until the core has a unit for ``worker``; None means done."""
        with self._cond:
            while not self._closed:
                now = time.perf_counter()
                step = self._core.next_unit(now, worker)
                if step is None or isinstance(step, Attempt):
                    return step
                # Sleep to the next deadline crossing or backoff release;
                # a settling attempt or close() wakes us sooner.
                self._cond.wait(None if step == math.inf else max(0.0, step - now))
            return None

    def _settle(self, attempt: Attempt, *, result=None, error=None) -> None:
        """Report an attempt's outcome to the core and wake waiting handlers."""
        with self._cond:
            if self._closed and not self._core.finished:
                return  # severed by close(): the run is being abandoned
            now = time.perf_counter()
            if error is None:
                self._core.on_result(attempt, result, now)
            else:
                self._core.on_failure(attempt, error, now)
            self._cond.notify_all()

    def _send(self, conn: socket.socket, obj, *, compress: bool = False) -> None:
        tel = self.telemetry
        saved_cb = (
            tel.registry.counter("net.bytes_saved").add if tel is not None else None
        )
        n = send_message(conn, obj, compress=compress, saved_cb=saved_cb)
        if tel is not None:
            tel.registry.counter("net.bytes_sent").add(n)

    def _recv(self, conn: socket.socket):
        tel = self.telemetry
        if tel is None:
            return recv_message(conn)
        return recv_message(
            conn, size_cb=tel.registry.counter("net.bytes_recv").add
        )

    def _track_conn(self, conn: socket.socket, connected: bool) -> None:
        with self._cond:
            if connected:
                self._conns.add(conn)
            else:
                self._conns.discard(conn)
            if self.telemetry is not None:
                self.telemetry.gauge("net.clients", len(self._conns))

    def _await_result(self, conn: socket.socket, worker: str) -> TaskResult:
        """Read until the client's result; heartbeats keep the window open,
        and a silent-but-connected client trips ``heartbeat_timeout``."""
        tel = self.telemetry
        if self.heartbeat_timeout is not None:
            conn.settimeout(self.heartbeat_timeout)
        last_message = time.perf_counter()
        try:
            while True:
                try:
                    reply = self._recv(conn)
                except (socket.timeout, TimeoutError):
                    raise _WorkerHung(
                        f"no heartbeat from {worker} within {self.heartbeat_timeout}s"
                    ) from None
                if tel is not None:
                    now = time.perf_counter()
                    tel.observe("net.heartbeat_gap_s", now - last_message)
                    last_message = now
                if reply.get("type") == "heartbeat":
                    if tel is not None:
                        tel.registry.counter("net.heartbeats").inc()
                    continue
                if reply.get("type") != "result":
                    raise ProtocolError(f"expected result, got {reply!r}")
                return reply["result"]
        finally:
            conn.settimeout(None)

    def _serve_client(self, conn: socket.socket) -> None:
        attempt: Attempt | None = None
        worker = "?"
        self._track_conn(conn, True)
        try:
            with conn:
                hello = self._recv(conn)
                if hello.get("type") != "hello":
                    raise ProtocolError(f"expected hello, got {hello!r}")
                worker = str(hello.get("worker", "?"))
                # Compression and zero-copy tally transport are negotiated
                # per connection: on only when the server offers the feature
                # AND this client advertised support.
                wire_compress = bool(self.compress and hello.get("compress"))
                wire_codec = bool(self.codec and hello.get("codec"))
                self._send(
                    conn,
                    {
                        "type": "session",
                        "config": self.config,
                        "kernel": self.kernel,
                        "compress": wire_compress,
                        "codec": wire_codec,
                    },
                    compress=wire_compress,
                )

                while True:
                    pull = self._recv(conn)
                    if pull.get("type") == "heartbeat":
                        continue  # idle heartbeats are harmless noise
                    if pull.get("type") != "next":
                        raise ProtocolError(f"expected next, got {pull!r}")
                    attempt = self._claim(worker)
                    if attempt is None:
                        self._send(conn, {"type": "done"})
                        return
                    self._send(
                        conn,
                        {"type": "task", "task": attempt.unit, "attempt": attempt.number},
                        compress=wire_compress,
                    )
                    result = self._await_result(conn, worker)
                    if self.telemetry is not None:
                        self.telemetry.count("net.round_trips", worker=worker)
                    settled, attempt = attempt, None
                    self._settle(settled, result=result)
        except Exception as error:  # noqa: BLE001 - client vanished, hung or sent garbage
            logger.warning("client connection ended: %r", error)
            if attempt is not None:
                self._settle(attempt, error=error)
        finally:
            self._track_conn(conn, False)

    def wait(self, timeout: float | None = None) -> RunReport:
        """Block until every task is merged; return the report."""
        with self._cond:
            finished = self._cond.wait_for(lambda: self._core.finished, timeout)
        if not finished:
            raise TimeoutError(f"distributed run incomplete after {timeout}s")
        self.close()
        return self._core.report(time.perf_counter())

    def close(self) -> None:
        """Stop accepting clients, release the port and join every thread.

        Idempotent: safe to call repeatedly (``wait`` calls it on success,
        error paths call it again).  Joining the handler threads means a
        timed-out ``wait`` does not leak daemon threads blocked on reads.
        """
        with self._cond:
            first = not self._closed
            self._closed = True
            self._cond.notify_all()  # idle handlers dismiss their clients
        if first and self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so the acceptor exits at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        # Grace period: handlers answer their client's final pull with
        # "done" and exit on their own — force-closing immediately would
        # sever clients mid-farewell.
        self._join_threads(2.0)
        # Anything still alive is stuck on a silent peer: sever it.
        with self._cond:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._join_threads(5.0)
        if self._core is not None:
            self._core.flush()

    def _join_threads(self, budget: float) -> None:
        """Join the acceptor and every handler, within ``budget`` seconds in all."""
        current = threading.current_thread()
        deadline = time.monotonic() + budget
        with self._cond:
            threads = list(self._threads)
        for thread in threads:
            if thread is not current:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))


def run_network_client(
    host: str,
    port: int,
    *,
    worker_name: str | None = None,
    max_tasks: int | None = None,
    crash_after: int | None = None,
    hang_after: int | None = None,
    slow_down: float | None = None,
    corrupt_first: bool = False,
    heartbeat_interval: float | None = 2.0,
) -> int:
    """Connect to a :class:`NetworkServer` and execute tasks until done.

    Returns the number of tasks completed.  While a task is computing, a
    background thread sends a heartbeat every ``heartbeat_interval`` seconds
    (``None`` disables them) so the server can tell "working" from "hung".

    The remaining knobs simulate non-dedicated-PC behaviour for the fault
    tests: ``max_tasks`` makes the client leave politely after that many
    tasks (a PC being reclaimed); ``crash_after`` makes it drop the
    connection *mid-task* (a powered-off PC; the abandoned task is
    reassigned); ``hang_after`` makes it accept a task and then go silent —
    no heartbeats, connection open — until the server cuts it off (a wedged
    process; the server's heartbeat timeout reclaims the task);
    ``slow_down`` adds that many seconds to every task while still
    heartbeating (a straggler; the server's ``task_deadline`` speculation
    should outrun it); ``corrupt_first`` poisons the first returned tally
    with a NaN (a broken client; merge-time validation must reject it).
    """
    import os

    name = worker_name or f"net-{os.getpid()}"
    completed = 0
    send_lock = threading.Lock()
    with socket.create_connection((host, port)) as sock:
        # Always advertise compression and codec support; the server
        # decides whether this connection actually uses them.
        send_message(
            sock, {"type": "hello", "worker": name, "compress": True, "codec": True}
        )
        session = recv_message(sock)
        if session.get("type") != "session":
            raise ValueError(f"expected session, got {session!r}")
        config = session["config"]
        wire_compress = bool(session.get("compress"))
        wire_codec = bool(session.get("codec"))

        while True:
            if max_tasks is not None and completed >= max_tasks:
                return completed  # leave politely: just stop pulling
            with send_lock:
                send_message(sock, {"type": "next"})
            message = recv_message(sock)
            if message.get("type") == "done":
                return completed
            if message.get("type") != "task":
                raise ValueError(f"unexpected message {message!r}")
            if crash_after is not None and completed >= crash_after:
                # Simulate a powered-off PC: vanish mid-task without a word.
                sock.shutdown(socket.SHUT_RDWR)
                return completed
            if hang_after is not None and completed >= hang_after:
                # Simulate a wedged process: hold the task, send nothing,
                # and sit on the open connection until the server drops us.
                try:
                    sock.settimeout(60.0)
                    recv_message(sock)
                except (OSError, ConnectionError):
                    pass
                return completed
            task: TaskSpec | SpanSpec = message["task"]

            stop_beats = threading.Event()

            def _beat() -> None:
                while not stop_beats.wait(heartbeat_interval):
                    try:
                        with send_lock:
                            send_message(sock, {"type": "heartbeat"})
                    except OSError:
                        return

            beater = None
            if heartbeat_interval is not None:
                beater = threading.Thread(target=_beat, daemon=True)
                beater.start()
            try:
                result = execute_unit(config, task, attempt=message["attempt"])
                if slow_down is not None:
                    time.sleep(slow_down)
            finally:
                stop_beats.set()
            if beater is not None:
                beater.join(timeout=5.0)
            result.worker_id = name
            if corrupt_first and completed == 0:
                # Poison *before* freezing so the corruption travels through
                # the codec exactly like a genuinely broken client's would.
                result.tally.diffuse_reflectance_weight = float("nan")
            if wire_codec:
                freeze_result(result)
            with send_lock:
                send_message(
                    sock,
                    {"type": "result", "result": result},
                    compress=wire_compress,
                )
            completed += 1
