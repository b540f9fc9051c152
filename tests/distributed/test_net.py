"""Tests for the TCP network mode of the distributed platform."""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core import SimulationConfig
from repro.distributed import (
    DataManager,
    NetworkServer,
    ProtocolError,
    SerialBackend,
    recv_message,
    run_network_client,
    send_message,
)
from repro.sources import PencilBeam
from repro.tissue import LayerStack, OpticalProperties


@pytest.fixture
def net_config():
    props = OpticalProperties(mu_a=1.0, mu_s=10.0, g=0.8, n=1.4)
    return SimulationConfig(stack=LayerStack.homogeneous(props), source=PencilBeam())


def run_clients(port: int, count: int, **kwargs) -> list[threading.Thread]:
    threads = [
        threading.Thread(
            target=run_network_client,
            args=("127.0.0.1", port),
            kwargs={"worker_name": f"client-{i}", **kwargs},
            daemon=True,
        )
        for i in range(count)
    ]
    for t in threads:
        t.start()
    return threads


class TestFraming:
    def test_round_trip(self):
        server, client = socket.socketpair()
        with server, client:
            send_message(client, {"hello": [1, 2, 3]})
            assert recv_message(server) == {"hello": [1, 2, 3]}

    def test_large_payload(self):
        server, client = socket.socketpair()
        payload = np.arange(200_000)
        with server, client:
            sender = threading.Thread(target=send_message, args=(client, payload))
            sender.start()
            received = recv_message(server)
            sender.join()
        np.testing.assert_array_equal(received, payload)

    def test_closed_peer_raises(self):
        server, client = socket.socketpair()
        client.close()
        with server:
            with pytest.raises(ConnectionError):
                recv_message(server)

    def test_truncated_length_prefix(self):
        server, client = socket.socketpair()
        with server:
            client.sendall(b"\x00\x00\x00")  # 3 of the 8 header bytes
            client.close()
            with pytest.raises(ConnectionError):
                recv_message(server)

    def test_corrupt_length_prefix_rejected(self):
        """A garbage prefix must not make the receiver allocate gigabytes."""
        server, client = socket.socketpair()
        with server, client:
            client.sendall(struct.pack(">Q", 1 << 60))
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_message(server)

    def test_oversized_message_rejected(self):
        server, client = socket.socketpair()
        with server, client:
            send_message(client, list(range(100)))
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_message(server, max_size=16)

    def test_garbage_payload_rejected(self):
        payload = b"definitely not a pickle"
        server, client = socket.socketpair()
        with server, client:
            client.sendall(struct.pack(">Q", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_message(server)

    def test_protocol_error_is_connection_error(self):
        # Handlers catch ConnectionError to drop a bad client; ProtocolError
        # must ride that path.
        assert issubclass(ProtocolError, ConnectionError)


class TestCompression:
    def test_round_trip_shrinks_wire_bytes(self):
        payload = {"grid": np.zeros(50_000)}  # highly compressible
        saved: list[int] = []
        server, client = socket.socketpair()
        with server, client:
            sender = threading.Thread(
                target=send_message,
                args=(client, payload),
                kwargs={"compress": True, "saved_cb": saved.append},
            )
            sender.start()
            received = recv_message(server)
            sender.join()
        np.testing.assert_array_equal(received["grid"], payload["grid"])
        assert saved and saved[0] > 0  # net.bytes_saved accounting hook

    def test_small_frames_skip_compression(self):
        saved: list[int] = []
        server, client = socket.socketpair()
        with server, client:
            send_message(client, {"type": "next"}, compress=True,
                         saved_cb=saved.append)
            header = struct.unpack(">Q", server.recv(8, socket.MSG_PEEK))[0]
            assert not header & (1 << 63)  # flag bit clear: plain frame
            assert recv_message(server) == {"type": "next"}
        assert saved == []

    def test_off_by_default(self):
        server, client = socket.socketpair()
        with server, client:
            send_message(client, list(range(2000)))  # > _COMPRESS_MIN pickled
            header = struct.unpack(">Q", server.recv(8, socket.MSG_PEEK))[0]
            assert not header & (1 << 63)
            assert recv_message(server) == list(range(2000))

    def test_corrupt_compressed_payload_rejected(self):
        garbage = b"this is not a zlib stream at all"
        server, client = socket.socketpair()
        with server, client:
            header = struct.pack(">Q", (1 << 63) | len(garbage))
            client.sendall(header + garbage)
            with pytest.raises(ProtocolError, match="compressed"):
                recv_message(server)

    def test_zlib_bomb_capped(self):
        """A frame must not decompress past max_size (zlib-bomb guard)."""
        import pickle
        import zlib

        bomb = zlib.compress(pickle.dumps(bytes(1 << 20)))
        server, client = socket.socketpair()
        with server, client:
            client.sendall(struct.pack(">Q", (1 << 63) | len(bomb)) + bomb)
            with pytest.raises(ProtocolError, match="cap"):
                recv_message(server, max_size=4096)

    def test_end_to_end_negotiated_compression(self, net_config):
        from repro.observe import Telemetry

        tel = Telemetry.in_memory()
        server = NetworkServer(
            net_config, n_photons=400, seed=7, task_size=100,
            compress=True, telemetry=tel,
        ).start()
        threads = run_clients(server.port, 2)
        report = server.wait(timeout=120)
        for t in threads:
            t.join(timeout=30)
        serial = DataManager(net_config, 400, seed=7, task_size=100).run(
            SerialBackend()
        )
        assert report.tally == serial.tally  # bitwise, compression lossless
        counters = {c["name"]: c["value"] for c in report.metrics["counters"]}
        assert counters.get("net.bytes_saved", 0) > 0


class TestServerValidation:
    def test_constructor_rejects_bad_parameters(self, net_config):
        with pytest.raises(ValueError, match="n_photons"):
            NetworkServer(net_config, n_photons=-1)
        with pytest.raises(ValueError, match="task_size"):
            NetworkServer(net_config, n_photons=1, task_size=0)
        with pytest.raises(ValueError, match="max_retries"):
            NetworkServer(net_config, n_photons=1, max_retries=-1)


class TestNetworkRun:
    def test_single_client_equals_serial(self, net_config):
        server = NetworkServer(net_config, n_photons=500, seed=3, task_size=100).start()
        threads = run_clients(server.port, 1)
        report = server.wait(timeout=120)
        for t in threads:
            t.join(timeout=30)
        serial = DataManager(net_config, 500, seed=3, task_size=100).run(SerialBackend())
        assert report.tally.summary() == serial.tally.summary()
        assert report.n_tasks == 5

    def test_many_clients_same_result(self, net_config):
        server = NetworkServer(net_config, n_photons=600, seed=5, task_size=100).start()
        threads = run_clients(server.port, 4)
        report = server.wait(timeout=120)
        for t in threads:
            t.join(timeout=30)
        serial = DataManager(net_config, 600, seed=5, task_size=100).run(SerialBackend())
        assert report.tally.summary() == serial.tally.summary()
        # The work was actually distributed.
        assert len(report.per_worker()) >= 2

    def test_late_client_joins(self, net_config):
        server = NetworkServer(net_config, n_photons=800, seed=1, task_size=100).start()
        first = run_clients(server.port, 1, worker_name="early")
        time.sleep(0.3)
        second = run_clients(server.port, 1, worker_name="late")
        report = server.wait(timeout=120)
        for t in first + second:
            t.join(timeout=30)
        assert report.tally.n_launched == 800

    def test_zero_photons(self, net_config):
        server = NetworkServer(net_config, n_photons=0).start()
        report = server.wait(timeout=10)
        assert report.n_tasks == 0
        assert report.tally.n_launched == 0

    def test_wait_timeout(self, net_config):
        server = NetworkServer(net_config, n_photons=1000, task_size=100).start()
        try:
            with pytest.raises(TimeoutError):
                server.wait(timeout=0.2)  # no clients connected
        finally:
            server.close()

    def test_double_start_rejected(self, net_config):
        server = NetworkServer(net_config, n_photons=0).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.close()


class TestShutdown:
    def test_wait_returns_promptly_and_leaves_no_thread(self, net_config):
        """Once the clients are dismissed, wait() is back within 0.5 s of the
        last merge and nothing the server started outlives it."""
        before = set(threading.enumerate())
        merges: list[float] = []
        server = NetworkServer(
            net_config, n_photons=400, seed=3, task_size=100,
            progress=lambda done, total: merges.append(time.perf_counter()),
        ).start()
        clients = run_clients(server.port, 2)
        report = server.wait(timeout=120)
        returned = time.perf_counter()
        assert report.tally.n_launched == 400 and len(merges) == 4
        assert returned - merges[-1] < 0.5
        for t in clients:
            t.join(timeout=30)
        assert set(threading.enumerate()) - before == set()

    def test_close_without_clients_leaves_no_thread(self, net_config):
        before = set(threading.enumerate())
        server = NetworkServer(net_config, n_photons=1000, task_size=100).start()
        started = time.perf_counter()
        server.close()
        assert time.perf_counter() - started < 0.5
        assert set(threading.enumerate()) - before == set()


class TestNetworkFaults:
    def test_crashing_client_tasks_reassigned(self, net_config):
        """A client that vanishes mid-task must not lose its task."""
        server = NetworkServer(
            net_config, n_photons=600, seed=9, task_size=100, max_retries=3
        ).start()
        # One client crashes after 2 tasks; a healthy one finishes the job.
        crasher = run_clients(server.port, 1, worker_name="crasher", crash_after=2)
        healthy = run_clients(server.port, 1, worker_name="healthy")
        report = server.wait(timeout=120)
        for t in crasher + healthy:
            t.join(timeout=30)
        assert report.tally.n_launched == 600
        # Physics identical to a clean serial run despite the crash.
        serial = DataManager(net_config, 600, seed=9, task_size=100).run(SerialBackend())
        assert report.tally.summary() == serial.tally.summary()

    def test_polite_departure(self, net_config):
        """A client that leaves after max_tasks is not an error."""
        server = NetworkServer(net_config, n_photons=500, seed=2, task_size=100).start()
        part_timer = run_clients(server.port, 1, worker_name="part-timer", max_tasks=2)
        finisher = run_clients(server.port, 1, worker_name="finisher")
        report = server.wait(timeout=120)
        for t in part_timer + finisher:
            t.join(timeout=30)
        assert report.tally.n_launched == 500
        assert report.retries == 0  # nothing was lost, nothing retried

    def test_hung_client_detected_and_task_reassigned(self, net_config):
        """A silent-but-connected client must not stall the run forever.

        The hung client sends no heartbeats, so the server's heartbeat
        timeout fires, the connection is dropped and the task requeued for
        the healthy client.
        """
        server = NetworkServer(
            net_config, n_photons=400, seed=7, task_size=100,
            heartbeat_timeout=0.5,
        ).start()
        hanger = run_clients(server.port, 1, worker_name="hanger", hang_after=0)
        time.sleep(0.3)  # let the hanger claim its task first
        healthy = run_clients(server.port, 1, worker_name="healthy")
        report = server.wait(timeout=120)
        for t in hanger + healthy:
            t.join(timeout=30)
        assert report.tally.n_launched == 400
        assert report.retries >= 1
        assert report.worker_health["hanger"].failures >= 1
        assert all(r.worker_id == "healthy" for r in report.task_results)
        serial = DataManager(net_config, 400, seed=7, task_size=100).run(SerialBackend())
        assert report.tally.summary() == serial.tally.summary()

    def test_straggler_speculatively_redispatched(self, net_config):
        """A slow (heartbeating) client is outrun by a speculative duplicate."""
        server = NetworkServer(
            net_config, n_photons=300, seed=4, task_size=100,
            task_deadline=0.3,
        ).start()
        slow = run_clients(
            server.port, 1, worker_name="slow",
            slow_down=1.5, max_tasks=1, heartbeat_interval=0.1,
        )
        time.sleep(0.3)  # let the slow client claim its task first
        fast = run_clients(server.port, 1, worker_name="fast")
        report = server.wait(timeout=120)
        for t in slow + fast:
            t.join(timeout=30)
        assert report.tally.n_launched == 300
        assert report.speculative_duplicates >= 1
        serial = DataManager(net_config, 300, seed=4, task_size=100).run(SerialBackend())
        assert report.tally.summary() == serial.tally.summary()

    def test_corrupt_result_rejected_and_retried(self, net_config):
        """Merge-time validation rejects a poisoned tally; the retry wins."""
        server = NetworkServer(net_config, n_photons=300, seed=6, task_size=100).start()
        threads = run_clients(server.port, 1, worker_name="fuzzy", corrupt_first=True)
        report = server.wait(timeout=120)
        for t in threads:
            t.join(timeout=30)
        assert report.tally.n_launched == 300
        assert report.retries == 1
        assert report.worker_health["fuzzy"].failures == 1
        serial = DataManager(net_config, 300, seed=6, task_size=100).run(SerialBackend())
        assert report.tally.summary() == serial.tally.summary()

    def test_blacklisted_worker_refused_work(self, net_config):
        """After blacklisting, a worker's next pull is answered with done."""
        server = NetworkServer(
            net_config, n_photons=200, seed=8, task_size=100,
            blacklist_after=1,
        ).start()
        bad = run_clients(server.port, 1, worker_name="bad", corrupt_first=True)
        time.sleep(0.3)
        good = run_clients(server.port, 1, worker_name="good")
        report = server.wait(timeout=120)
        for t in bad + good:
            t.join(timeout=30)
        assert report.worker_health["bad"].blacklisted
        # Every merged result came from the healthy client.
        assert all(r.worker_id == "good" for r in report.task_results)
        assert report.tally.n_launched == 200

    def test_empty_run_report_fields(self, net_config):
        server = NetworkServer(net_config, n_photons=0).start()
        report = server.wait(timeout=10)
        assert report.per_worker() == {}
        assert report.retries == 0
        assert report.speculative_duplicates == 0
        assert report.worker_health == {}
