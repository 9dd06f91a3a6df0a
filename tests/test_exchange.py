import contextlib
import http.client
import io
import itertools
import os
import socket
import stat
import tempfile
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from wifitrace import exchange
from wifitrace.cli import main
from wifitrace.detection import DetectionConfig, match_and_notify
from wifitrace.exchange import (
    ExchangeError,
    ProfileStore,
    PublishedRecord,
    SyncState,
    _MAX_BODY_BYTES,
    _frame,
    _frames,
    _read_frames,
    client_sync,
    fetch_since,
    publish,
    serve_in_thread,
)
from wifitrace.model import (
    ProcessedProfile,
    ProcessedVector,
    ProfileSegment,
    SignalId,
    SignalProfile,
    SignalVector,
)
from wifitrace.profileio import (ProfileFormatError, parse_profile,
                                 serialize_profile)

from conftest import ID_POOL

X = ID_POOL[0]


def processed_bytes(label="c", lo=-70, hi=-50, t_end=1860) -> bytes:
    profile = ProcessedProfile(
        [ProfileSegment(ProcessedVector({X: (lo, hi)}), 0, t_end)],
        case_label=label)
    return serialize_profile(profile)


def large_processed_bytes(label: str) -> bytes:
    """A processed profile of about 100 KB: 160 segments of 8 ids."""
    segments = [ProfileSegment(ProcessedVector(
        {sid: (-90 + j % 40, -40) for sid in ID_POOL[j % 56:j % 56 + 8]}),
        60 * j, 60 * j + 60) for j in range(160)]
    return serialize_profile(ProcessedProfile(segments, case_label=label))


def wire_frame(record_id: int, at: int, body: bytes) -> bytes:
    """A frame as the wire protocol defines it."""
    return b"record id=%d at=%d len=%d\n%s\n" % (record_id, at, len(body),
                                                  body)


def get_profiles(endpoint: str, since: int) -> tuple[str, bytes]:
    """The Content-Length header and the body of a GET."""
    with urllib.request.urlopen(
            f"{endpoint}/v1/profiles?since={since}") as resp:
        return resp.headers["Content-Length"], resp.read()


def raw_post(endpoint: str, head: str, body: bytes = b"",
             hang_up: bool = False) -> bytes:
    """POST over a socket that stays open for writing, unless ``hang_up``
    closes its sending side after the body; everything the relay sends
    until it closes the connection. A relay that waits for more of the body
    instead fails the read's timeout."""
    host, port = endpoint.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(f"POST /v1/profiles HTTP/1.1\r\nHost: relay\r\n"
                     f"{head}\r\n".encode("latin-1") + body)
        if hang_up:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@contextlib.contextmanager
def canned_relay(reply: bytes, connections: int = 1):
    """A raw socket server that answers each of ``connections`` requests with
    ``reply`` and hangs up; yields its endpoint and the requests it read."""
    listener = socket.create_server(("127.0.0.1", 0))
    requests = []

    def serve():
        for _ in range(connections):
            conn, _ = listener.accept()
            with conn:
                requests.append(conn.recv(65536))
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", requests
    finally:
        thread.join(timeout=5)
        listener.close()


@pytest.fixture
def store(tmp_path):
    return ProfileStore(tmp_path / "store")


@pytest.fixture
def server(store):
    with serve_in_thread(store) as srv:
        yield srv


def test_serve_in_thread_shuts_the_relay_down_on_exit(store):
    with serve_in_thread(store) as server:
        assert fetch_since(server.endpoint, 0) == []
        host, port = server.server_address[:2]
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, port), timeout=5).close()


class TestProfileStore:
    def test_ids_start_at_one_and_increase(self, store):
        assert store.publish(processed_bytes("a")) == 1
        assert store.publish(processed_bytes("b")) == 2

    def test_idempotent_on_identical_bytes(self, store):
        data = processed_bytes()
        assert store.publish(data) == store.publish(data) == 1

    def test_republish_skips_parsing(self, store, monkeypatch):
        data = processed_bytes()
        assert store.publish(data) == 1
        calls = []
        real_check = exchange._check_processed
        monkeypatch.setattr(exchange, "_check_processed",
                            lambda bodies: calls.append(bodies)
                            or real_check(bodies))
        assert store.publish(data) == 1
        assert calls == []
        # bodies that never parsed are not in the digest index
        for bad in (b"vcontact/1 processed\nt=10..5\n",
                    serialize_profile(SignalProfile([SignalVector({X: -50}, 0)]))):
            for _ in range(2):
                with pytest.raises(ProfileFormatError):
                    store.publish(bad)
        assert len(calls) == 4

    def test_rejects_malformed(self, store):
        with pytest.raises(ProfileFormatError):
            store.publish(b"vcontact/1 processed\nt=10..5\n")
        with pytest.raises(ProfileFormatError):
            store.publish(processed_bytes()[:-7])

    def test_rejects_raw_signal_profiles(self, store):
        raw = serialize_profile(SignalProfile([SignalVector({X: -50}, 0)]))
        with pytest.raises(ProfileFormatError, match="processed"):
            store.publish(raw)

    def test_log_entry_is_fsynced_before_the_first_publish(
            self, tmp_path, monkeypatch):
        events = []
        real_fsync = exchange.os.fsync

        def fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                          else "file")
            real_fsync(fd)

        monkeypatch.setattr(exchange.os, "fsync", fsync)
        store = ProfileStore(tmp_path / "store")
        store.publish(processed_bytes())
        events.append("published")
        # the log's entry in store/, then store/'s entry in tmp_path
        assert events == ["dir", "dir", "file", "published"]
        ProfileStore(tmp_path / "store")
        assert events == ["dir", "dir", "file", "published"]

    def test_failed_append_leaves_no_frame_in_the_log(
            self, tmp_path, monkeypatch):
        real_fsync = exchange.os.fsync
        failures = [OSError("fsync failed")]

        def fsync(fd):
            if failures:
                raise failures.pop()
            real_fsync(fd)

        store = ProfileStore(tmp_path / "store")
        monkeypatch.setattr(exchange.os, "fsync", fsync)
        data = processed_bytes()
        with pytest.raises(OSError, match="fsync failed"):
            store.publish(data)
        assert store.log_path.stat().st_size == 0
        assert store.publish(data) == 1
        assert [r.record_id for r in store.fetch_since(0)] == [1]
        reopened = ProfileStore(tmp_path / "store")
        assert [(r.record_id, r.profile_bytes)
                for r in reopened.fetch_since(0)] == [(1, data)]

    def test_every_directory_the_store_creates_is_fsynced(
            self, tmp_path, monkeypatch):
        synced = []
        real_fsync = exchange.os.fsync

        def fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(exchange.os, "fsync", fsync)
        path = tmp_path / "a" / "b" / "store"
        ProfileStore(path)
        # up to and including tmp_path, the first ancestor that existed
        assert synced == [(True, d.stat().st_ino) for d in
                          (path, path.parent, path.parent.parent, tmp_path)]
        ProfileStore(path)
        assert len(synced) == 4

    def test_fetch_since_filters_and_orders(self, store):
        for label in "abc":
            store.publish(processed_bytes(label))
        assert [r.record_id for r in store.fetch_since(0)] == [1, 2, 3]
        assert [r.record_id for r in store.fetch_since(2)] == [3]
        assert store.fetch_since(3) == []
        with pytest.raises(ValueError):
            store.fetch_since(-1)

    def test_bytes_preserved_exactly(self, store):
        data = processed_bytes("exact")
        store.publish(data)
        assert store.fetch_since(0)[0].profile_bytes == data

    def test_replay_restores_state(self, tmp_path):
        first = ProfileStore(tmp_path / "s")
        data = processed_bytes()
        first.publish(data)
        first.publish(processed_bytes("other"))
        second = ProfileStore(tmp_path / "s")
        assert second.last_record_id == 2
        assert second.publish(data) == 1  # digest index survives replay

    def test_torn_tail_dropped_on_replay(self, tmp_path):
        store = ProfileStore(tmp_path / "s")
        store.publish(processed_bytes("a"))
        store.publish(processed_bytes("b"))
        log = tmp_path / "s" / ProfileStore.LOG_NAME
        log.write_bytes(log.read_bytes()[:-9])  # crash mid-append
        recovered = ProfileStore(tmp_path / "s")
        assert recovered.last_record_id == 1
        assert len(recovered.fetch_since(0)) == 1

    def test_crash_at_every_offset_of_the_last_frame(self, tmp_path):
        store = ProfileStore(tmp_path / "s")
        store.publish(processed_bytes("a"))
        store.publish(processed_bytes("b"))
        first = store.fetch_since(0)[0]
        log = tmp_path / "s" / ProfileStore.LOG_NAME
        whole = log.read_bytes()
        for cut in range(len(_frame(first)), len(whole)):
            log.write_bytes(whole[:cut])
            assert ProfileStore(tmp_path / "s").fetch_since(0) == [first], cut
            assert log.read_bytes() == _frame(first), cut

    # a record's id is its position in the log, which the index relies on
    @pytest.mark.parametrize("ids, bad", [((1, 3), 1), ((2, 1), 0)])
    def test_replay_refuses_ids_that_skip(self, tmp_path, ids, bad):
        frames = [_frame(PublishedRecord(rid, processed_bytes(str(rid)), 0))
                  for rid in ids]
        (tmp_path / "s").mkdir()
        log = tmp_path / "s" / ProfileStore.LOG_NAME
        log.write_bytes(b"".join(frames))
        offset = len(b"".join(frames[:bad]))
        with pytest.raises(OSError, match=(
                f"{ProfileStore.LOG_NAME}: the frame at offset {offset} has "
                f"id {ids[bad]}, want {bad + 1}$")):
            ProfileStore(tmp_path / "s")
        assert log.read_bytes() == b"".join(frames)

    def test_retention_window(self, store):
        store.publish(processed_bytes("old"), now=1_000_000)
        store.publish(processed_bytes("new"), now=3_000_000)
        horizon = 3_000_000 + 86_400  # a day later, 28-day retention
        assert [r.record_id for r in store.fetch_since(0, now=horizon)] == [1, 2]
        much_later = 1_000_000 + 29 * 86_400
        assert [r.record_id for r in store.fetch_since(0, now=much_later)] == [2]

    def test_retention_horizon_is_inclusive(self, store):
        now = 5_000_000
        horizon = now - store.retention_days * 86_400
        store.publish(processed_bytes("at"), now=horizon)
        store.publish(processed_bytes("before"), now=horizon - 1)
        assert [r.record_id for r in store.fetch_since(0, now=now)] == [1]

    @pytest.mark.parametrize("days", [0, -1, float("nan"), float("-inf")])
    def test_retention_must_be_positive(self, tmp_path, days):
        with pytest.raises(ValueError, match="retention_days must be > 0"):
            ProfileStore(tmp_path / "s", retention_days=days)
        assert not (tmp_path / "s").exists()

    def test_infinite_retention_keeps_every_record(self, tmp_path):
        store = ProfileStore(tmp_path / "s", retention_days=float("inf"))
        store.publish(processed_bytes("old"), now=0)
        assert len(store.fetch_since(0, now=10**12)) == 1

    def test_fetch_since_equals_a_full_scan(self, tmp_path, rng):
        # publish times out of order, as clocks and the ``now`` argument allow
        store = ProfileStore(tmp_path / "s", retention_days=1)
        published = []
        for i in range(40):
            at = rng.randint(0, 5 * 86_400)
            rid = store.publish(processed_bytes(f"case-{i}"), now=at)
            published.append(PublishedRecord(rid, processed_bytes(f"case-{i}"), at))
        for _ in range(300):
            cursor = rng.randint(0, 45)
            now = rng.randint(0, 7 * 86_400)
            expected = [r for r in published if r.record_id > cursor
                        and r.published_at >= now - 86_400]
            assert store.fetch_since(cursor, now=now) == expected

    def test_memory_holds_an_index_not_the_records(self, tmp_path):
        store = ProfileStore(tmp_path / "s")
        store.publish(large_processed_bytes("warm-up"))
        published = 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(40):
                body = large_processed_bytes(f"case-{i}")
                published += len(body)
                store.publish(body)
            del body
            grown = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            replayed = ProfileStore(tmp_path / "s")
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert replayed.last_record_id == 41
        assert published > 40 * 90_000
        assert grown < published / 20
        assert kept < published / 20
        # the replay holds a frame or two at a time, never the log
        assert peak < 4 * published / 40

    def test_concurrent_publishes_totally_ordered(self, store):
        acked = []
        lock = threading.Lock()

        def worker(i):
            rid = store.publish(processed_bytes(f"case-{i}"))
            with lock:
                acked.append((rid, processed_bytes(f"case-{i}")))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(rid for rid, _ in acked) == list(range(1, 101))
        fetched = store.fetch_since(0)
        assert [r.record_id for r in fetched] == list(range(1, 101))
        # the log replays to exactly the acknowledged records
        replayed = ProfileStore(store.log_path.parent).fetch_since(0)
        assert [(r.record_id, r.profile_bytes)
                for r in replayed] == sorted(acked)


class StoreMachine(RuleBasedStateMachine):
    """A real store next to a model of the records it acknowledged, through
    duplicates, refused bodies, failed fsyncs, crashes mid-append, restarts
    and fetches at the retention horizon."""

    DAY = 86_400

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.store = ProfileStore(self.dir.name, retention_days=1)
        self.model: list[PublishedRecord] = []
        self.labels = itertools.count()
        self.cursor, self.now = 0, 0

    def teardown(self):
        self.dir.cleanup()

    def new_body(self) -> bytes:
        return processed_bytes(f"case-{next(self.labels)}")

    @rule(at=st.integers(0, 3 * DAY))
    def publish_new(self, at):
        record = PublishedRecord(len(self.model) + 1, self.new_body(), at)
        assert self.store.publish(record.profile_bytes,
                                  now=at) == record.record_id
        self.model.append(record)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), at=st.integers(0, 3 * DAY))
    def publish_again(self, data, at):
        record = data.draw(st.sampled_from(self.model))
        assert self.store.publish(record.profile_bytes,
                                  now=at) == record.record_id

    @rule(body=st.sampled_from([
        b"", b"vcontact/1 processed\nt=10..5\n", processed_bytes()[:-7],
        serialize_profile(SignalProfile([SignalVector({X: -50}, 0)])),
    ]))
    def publish_invalid(self, body):
        log = self.store.log_path.read_bytes()
        with pytest.raises(ProfileFormatError):
            self.store.publish(body)
        assert self.store.log_path.read_bytes() == log

    @rule()
    def publish_while_fsync_fails(self):
        log = self.store.log_path.read_bytes()
        with mock.patch.object(exchange.os, "fsync",
                               side_effect=OSError("fsync failed")):
            with pytest.raises(OSError, match="fsync failed"):
                self.store.publish(self.new_body())
        assert self.store.log_path.read_bytes() == log

    @rule(data=st.data(), at=st.integers(0, 3 * DAY))
    def crash_mid_append(self, data, at):
        frame = _frame(PublishedRecord(len(self.model) + 1, self.new_body(),
                                       at))
        cut = data.draw(st.integers(1, len(frame) - 1))
        with open(self.store.log_path, "ab") as log:
            log.write(frame[:cut])
        self.restart()

    @rule()
    def restart(self):
        self.store = ProfileStore(self.dir.name, retention_days=1)

    @rule(data=st.data())
    def fetch(self, data):
        self.cursor = data.draw(st.integers(0, len(self.model) + 1))
        if self.model:
            at = data.draw(st.sampled_from(self.model)).published_at
            # on the record's horizon, or one second past it
            self.now = at + self.DAY + data.draw(st.integers(0, 1))

    @invariant()
    def ids_are_dense(self):
        n = len(self.model)
        assert self.store.last_record_id == n
        assert [r.record_id for r in self.store.fetch_since(0, now=0)] == (
            list(range(1, n + 1)))

    @invariant()
    def fetch_gives_the_unexpired_records(self):
        want = [r for r in self.model if r.record_id > self.cursor
                and r.published_at >= self.now - self.DAY]
        assert self.store.fetch_since(self.cursor, now=self.now) == want
        # a GET sends the log's bytes at these runs, one run per gap
        runs = self.store.frame_runs(self.cursor, now=self.now)
        log = self.store.log_path.read_bytes()
        assert b"".join(log[offset:offset + length]
                        for _, offset, length in runs) == (
            b"".join(map(_frame, want)))
        assert [first for first, _, _ in runs] == [
            r.record_id for i, r in enumerate(want)
            if i == 0 or want[i - 1].record_id != r.record_id - 1]


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(max_examples=60, stateful_step_count=25,
                                     deadline=None)


class TestWireProtocol:
    def test_publish_fetch_round_trip(self, server):
        data = processed_bytes()
        rid = publish(server.endpoint, data)
        records = fetch_since(server.endpoint, 0)
        assert records == [PublishedRecord(rid, data, records[0].published_at)]

    def test_http_idempotency(self, server):
        data = processed_bytes()
        assert publish(server.endpoint, data) == publish(server.endpoint, data)

    def test_malformed_upload_is_4xx_with_diagnostic(self, server):
        with pytest.raises(ExchangeError, match="400"):
            publish(server.endpoint, b"truncated garbage")

    def test_rejected_publish_closes_its_reply(self, server, monkeypatch):
        replies = []
        urlopen = urllib.request.urlopen

        def spy(*args, **kwargs):
            try:
                return urlopen(*args, **kwargs)
            except urllib.error.HTTPError as exc:
                replies.append(exc)
                raise

        monkeypatch.setattr(urllib.request, "urlopen", spy)
        with pytest.raises(ExchangeError, match="400"):
            publish(server.endpoint, b"truncated garbage")
        (reply,) = replies
        assert reply.fp.closed

    def test_unknown_endpoint_404(self, server):
        with pytest.raises(ExchangeError, match="404"):
            publish(server.endpoint + "/nope", processed_bytes())

    def test_unknown_get_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(f"{server.endpoint}/v1/nope")
        with exc_info.value as reply:
            assert reply.code == 404

    def test_bad_since_parameter_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(f"{server.endpoint}/v1/profiles?since=abc")
        with exc_info.value as reply:
            assert reply.code == 400

    @pytest.mark.parametrize("query, status", [
        ("0", 200), ("7", 200), ("1_0", 400), ("+5", 400), ("%205", 400),
        ("%D9%A3", 400), ("-0", 400), ("5&since=x", 400), ("", 400),
    ])
    def test_since_is_one_plain_decimal(self, server, query, status):
        url = f"{server.endpoint}/v1/profiles?since={query}"
        try:
            with urllib.request.urlopen(url) as resp:
                got = resp.status
        except urllib.error.HTTPError as exc:
            with exc:
                got = exc.code
        assert got == status

    def test_upload_token_gate(self, store):
        with serve_in_thread(store, upload_token="sesame") as server:
            body = processed_bytes()
            statuses = []
            for token in ("", "X-Upload-Token: open\r\n",
                          "X-Upload-Token: s\u00e9same\r\n",
                          "X-Upload-Token: sesame\r\n"):
                reply = raw_post(server.endpoint,
                                 f"{token}Content-Length: {len(body)}\r\n"
                                 "Connection: close\r\n", body)
                statuses.append(int(reply.split()[1]))
            assert statuses == [401, 401, 401, 200]
            with pytest.raises(ExchangeError, match="401"):
                publish(server.endpoint, processed_bytes())
            rid = publish(server.endpoint, processed_bytes(),
                          upload_token="sesame")
            assert rid == 1
            # fetching stays open
            assert len(fetch_since(server.endpoint, 0)) == 1

    @pytest.mark.parametrize("length, status", [
        ("-1", 400), ("abc", 400), ("+5", 400), ("5.0", 400), ("\u00b2", 400),
        (str(_MAX_BODY_BYTES + 1), 413),
        # past int()'s 4300 digits: a 413 too, not a dead handler thread
        pytest.param("9" * 5000, 413, id="5000-digits"),
    ])
    def test_bad_content_length_refused_without_reading(self, server, length,
                                                        status):
        reply = raw_post(server.endpoint, f"Content-Length: {length}\r\n")
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in reply

    def test_body_at_the_size_bound_is_read(self, server, monkeypatch):
        monkeypatch.setattr(exchange, "_MAX_BODY_BYTES", 64)
        reply = raw_post(server.endpoint,
                         "Content-Length: 64\r\nConnection: close\r\n",
                         b"x" * 64)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"rejected: line 1" in reply
        reply = raw_post(server.endpoint, "Content-Length: 65\r\n")
        assert reply.startswith(b"HTTP/1.1 413 ")

    def test_rejection_echoes_a_bounded_diagnostic(self, server):
        body = b"x" * (1 << 20)
        reply = raw_post(server.endpoint, f"Content-Length: {len(body)}\r\n"
                         "Connection: close\r\n", body)
        head, _, text = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert text.startswith(b"rejected: line 1: bad ")
        assert len(text) <= 400

    def test_short_body_times_out_into_a_400(self, server, monkeypatch):
        assert vars(exchange._ExchangeHandler)["timeout"] > 0
        monkeypatch.setattr(exchange._ExchangeHandler, "timeout", 0.5)
        # declares five bytes, sends none, keeps the socket open
        reply = raw_post(server.endpoint, "Content-Length: 5\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.endswith(b"unreadable request body\n")

    def test_body_cut_short_is_refused_and_not_published(self, server,
                                                         store):
        # declares two segment lines and sends one, a whole profile by
        # itself, then hangs up
        body = serialize_profile(ProcessedProfile(
            [ProfileSegment(ProcessedVector({X: (-70, -50)}), t, t + 600)
             for t in (0, 900)], case_label="c"))
        cut = body[:body.rindex(b"\n", 0, -1) + 1]
        assert len(parse_profile(cut).segments) == 1
        reply = raw_post(server.endpoint, f"Content-Length: {len(body)}\r\n",
                         cut, hang_up=True)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert store.last_record_id == 0
        assert store.log_path.read_bytes() == b""

    def test_refused_body_is_not_read_as_a_request(self, store):
        with serve_in_thread(store, upload_token="sesame") as server:
            smuggled = b"GET /v1/profiles?since=0 HTTP/1.1\r\nHost: r\r\n\r\n"
            reply = raw_post(server.endpoint,
                             f"Content-Length: {len(smuggled)}\r\n", smuggled)
        assert reply.startswith(b"HTTP/1.1 401 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_chunked_body_is_refused_without_reading(self, server, store):
        body = processed_bytes()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        # raw_post returns only once the relay has closed the connection
        reply = raw_post(server.endpoint, "Transfer-Encoding: chunked\r\n",
                         chunked)
        assert reply.startswith(b"HTTP/1.1 411 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert store.fetch_since(0) == []

    def test_error_reply_detail_is_bounded(self):
        class Loud(BaseHTTPRequestHandler):
            def do_POST(self):
                body = b"x" * (1 << 20)
                self.send_response(500)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                # the client hangs up after the part it reads
                with contextlib.suppress(OSError):
                    self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = ThreadingHTTPServer(("127.0.0.1", 0), Loud)
        threading.Thread(target=stub.serve_forever, daemon=True).start()
        try:
            with pytest.raises(ExchangeError) as err:
                publish(f"http://127.0.0.1:{stub.server_address[1]}",
                        processed_bytes())
        finally:
            stub.shutdown()
            stub.server_close()
        message = str(err.value)
        assert message.startswith("500: xxx")
        assert len(message) <= len("500: ") + exchange._MAX_DETAIL_CHARS

    def test_frames_parse_back(self, server):
        for label in ("a", "b"):
            publish(server.endpoint, processed_bytes(label))
        raw = urllib.request.urlopen(
            f"{server.endpoint}/v1/profiles?since=0").read()
        records, consumed = _read_frames(io.BytesIO(raw), len(raw))
        assert consumed == len(raw)
        assert [r.record_id for r in records] == [1, 2]

    def test_fetch_body_is_the_concatenated_frames(self, server, store):
        now = int(time.time())
        bodies = [processed_bytes(label) for label in ("a", "bb", "")]
        frames = [wire_frame(store.publish(body, now=now), now, body)
                  for body in bodies]
        for since in (0, 2, 3):
            want = b"".join(frames[since:])
            assert get_profiles(server.endpoint, since) == (str(len(want)),
                                                             want)

    def test_fetch_body_skips_an_expired_frame_between_live_ones(
            self, server, store):
        now = int(time.time())
        expired = now - (store.retention_days + 1) * 86_400
        bodies = [processed_bytes(label) for label in "abc"]
        for body, at in zip(bodies, (now, expired, now)):
            store.publish(body, now=at)
        assert len(store.frame_runs(0)) == 2
        want = wire_frame(1, now, bodies[0]) + wire_frame(3, now, bodies[2])
        assert get_profiles(server.endpoint, 0) == (str(len(want)), want)
        assert b"".join(map(_frame, store.fetch_since(0))) == want
        want = wire_frame(3, now, bodies[2])
        assert get_profiles(server.endpoint, 1) == (str(len(want)), want)

    def test_fetch_past_the_last_id_is_an_empty_body(self, server, store):
        store.publish(processed_bytes())
        assert get_profiles(server.endpoint, 2) == ("0", b"")
        assert get_profiles(server.endpoint, 10**18) == ("0", b"")

    def test_fetch_body_after_a_torn_tail_was_cut_off(self, tmp_path):
        now = int(time.time())
        a, b, c = (processed_bytes(label) for label in "abc")
        first = ProfileStore(tmp_path / "s")
        first.publish(a, now=now)
        first.publish(b, now=now)
        log = first.log_path
        log.write_bytes(log.read_bytes()[:-9])  # crash mid-append
        store = ProfileStore(tmp_path / "s")
        with serve_in_thread(store) as server:
            assert store.publish(c, now=now) == 2
            want = wire_frame(1, now, a) + wire_frame(2, now, c)
            assert get_profiles(server.endpoint, 0) == (str(len(want)), want)
        assert log.read_bytes() == want

    def test_a_log_cut_short_under_the_relay_ends_the_connection(
            self, server, store, monkeypatch):
        for label in "ab":
            store.publish(processed_bytes(label))
        whole = store.log_path.read_bytes()
        os.truncate(store.log_path, len(whole) - 9)
        # HTTP/1.1 without "Connection: close": the relay must hang up, or
        # the client waits for the missing bytes until its timeout
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=5)
        try:
            conn.request("GET", "/v1/profiles?since=0")
            resp = conn.getresponse()
            assert resp.getheader("Content-Length") == str(len(whole))
            with pytest.raises(http.client.IncompleteRead) as cut:
                resp.read()
        finally:
            conn.close()
        assert cut.value.partial == whole[:-9]
        monkeypatch.setattr(exchange, "_BACKOFF", 0.01)
        with pytest.raises(ExchangeError, match="IncompleteRead"):
            fetch_since(server.endpoint, 0)
        with pytest.raises(OSError, match="cut short in record 2"):
            store.fetch_since(0)


# the relay's check and its 400 reply name a fault exactly as parse_profile
# does; a well-formed signal body is the one fault parse_profile accepts
@pytest.mark.parametrize("data, message", [
    (b"vcontact/2 processed\n", "line 1: bad header 'vcontact/2 processed' "
     "(want 'vcontact/1 signal|processed')"),
    (b"vcontact/1 processed\nt=0..10 zz:-60..-50\n",
     "line 2: bad signal id 'zz'"),
    (f"vcontact/1 processed\nt=0..10 {X.hex}:-60..+5\n".encode(),
     "line 2: bad rssi range '+5'"),
    (f"vcontact/1 processed\nt=5..5 {X.hex}:-60..-50\n".encode(),
     "line 2: tStart 5 must precede tEnd 5"),
    (f"vcontact/1 processed\nt=10..20 {X.hex}:-60..-50\n"
     f"t=5..20 {X.hex}:-60..-50\n".encode(),
     "segments must be ordered by tStart (10 followed by 5)"),
    (serialize_profile(SignalProfile([SignalVector({X: -50}, 0)])),
     "not a processed profile (scans stay on a device)"),
    (f"vcontact/1 signal\nt=10 {X.hex}:-50\nt=20 {X.hex}:weak\n".encode(),
     "line 3: bad rssi 'weak'"),
])
def test_every_reader_names_a_fault_alike(server, store, data, message):
    try:
        parsed = parse_profile(data)
    except ProfileFormatError as exc:
        assert (str(exc), exc.record) == (message, None)
    else:
        assert isinstance(parsed, SignalProfile)
    with pytest.raises(ProfileFormatError) as got:
        store.publish(data)
    assert (str(got.value), got.value.record) == (message, 0)
    reply = raw_post(server.endpoint, f"Content-Length: {len(data)}\r\n"
                     "Connection: close\r\n", data)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert reply.endswith(f"\r\n\r\nrejected: {message}\n".encode())
    assert store.fetch_since(0) == []


def test_a_signal_body_of_distinct_ids_costs_the_relay_its_size(store):
    """A signal body is rejected after the reader's checks alone: with a new
    id on each scan, what the check holds grows with the body, not with
    scans x ids. About 0.45 MB of scans peak at about 2.7 MB; a dense
    (scan x id) block of them would take 72 MB."""
    data = serialize_profile(SignalProfile([
        SignalVector({SignalId(n.to_bytes(32, "big")): -50}, n)
        for n in range(6000)]))
    tracemalloc.start()
    try:
        with pytest.raises(ProfileFormatError,
                           match="not a processed profile"):
            store.publish(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 400_000 < len(data) < 600_000
    assert peak < 9 * len(data)


# frames, or any bytes: what a log or a response may hold
FRAMED_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.builds(PublishedRecord, st.integers(0, 10**6),
                       st.binary(max_size=12), st.integers(-10**10, 10**10)),
             max_size=4).map(lambda rs: b"".join(map(_frame, rs))),
)


class TestFrames:
    def test_negative_length_rejected(self):
        data = b"record id=1 at=0 len=-1\n"
        assert _read_frames(io.BytesIO(data), len(data)) == ([], 0)

    @pytest.mark.parametrize("header", [
        b"record id=+1 at=0 len=1\n", b"record id=01 at=0 len=1\n",
        b"record id=1 at=0 len=01\n", b"record id=1 at=-0 len=1\n",
        b"record id=1 at=0 len=1 x=2\n", b"record  id=1 at=0 len=1\n",
        b"record id=1 len=1 at=0\n", b"record id=1_0 at=0 len=1\n",
    ])
    def test_only_canonical_headers(self, header):
        good = _frame(PublishedRecord(1, b"x", 0))
        data = good + header + b"x\n"
        records, consumed = _read_frames(io.BytesIO(data), len(data))
        assert consumed == len(good) and len(records) == 1

    def test_a_length_past_the_end_is_never_read(self, tmp_path):
        # 19 digits pass the header pattern but are no size a read can take
        good = PublishedRecord(1, b"x", 0)
        data = _frame(good) + b"record id=2 at=0 len=9999999999999999999\nx\n"
        assert _read_frames(io.BytesIO(data), len(data)) == (
            [good], len(_frame(good)))
        (tmp_path / "s").mkdir()
        log = tmp_path / "s" / ProfileStore.LOG_NAME
        log.write_bytes(data)
        assert ProfileStore(tmp_path / "s").fetch_since(0, now=0) == [good]
        assert log.read_bytes() == _frame(good)

    def test_truncated_response_is_retried_then_an_exchange_error(
            self, monkeypatch):
        monkeypatch.setattr(exchange, "_RETRIES", 2)
        monkeypatch.setattr(exchange, "_BACKOFF", 0.01)
        with canned_relay(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
                          b"record id=1", connections=2) as (endpoint, seen):
            with pytest.raises(ExchangeError, match="IncompleteRead"):
                fetch_since(endpoint, 0)
        assert len(seen) == 2

    @pytest.mark.parametrize("reply", [
        b"1_0\n", b"oops\n", b"10", b" 10\n", b"+10\n", b"010\n", b"10\n\n",
        b"\xd9\xa3\n", b"",
    ])
    def test_publish_accepts_only_the_relay_reply(self, monkeypatch, tmp_path,
                                                  reply):
        monkeypatch.setattr(exchange, "_request", lambda url, **kw: reply)
        with pytest.raises(ExchangeError, match="malformed publish reply"):
            publish("http://relay.invalid", processed_bytes())
        path = tmp_path / "case.processed"
        path.write_bytes(processed_bytes())
        assert main(["publish", str(path),
                     "--endpoint", "http://relay.invalid"]) == 1

    def test_client_reports_bad_frames_as_exchange_error(self, monkeypatch):
        monkeypatch.setattr(exchange, "_request",
                            lambda url, **kw: b"record id=1 at=0 len=-1\n")
        with pytest.raises(ExchangeError, match="malformed frame"):
            fetch_since("http://relay.invalid", 0)

    @settings(max_examples=300, deadline=None)
    @given(FRAMED_BYTES, st.binary(max_size=8), st.integers(0, 64))
    def test_parsed_prefix_reframes_exactly(self, clean, noise, at):
        data = clean[:at] + noise + clean[at:]
        records, good = _read_frames(io.BytesIO(data), len(data))
        assert 0 <= good <= len(data)
        assert b"".join(_frame(r) for r in records) == data[:good]

    def test_a_pipe_reads_like_a_seekable_stream(self):
        frames = [_frame(PublishedRecord(rid, processed_bytes(str(rid)), rid))
                  for rid in (1, 2, 3)]
        data = b"".join(frames)
        size = len(data) - len(frames[2])  # the third frame lies past size
        read, write = os.pipe()
        with open(write, "wb") as sink:
            sink.write(data)
        with open(read, "rb") as stream:
            assert not stream.seekable()
            assert list(_frames(stream, size)) == list(
                _frames(io.BytesIO(data), size))
            # the reader stopped exactly at size
            assert stream.read() == frames[2]

    @settings(max_examples=300, deadline=None)
    @given(FRAMED_BYTES, st.data())
    def test_a_size_reads_as_the_bytes_cut_there(self, data, draw):
        size = draw.draw(st.integers(0, len(data) + 1))
        stream = io.BytesIO(data)
        assert _read_frames(stream, size) == _read_frames(
            io.BytesIO(data[:size]), size)
        assert stream.tell() <= size


class TestClientSync:
    def user_profile(self) -> SignalProfile:
        return SignalProfile(
            [SignalVector({X: -60}, t) for t in range(0, 600, 60)])

    def test_match_appears_after_publish(self, server, tmp_path):
        state = SyncState(tmp_path / "client")
        report = client_sync(state, server.endpoint, self.user_profile())
        assert report.episodes == () and state.last_record_id == 0
        publish(server.endpoint, processed_bytes())
        report = client_sync(state, server.endpoint, self.user_profile())
        assert len(report.episodes) == 1
        assert state.last_record_id == 1

    def test_cursor_skips_already_seen(self, server, tmp_path):
        state = SyncState(tmp_path / "client")
        publish(server.endpoint, processed_bytes())
        client_sync(state, server.endpoint, self.user_profile())
        again = client_sync(state, server.endpoint, self.user_profile())
        assert again.flags == () and again.episodes == ()

    # none is a plain non-negative decimal of at most 19 significant digits,
    # the most a relay id has; int() reads all but the 5000 nines, which it
    # refuses past its digit limit
    @pytest.mark.parametrize("text", [
        "-3\n", "+1\n", "1_0\n", "١\n",
        pytest.param("1" + "0" * 19 + "\n", id="20 digits"),
        pytest.param("9" * 5000, id="5000 digits")])
    def test_cursor_that_is_not_a_plain_decimal_syncs_from_zero(
            self, server, tmp_path, text):
        publish(server.endpoint, processed_bytes())
        state = SyncState(tmp_path / "client")
        (tmp_path / "client" / "cursor").write_text(text, encoding="utf-8")
        assert state.last_record_id == 0
        report = client_sync(state, server.endpoint, self.user_profile())
        assert len(report.episodes) == 1 and state.last_record_id == 1

    @pytest.mark.parametrize("text", [
        "9" * 19, "007\n", "000\n",
        pytest.param("0" * 30 + "1" * 19 + "\n", id="zeros, then 19 digits")])
    def test_cursor_of_up_to_19_significant_digits_is_read(self, tmp_path,
                                                           text):
        state = SyncState(tmp_path / "client")
        (tmp_path / "client" / "cursor").write_text(text, encoding="utf-8")
        assert state.last_record_id == int(text)

    def test_cursor_is_fsynced_before_it_replaces_the_old_one(
            self, tmp_path, monkeypatch):
        state = SyncState(tmp_path / "client")
        state.advance(4)
        tmp = tmp_path / "client" / "cursor.tmp"
        events = []
        real_fsync, real_replace = exchange.os.fsync, exchange.os.replace

        def fsync(fd):
            # by inode and size: cursor.tmp is gone after the replace
            info = os.fstat(fd)
            events.append(("fsync", info.st_ino, info.st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", str(src), str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(exchange.os, "fsync", fsync)
        monkeypatch.setattr(exchange.os, "replace", replace)
        state.advance(9)
        cursor, directory = tmp_path / "client" / "cursor", tmp_path / "client"
        assert events == [
            ("fsync", cursor.stat().st_ino, len("9\n")),
            ("replace", str(tmp), str(cursor)),
            ("fsync", directory.stat().st_ino, directory.stat().st_size),
        ]
        assert state.last_record_id == 9 and not tmp.exists()

    def test_every_directory_the_state_creates_is_fsynced(
            self, tmp_path, monkeypatch):
        synced = []
        real_fsync = exchange.os.fsync

        def fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(exchange.os, "fsync", fsync)
        path = tmp_path / "a" / "b" / "client"
        SyncState(path)
        # the parent of each new directory, up to tmp_path, which existed
        assert synced == [(True, d.stat().st_ino) for d in
                          (path.parent, path.parent.parent, tmp_path)]
        SyncState(path)
        assert len(synced) == 3

    def test_raw_profile_record_is_an_exchange_error(self, tmp_path):
        # the relay never accepts one, so write its frame into the log
        now = int(time.time())
        raw = serialize_profile(SignalProfile([SignalVector({X: -50}, 0)]))
        relay_dir = tmp_path / "relay"
        relay_dir.mkdir()
        (relay_dir / ProfileStore.LOG_NAME).write_bytes(
            _frame(PublishedRecord(1, processed_bytes(), now))
            + _frame(PublishedRecord(2, raw, now)))
        state = SyncState(tmp_path / "client")
        with serve_in_thread(ProfileStore(relay_dir)) as server:
            with pytest.raises(ExchangeError,
                               match="record 2: not a processed profile"):
                client_sync(state, server.endpoint, self.user_profile())
        assert state.last_record_id == 0
        assert not (tmp_path / "client" / "cursor").exists()

    # the device's cursor moves to the last id of a reply, so a reply whose
    # ids do not ascend past the cursor is refused before anything is matched
    @pytest.mark.parametrize("cursor, ids", [(0, (2, 1)), (3, (3,)),
                                             (3, (2,)), (3, (4, 4))])
    def test_client_refuses_ids_that_do_not_ascend(self, monkeypatch,
                                                   tmp_path, cursor, ids):
        body = b"".join(_frame(PublishedRecord(rid, processed_bytes(), 0))
                        for rid in ids)
        monkeypatch.setattr(exchange, "_request", lambda url, **kw: body)
        state = SyncState(tmp_path / "client")
        state.advance(cursor)
        before = (tmp_path / "client" / "cursor").read_bytes()
        with pytest.raises(ExchangeError, match="ids must ascend"):
            client_sync(state, "http://relay.invalid", self.user_profile())
        assert (tmp_path / "client" / "cursor").read_bytes() == before

    def test_network_failure_leaves_state_unchanged(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(exchange, "_RETRIES", 2)
        monkeypatch.setattr(exchange, "_BACKOFF", 0.01)
        state = SyncState(tmp_path / "client")
        state.advance(7)
        before = (tmp_path / "client" / "cursor").read_bytes()
        with pytest.raises(ExchangeError):
            client_sync(state, "http://127.0.0.1:1", self.user_profile())
        assert (tmp_path / "client" / "cursor").read_bytes() == before

    def test_sync_wire_capture_contains_only_the_cursor(self, tmp_path,
                                                        monkeypatch):
        # a one-shot raw socket server records exactly what a sync sends
        monkeypatch.setattr(exchange, "_RETRIES", 1)
        state = SyncState(tmp_path / "client")
        state.advance(3)
        with canned_relay(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n"
                          b"Connection: close\r\n\r\n") as (endpoint, captured):
            report = client_sync(state, endpoint, self.user_profile())
        wire = captured[0].decode("latin-1")
        request_line = wire.splitlines()[0]
        assert request_line == "GET /v1/profiles?since=3 HTTP/1.1"
        head, _, body = wire.partition("\r\n\r\n")
        assert body == ""  # nothing beyond headers leaves the device
        assert report.flags == () and report.episodes == ()


# a device's batch read equals parsing every record and matching them all

@pytest.fixture(scope="module")
def relay():
    """One server for every example; each example gives it a fresh store."""
    with tempfile.TemporaryDirectory() as root, \
            serve_in_thread(ProfileStore(Path(root))) as server:
        yield server


SHARED = ID_POOL[:5]  # every record and scan draws from a few shared ids


@st.composite
def sync_inputs(draw):
    # times on both sides of the int64 bounds, where the columns hold objects
    base = draw(st.sampled_from([0, 2**63 - 1500, -2**63 - 500]))
    ranges = st.dictionaries(
        st.sampled_from(SHARED),
        st.tuples(st.integers(-100, -50), st.integers(-50, 0)), max_size=4)
    records = []
    for _ in range(draw(st.integers(1, 4))):
        t = base + draw(st.integers(0, 1200))
        segments = []
        for _ in range(draw(st.integers(0, 4))):  # a segment may be empty
            end = t + draw(st.integers(1, 1800))
            segments.append(
                ProfileSegment(ProcessedVector(draw(ranges)), t, end))
            t += draw(st.integers(0, 600))
        label = draw(st.text(max_size=8))  # escaped on the wire
        records.append(serialize_profile(
            ProcessedProfile(segments, case_label=label)))
    scans = []
    t = base + draw(st.integers(0, 600))
    for _ in range(draw(st.integers(1, 15))):
        readings = draw(st.dictionaries(st.sampled_from(SHARED),
                                        st.integers(-100, 0), max_size=5))
        scans.append(SignalVector(readings, t))
        t += draw(st.sampled_from([60, 120]))
    cfg = DetectionConfig(alpha=draw(st.sampled_from([0.1, 0.2, 0.5])),
                          min_exposure=120)
    return records, SignalProfile(scans), cfg


@given(sync_inputs())
@settings(max_examples=40, deadline=None)
def test_client_sync_equals_matching_the_parsed_records(relay, inputs):
    records, user, cfg = inputs
    with tempfile.TemporaryDirectory() as root:
        relay.store = ProfileStore(Path(root) / "relay")
        for data in records:
            relay.store.publish(data)
        report = client_sync(SyncState(Path(root) / "device"),
                             relay.endpoint, user, cfg)
    published = [parse_profile(data) for data in dict.fromkeys(records)]
    assert report == match_and_notify(user, published, cfg)
