"""Publish/fetch exchange for processed profiles.

The decentralized flow needs exactly one shared piece: a dumb relay where
confirmed-case processed profiles are posted and from which every device
pulls whatever it has not seen yet, matching locally. Devices never upload
scans or identifiers; the only thing a sync sends upstream is its fetch
cursor.

Wire protocol (curl-friendly, byte-exact):

    POST /v1/profiles            body = profile file bytes -> "<recordId>\\n"
    GET  /v1/profiles?since=<id> -> concatenated frames, each
         "record id=<n> at=<epoch> len=<k>\\n" + k payload bytes + "\\n"

The server persists an append-only log of the same frames; recovery replays
the log and drops a torn trailing frame. Record ids are 1, 2, 3, ... in log
order, so a record's id is its position: replay refuses a log whose ids
skip or repeat. Publishing identical bytes twice returns the original record
id. In memory the server keeps only an index: each record's publish time,
frame offset and frame length, and the digests of the payloads.
``fetch_since`` reads from the log the runs of frames that a GET streams to
the socket with ``sendfile``; the frame reader takes a byte count and reads
any stream, seekable or not.

A device's round (``fetch_and_match``) reads the fetched records straight
into kernel columns and builds the scan batch of only the slice of the
user's scans that their windows may cover: ``client_sync`` from its dict
scans, ``wifitrace sync`` straight from its profile's bytes, with no
SignalVector. A round matches the scans only against the records it
fetched.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import http.client
import io
import itertools
import os
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from . import detection
from .detection import ContactReport, DetectionConfig
from .model import SignalProfile
from .profileio import ProfileFormatError, _check_processed, _read_processed
from .similarity import _ScanBatch

DEFAULT_RETENTION_DAYS = 28
# far above the largest processed profile a day of scans makes (~130 KB)
_MAX_BODY_BYTES = 16 << 20
# a parse error quotes the bad input; a 400 echoes no more of it than this,
# and the client reads no more of an error reply
_MAX_DETAIL_CHARS = 300
TOKEN_HEADER = "X-Upload-Token"
TOKEN_ENV_VAR = "WIFITRACE_UPLOAD_TOKEN"


class ExchangeError(Exception):
    """Exchange request failed after retries; local state is unchanged."""


@dataclass(frozen=True)
class PublishedRecord:
    record_id: int
    profile_bytes: bytes
    published_at: int


def _frame(record: PublishedRecord) -> bytes:
    return (
        f"record id={record.record_id} at={record.published_at} "
        f"len={len(record.profile_bytes)}\n"
    ).encode("ascii") + record.profile_bytes + b"\n"


# exactly the headers _frame writes: canonical decimals of at most 19 digits
# (ids, epochs and lengths all fit), a sign only on the publish time
_HEADER = re.compile(
    rb"record id=(0|[1-9][0-9]{0,18}) at=(0|-?[1-9][0-9]{0,18}) "
    rb"len=(0|[1-9][0-9]{0,18})\n"
)
_MAX_HEADER_LINE = 79  # one byte past the longest header _HEADER matches


def _frames(stream: io.BufferedIOBase,
            size: int) -> Iterator[tuple[int, int, PublishedRecord]]:
    """Parse frames from the next ``size`` bytes of any binary stream one at
    a time, reading no byte past them; yields each record with the offsets,
    from where the stream stood, where its frame starts and ends, and stops
    at the first frame that is not whole and well formed."""
    start = 0
    while header := _HEADER.fullmatch(
            stream.readline(min(_MAX_HEADER_LINE, size - start))):
        rid, at, length = map(int, header.groups())
        end = start + len(header[0]) + length + 1
        if end > size:  # torn: the payload is not all there
            return
        payload = stream.read(length)
        if stream.read(1) != b"\n":
            return
        yield start, end, PublishedRecord(rid, payload, at)
        start = end


def _read_frames(stream: io.BufferedIOBase,
                 size: int) -> tuple[list[PublishedRecord], int]:
    """The records of ``_frames`` and the offset just past the last good
    frame."""
    records, good = [], 0
    for _, good, record in _frames(stream, size):
        records.append(record)
    return records, good


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_durably(path: Path, data: bytes) -> None:
    """Replace the file ``path`` with ``data``. The new bytes are fsynced in
    a temporary file next to it before they replace the old ones, so a crash
    leaves one or the other, never an empty or partial file; the directory
    fsync makes the replace itself durable. A write that fails removes the
    temporary file and leaves ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "wb")  # a file that could not be opened is not ours
    try:
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


def _make_dirs(path: Path) -> list[Path]:
    """Create a directory and its missing parents. Returns the directories
    whose entries changed, the parent of each one created, innermost first:
    each must be fsynced for the new directories to survive a power loss."""
    created = list(itertools.takewhile(
        lambda d: not d.exists(), (path, *path.parents)))
    path.mkdir(parents=True, exist_ok=True)
    return [d.parent for d in created]


class _Entry(NamedTuple):
    """Where a record's frame lies in the log; its id is its position in
    the index, plus one."""
    published_at: int
    offset: int
    frame_len: int


class ProfileStore:
    """Append-only, durably logged store of published processed profiles.

    Memory holds an index into the log, not the records: per record its
    publish time, frame offset and frame length, and a map from payload
    digest to id. Frames are read back from the log when fetched.

    Thread safe: publishes serialize through a lock (record ids form a total
    order consistent with acknowledgment order); reads take a snapshot.
    """

    LOG_NAME = "profiles.log"

    def __init__(self, data_dir, retention_days: float = DEFAULT_RETENTION_DAYS):
        if not retention_days > 0:  # NaN too; inf keeps every record
            raise ValueError(f"retention_days must be > 0, got {retention_days}")
        self._dir = Path(data_dir)
        changed = _make_dirs(self._dir)
        self.log_path = self._dir / self.LOG_NAME
        self._lock = threading.Lock()
        self._index: list[_Entry] = []
        self._by_digest: dict[bytes, int] = {}
        self.retention_days = retention_days
        if not self.log_path.exists():
            # the log's entry and that of every directory made for it are on
            # disk before any publish is acknowledged, so a power loss cannot
            # take an acked record
            self.log_path.touch()
            for directory in (self._dir, *changed):
                _fsync_dir(directory)
        self._replay()

    def _replay(self) -> None:
        # each payload is hashed and dropped as the log is read, so memory
        # holds the index, never the log
        index, by_digest, good = [], {}, 0
        with open(self.log_path, "r+b") as fh:
            size = os.fstat(fh.fileno()).st_size
            for start, good, record in _frames(fh, size):
                if record.record_id != len(index) + 1:
                    # the index finds a record by its id: refuse the log,
                    # and leave it as it is
                    raise OSError(
                        f"{self.log_path}: the frame at offset {start} has "
                        f"id {record.record_id}, want {len(index) + 1}")
                payload = record.profile_bytes
                by_digest[hashlib.sha256(payload).digest()] = record.record_id
                index.append(_Entry(record.published_at, start, good - start))
            if size > good:
                # torn tail from a crash mid-append: drop it
                fh.truncate(good)
        self._index = index
        self._by_digest = by_digest

    @property
    def last_record_id(self) -> int:
        return len(self._index)

    def publish(self, profile_bytes: bytes, now: int | None = None) -> int:
        """Validate, durably append, and return the record id.

        Re-publishing byte-identical content returns the original id
        without parsing it again: only bytes that passed validation are in
        the digest index.

        Raises:
            ProfileFormatError: bytes do not parse as a processed profile.
        """
        digest = hashlib.sha256(profile_bytes).digest()
        with self._lock:
            existing = self._by_digest.get(digest)
        if existing is not None:
            return existing
        _check_processed([profile_bytes])
        with self._lock:
            # the same bytes may have been appended while this one parsed
            existing = self._by_digest.get(digest)
            if existing is not None:
                return existing
            record = PublishedRecord(
                record_id=self.last_record_id + 1,
                profile_bytes=profile_bytes,
                published_at=int(time.time()) if now is None else int(now),
            )
            frame = _frame(record)
            # unbuffered: no bytes of a failed append are left to flush later
            with open(self.log_path, "ab", buffering=0) as fh:
                offset = fh.tell()  # append mode opens at the end
                try:
                    view = memoryview(frame)
                    while view:  # a raw write may be short
                        view = view[fh.write(view):]
                    os.fsync(fh.fileno())
                except BaseException:
                    # the frame was never acknowledged: a replay must not
                    # find it, nor a retry append after it
                    fh.truncate(offset)
                    raise
            self._index.append(_Entry(record.published_at, offset, len(frame)))
            self._by_digest[digest] = record.record_id
            return record.record_id

    def fetch_since(
        self, last_record_id: int, now: int | None = None
    ) -> list[PublishedRecord]:
        """All unexpired records newer than the cursor, ascending by id."""
        records = []
        with open(self.log_path, "rb") as log:
            for first, offset, length in self.frame_runs(last_record_id, now):
                log.seek(offset)
                read, good = _read_frames(log, length)
                if good < length:
                    raise OSError(f"{self.log_path} is cut short in "
                                  f"record {first + len(read)}")
                records += read
        return records

    def frame_runs(self, last_record_id: int, now: int | None = None
                   ) -> list[tuple[int, int, int]]:
        """The frames of the unexpired records newer than the cursor, in
        order, as the log's byte ranges that hold them: (first id, offset,
        length) for each run of frames adjacent in the log."""
        if last_record_id < 0:
            raise ValueError("lastRecordId must be >= 0")
        now = int(time.time()) if now is None else int(now)
        horizon = now - self.retention_days * 86400
        with self._lock:
            tail = self._index[last_record_id:]
        runs: list[tuple[int, int, int]] = []
        for record_id, e in enumerate(tail, last_record_id + 1):
            # publish times need not ascend (clocks, the ``now`` argument)
            if e.published_at < horizon:
                continue
            if runs and runs[-1][1] + runs[-1][2] == e.offset:
                runs[-1] = (*runs[-1][:2], runs[-1][2] + e.frame_len)
            else:
                runs.append((record_id, e.offset, e.frame_len))
        return runs


class _ExchangeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30  # s per socket read: a short body gets a 400, not a thread

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, body: bytes, close: bool = False) -> None:
        """Reply in plain text; ``close`` when the request body is left
        unread, which must not be taken for the next request."""
        self._send_head(status, len(body), "text/plain", close)
        self.wfile.write(body)

    def _send_head(self, status: int, length: int, content_type: str,
                   close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(length))
        if close:
            # sets close_connection, so the server hangs up after this reply
            self.send_header("Connection", "close")
        self.end_headers()

    def do_POST(self):
        if urllib.parse.urlparse(self.path).path != "/v1/profiles":
            return self._reply(404, b"unknown endpoint\n", close=True)
        token = self.server.upload_token
        if token and not hmac.compare_digest(
                self.headers.get(TOKEN_HEADER, "").encode(), token.encode()):
            return self._reply(401, b"bad or missing upload token\n", close=True)
        if "Transfer-Encoding" in self.headers:
            return self._reply(411, b"send the body with a Content-Length\n",
                               close=True)
        text = self.headers.get("Content-Length", "0")
        if not (text.isascii() and text.isdigit()):
            return self._reply(400, b"Content-Length must be a decimal\n",
                               close=True)
        # digits counted first: int() refuses a string of over 4300 of them
        digits = text.lstrip("0") or "0"
        if (len(digits) > len(str(_MAX_BODY_BYTES))
                or int(digits) > _MAX_BODY_BYTES):
            return self._reply(
                413, f"body over {_MAX_BODY_BYTES} bytes\n".encode("ascii"),
                close=True)
        length = int(digits)
        try:
            body = self.rfile.read(length)
        except OSError:  # the client stalled past the timeout
            body = b""
        if len(body) < length:  # ... or hung up mid-body
            return self._reply(400, b"unreadable request body\n", close=True)
        try:
            record_id = self.server.store.publish(body)
        except ProfileFormatError as exc:
            return self._reply(400, f"rejected: {str(exc)[:_MAX_DETAIL_CHARS]}\n".encode())
        except OSError as exc:
            return self._reply(500, f"storage failure: {exc}\n".encode())
        self._reply(200, f"{record_id}\n".encode("ascii"))

    def do_GET(self):
        url = urllib.parse.urlparse(self.path)
        if url.path != "/v1/profiles":
            return self._reply(404, b"unknown endpoint\n")
        params = urllib.parse.parse_qs(url.query, keep_blank_values=True)
        try:
            # one plain decimal, as fetch_since writes it
            (text,) = params.get("since", ["0"])
            if not (text.isascii() and text.isdigit()):
                raise ValueError(text)
            since = int(text)
        except ValueError:
            return self._reply(400, b"since must be a non-negative integer\n")
        # a log frame is byte for byte a wire frame, so the response is
        # streamed from the log with one sendfile per run of adjacent frames
        # and no payload passes through the relay's memory; the index gives
        # the length
        store = self.server.store
        with open(store.log_path, "rb") as log:
            runs = store.frame_runs(since)
            self._send_head(200, sum(n for _, _, n in runs),
                            "application/octet-stream")
            for _, offset, count in runs:
                if self.connection.sendfile(log, offset, count) < count:
                    # the log shrank under the relay: hang up, so that a
                    # client keeping the connection open sees the reply end
                    # short instead of waiting for the missing bytes
                    self.close_connection = True
                    return


class ExchangeServer(ThreadingHTTPServer):
    """HTTP front end over a ProfileStore.

    Set ``upload_token`` (or the WIFITRACE_UPLOAD_TOKEN environment variable
    when constructed via serve()) to require the token header on publishes.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], store: ProfileStore,
                 upload_token: str | None = None):
        super().__init__(address, _ExchangeHandler)
        self.store = store
        self.upload_token = upload_token

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


@contextlib.contextmanager
def serve_in_thread(
    store: ProfileStore, host: str = "127.0.0.1", port: int = 0,
    upload_token: str | None = None,
) -> Iterator[ExchangeServer]:
    """A server on a background thread (port 0 picks a free port), shut down
    and its socket closed on exit."""
    server = ExchangeServer((host, port), store, upload_token)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


# --- client -----------------------------------------------------------------

# every request's policy: the timeout of each socket operation, the attempts
# in all, and the pause after a failed attempt, doubled after each one
_TIMEOUT = 10.0
_RETRIES = 3
_BACKOFF = 0.2


def _request(url: str, data: bytes | None = None,
             headers: dict | None = None) -> bytes:
    last_error: Exception | None = None
    for attempt in range(_RETRIES):
        try:
            req = urllib.request.Request(url, data=data, headers=headers or {})
            with urllib.request.urlopen(req, timeout=_TIMEOUT) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            # a definitive server answer: close it, and do not retry
            with exc:
                detail = exc.read(_MAX_DETAIL_CHARS)
            detail = detail.decode("utf-8", "replace").strip()
            raise ExchangeError(f"{exc.code}: {detail or exc.reason}") from None
        # HTTPException: a reply cut short or garbled on the way
        except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
            last_error = exc
            if attempt + 1 < _RETRIES:
                time.sleep(_BACKOFF * (2 ** attempt))
    raise ExchangeError(f"cannot reach {url}: {last_error}") from None


def publish(endpoint: str, profile_bytes: bytes,
            upload_token: str | None = None) -> int:
    """Upload processed-profile bytes; returns the assigned record id."""
    headers = {"Content-Type": "application/octet-stream"}
    if upload_token:
        headers[TOKEN_HEADER] = upload_token
    body = _request(f"{endpoint}/v1/profiles", data=profile_bytes,
                    headers=headers)
    # exactly the reply do_POST writes: a canonical decimal and a newline
    reply = re.fullmatch(rb"(0|[1-9][0-9]{0,18})\n", body)
    if reply is None:
        raise ExchangeError(f"malformed publish reply {body[:40]!r}")
    return int(reply[1])


def fetch_since(endpoint: str, last_record_id: int) -> list[PublishedRecord]:
    """Download all records newer than the cursor."""
    body = _request(f"{endpoint}/v1/profiles?since={int(last_record_id)}")
    records, good = _read_frames(io.BytesIO(body), len(body))
    if good != len(body):
        raise ExchangeError("malformed frame in server response")
    # the cursor advances to the last id, so each must be past the one before
    previous = int(last_record_id)
    for record in records:
        if record.record_id <= previous:
            raise ExchangeError(
                f"record id {record.record_id} after {previous} in server "
                f"response (ids must ascend past the cursor)")
        previous = record.record_id
    return records


class SyncState:
    """Persistent fetch cursor; updated atomically, only after a successful
    match pass."""

    def __init__(self, state_dir):
        state_dir = Path(state_dir)
        for directory in _make_dirs(state_dir):
            _fsync_dir(directory)
        self._path = state_dir / "cursor"

    @property
    def last_record_id(self) -> int:
        """The stored cursor, or 0 for a missing file or for anything but a
        plain non-negative decimal, the rule the relay applies to since, of
        at most 19 significant digits."""
        try:
            text = self._path.read_text().strip()
        except (FileNotFoundError, UnicodeDecodeError):
            return 0
        # digits counted first: int() refuses a string of over 4300 of them,
        # and no id _HEADER reads has more than 19
        digits = text.lstrip("0")
        if not (text.isascii() and text.isdigit()) or len(digits) > 19:
            return 0
        return int(text)

    def advance(self, record_id: int) -> None:
        write_durably(self._path, f"{record_id}\n".encode("ascii"))


def fetch_and_match(
    endpoint: str,
    since: int,
    scans: tuple[Sequence[int], Callable[[int, int], _ScanBatch]],
    cfg: DetectionConfig,
) -> tuple[ContactReport, int | None]:
    """A sync round without its cursor move: fetch the records after
    ``since``, match the user's scans against them and aggregate episodes.
    The scans come as ``detection._detect_columns`` takes them: their times,
    and the maker of the batch of a slice (``detection._vector_scans`` of
    dict scans, or ``profileio._signal_scans`` of profile bytes). Returns
    the report and the last fetched id, or None when there is no new record
    (then the report is empty and nothing is matched). On network failure
    or a bad record, ExchangeError propagates."""
    records = fetch_since(endpoint, since)
    if not records:
        return ContactReport((), ()), None
    try:
        labels, counts, cols = _read_processed(
            [record.profile_bytes for record in records])
    except ProfileFormatError as exc:
        raise ExchangeError(
            f"record {records[exc.record].record_id}: {exc}") from None
    flags = detection._detect_columns(*scans, cols, labels, counts, cfg)
    # through the module, so that a wrapper set on aggregate_episodes sees it
    return detection.aggregate_episodes(flags, cfg), records[-1].record_id


def client_sync(
    state: SyncState,
    endpoint: str,
    user_profile: SignalProfile,
    cfg: DetectionConfig = DetectionConfig(),
) -> ContactReport:
    """One sync round: fetch new profiles, match locally, advance the cursor.

    Nothing from the user's profile is transmitted; the request carries only
    the cursor. On network failure or a bad record, ExchangeError propagates
    and the cursor is untouched. No new records: empty report, no matching.
    """
    scans = detection._vector_scans(user_profile.vectors)
    report, last = fetch_and_match(endpoint, state.last_record_id, scans, cfg)
    if last is not None:
        state.advance(last)
    return report
