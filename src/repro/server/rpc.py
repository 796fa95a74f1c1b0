"""Length-prefixed binary RPC framing for the multiprocess scale-out path.

One frame on the wire is::

    4 bytes  big-endian payload length
    payload: 1 byte   frame kind   (request / response / error)
             4 bytes  request id   (pipelining correlation token)
             2 bytes  shard id
             1 byte   opcode
             4 bytes  crc32 over the four header fields + body
             N bytes  body

The crc closes the durability gap PR 7 left open: journal records and run
blocks are crc-framed on disk, but the wire was not.  A flipped bit or a
truncated pipelined frame now surfaces as a typed
:class:`~repro.errors.FrameCorruptionError` at the framing layer instead of
a decode crash deep inside a codec.

Bodies for the hot opcodes (update batches, query batches, neighbour
results) ride the shared columnar codec layer (:mod:`repro.codec.wire`):
varint-dictionary object ids, fixed-width float columns and delta-encoded
timestamps that *reconstruct* the library's frozen dataclasses on the far
side instead of shipping pickled object graphs.  Neighbour results
additionally use a per-shard *stateful* stream codec (held by the shard
service / shard client, not here) that resends only what changed since the
last frame.  Every codec keeps a pickle fallback (flag byte 0) so exotic
payloads — non-conforming object ids, subclassed queries — stay correct,
just slower.  Control-plane verbs ride the generic ``CALL`` opcode, itself
slimmed: argument-less calls ship the method name in UTF-8, and the hot
result shapes (metrics snapshots, op-counter ledgers, scalars) have typed
compact encodings.

Errors raised inside a worker are pickled and re-raised client-side with
their original type so ``pytest.raises`` and library ``except`` clauses
behave identically across the process boundary.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.codec import wire as _wire
from repro.errors import FrameCorruptionError, RpcError, WorkerDiedError
from repro.model import UpdateMessage
from repro.workload.queries import NNQuery

# --------------------------------------------------------------------------
# Frame layout
# --------------------------------------------------------------------------

_LENGTH = struct.Struct("!I")
_HEADER_FIELDS = struct.Struct("!BIHB")  # kind, request id, shard id, opcode
_HEADER_CRC = struct.Struct("!I")
_HEADER = struct.Struct("!BIHBI")  # header fields + crc32(fields + body)

KIND_REQUEST = 0
KIND_RESPONSE = 1
KIND_ERROR = 2

OP_PING = 0
OP_CALL = 1
OP_UPDATE_BATCH = 2
OP_QUERY_BATCH = 3
OP_SHUTDOWN = 4

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

MAX_FRAME_BYTES = 1 << 30  # sanity bound against corrupted length prefixes


def encode_frame(kind: int, request_id: int, shard_id: int, opcode: int, body: bytes) -> bytes:
    """One wire frame, length prefix included."""
    fields = _HEADER_FIELDS.pack(kind, request_id & 0xFFFFFFFF, shard_id, opcode)
    crc = zlib.crc32(body, zlib.crc32(fields))
    payload_len = _HEADER.size + len(body)
    return b"".join(
        (
            _LENGTH.pack(payload_len),
            fields,
            _HEADER_CRC.pack(crc),
            body,
        )
    )


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        try:
            chunk = sock.recv_into(view[received:], count - received)
        except socket.timeout:
            raise WorkerDiedError(
                f"timed out waiting for {count - received} more frame bytes"
            ) from None
        if chunk == 0:
            raise WorkerDiedError("connection closed mid-frame")
        received += chunk
    return bytes(buffer)


def read_frame(sock: socket.socket) -> Tuple[int, int, int, int, bytes]:
    """Blocking read of one frame -> (kind, request_id, shard_id, opcode, body)."""
    (payload_len,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if payload_len < _HEADER.size or payload_len > MAX_FRAME_BYTES:
        raise RpcError(f"corrupt frame length {payload_len}")
    payload = _recv_exact(sock, payload_len)
    kind, request_id, shard_id, opcode, crc = _HEADER.unpack_from(payload)
    body = payload[_HEADER.size:]
    expected = zlib.crc32(body, zlib.crc32(payload[:_HEADER_FIELDS.size]))
    if crc != expected:
        raise FrameCorruptionError(
            f"frame crc mismatch: header says 0x{crc:08x}, computed 0x{expected:08x}"
        )
    return kind, request_id, shard_id, opcode, body


# --------------------------------------------------------------------------
# Compact codecs (reconstruct-don't-store)
# --------------------------------------------------------------------------

_FLAG_PICKLED = _wire.FLAG_PICKLED
_FLAG_COMPACT = _wire.FLAG_COLUMNAR

def encode_update_batch(messages: Sequence[UpdateMessage]) -> bytes:
    """Columnar encoding of one group-commit buffer; pickle fallback when
    an object id does not follow the ``obj%010d`` convention."""
    compact = _wire.encode_update_batch_columnar(messages)
    if compact is None:
        return bytes([_FLAG_PICKLED]) + pickle.dumps(
            list(messages), _PICKLE_PROTOCOL
        )
    return bytes([_FLAG_COMPACT]) + compact


def decode_update_batch(body: bytes) -> List[UpdateMessage]:
    if body[0] == _FLAG_PICKLED:
        return pickle.loads(bytes(body[1:]))
    return _wire.decode_update_batch_columnar(memoryview(body)[1:])


def encode_query_batch(queries: Sequence[NNQuery]) -> bytes:
    """Columnar encoding of one probe set; pickle fallback for subclasses."""
    compact = _wire.encode_query_batch_columnar(queries)
    if compact is None:
        return bytes([_FLAG_PICKLED]) + pickle.dumps(
            list(queries), _PICKLE_PROTOCOL
        )
    return bytes([_FLAG_COMPACT]) + compact


def decode_query_batch(body: bytes) -> List[NNQuery]:
    if body[0] == _FLAG_PICKLED:
        return pickle.loads(bytes(body[1:]))
    return _wire.decode_query_batch_columnar(memoryview(body)[1:])


def encode_call(method: str, args: tuple, kwargs: dict) -> bytes:
    """Generic CALL body.  The overwhelmingly common shape — no arguments —
    ships as the UTF-8 method name behind the compact flag; anything else
    pickles the whole triple."""
    if not args and not kwargs:
        return bytes([_FLAG_COMPACT]) + method.encode("utf-8")
    return bytes([_FLAG_PICKLED]) + pickle.dumps(
        (method, args, kwargs), _PICKLE_PROTOCOL
    )


def decode_call(body: bytes) -> Tuple[str, tuple, dict]:
    if body[0] == _FLAG_COMPACT:
        return bytes(body[1:]).decode("utf-8"), (), {}
    return pickle.loads(bytes(body[1:]))


def encode_result(value: Any) -> bytes:
    """Generic CALL result: typed compact encodings for the hot shapes
    (scalars, metrics snapshots, op-counter ledgers), pickle otherwise."""
    compact = _wire.encode_result_compact(value)
    if compact is not None:
        return bytes([_FLAG_COMPACT]) + compact
    return bytes([_FLAG_PICKLED]) + pickle.dumps(value, _PICKLE_PROTOCOL)


def decode_result(body: bytes) -> Any:
    if body[0] == _FLAG_COMPACT:
        return _wire.decode_result_compact(memoryview(body)[1:])
    return pickle.loads(bytes(body[1:]))


def encode_error(error: BaseException) -> bytes:
    try:
        return pickle.dumps(error, _PICKLE_PROTOCOL)
    except Exception:  # unpicklable exception -> ship the description
        return pickle.dumps(
            RpcError(f"{type(error).__name__}: {error}"), _PICKLE_PROTOCOL
        )


def decode_error(body: bytes) -> BaseException:
    try:
        error = pickle.loads(body)
    except Exception as exc:
        return RpcError(f"undecodable remote error: {exc!r}")
    if isinstance(error, BaseException):
        return error
    return RpcError(f"remote error payload was not an exception: {error!r}")


# --------------------------------------------------------------------------
# Retry policy
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Parent-side retry schedule for supervised scatter-gather.

    Each attempt gets ``call_deadline_s`` of wall-clock to produce a
    response (replacing the old blanket 120 s socket timeout); failed
    attempts back off exponentially before the supervisor respawns the
    worker and the request is re-sent *with its original request id* so the
    worker-side dedup window can suppress double application.
    """

    #: Total tries per request (first send included).
    max_attempts: int = 3
    #: Per-attempt response deadline, seconds of wall-clock.
    call_deadline_s: float = 30.0
    #: Sleep before retry ``n`` is ``base * multiplier**(n-1)``, capped.
    base_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 2.0

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1 = first retry)."""
        if attempt <= 0:
            return 0.0
        delay = self.base_backoff_s * self.backoff_multiplier ** (attempt - 1)
        return min(delay, self.max_backoff_s)


# --------------------------------------------------------------------------
# Client-side connection with pipelining
# --------------------------------------------------------------------------


class RpcConnection:
    """One framed, pipelined connection to a worker process.

    ``send_request`` writes a frame and returns immediately with the request
    id; ``wait`` blocks until that id's response arrives, parking any other
    responses it reads along the way.  This lets a round of per-shard
    requests go out back-to-back before the first response is collected —
    the round-trip cost of a scatter is one pipeline flush, not one
    round-trip per shard.
    """

    def __init__(
        self,
        sock: socket.socket,
        timeout_s: float = 120.0,
        initial_request_id: int = 0,
    ) -> None:
        self._sock = sock
        self._sock.settimeout(timeout_s)
        self.timeout_s = timeout_s
        # A respawned worker's replacement connection continues the old
        # counter so retried requests keep their original ids and fresh
        # requests never collide with an id the dedup window already saw.
        self._next_request_id = initial_request_id & 0xFFFFFFFF
        self._parked: Dict[int, Tuple[int, int, bytes]] = {}
        self._send_queue: List[bytes] = []
        self._closed = False
        self._pending_fault: Optional[str] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    # -- sending -----------------------------------------------------------

    def _allocate_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id = (request_id + 1) & 0xFFFFFFFF
        return request_id

    @property
    def next_request_id(self) -> int:
        """The id the next allocated request will get (respawn handoff)."""
        return self._next_request_id

    def send_request(
        self,
        shard_id: int,
        opcode: int,
        body: bytes,
        request_id: Optional[int] = None,
    ) -> int:
        """Send one frame.  ``request_id`` pins an explicit id — the retry
        path re-sends with the *original* id so the worker-side dedup
        window recognises the duplicate; fresh requests allocate one."""
        if request_id is None:
            request_id = self._allocate_id()
        frame = encode_frame(KIND_REQUEST, request_id, shard_id, opcode, body)
        self._send_bytes(frame)
        self.frames_sent += 1
        return request_id

    def allocate_request_ids(self, count: int) -> List[int]:
        """Reserve ``count`` ids without sending anything.

        The supervised dispatch path allocates before the batched send so
        the ids survive a send-time failure — they pin the retry frames for
        the worker-side dedup window."""
        return [self._allocate_id() for _ in range(count)]

    def send_requests(
        self,
        requests: Iterable[Tuple[int, int, bytes]],
        request_ids: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Batched dispatch: frame every (shard, opcode, body) request and
        flush them in one ``sendall`` — a whole round of work per syscall.
        ``request_ids`` pins pre-allocated (or retried) ids positionally;
        without it each request allocates a fresh id."""
        frames = []
        ids = []
        for index, (shard_id, opcode, body) in enumerate(requests):
            request_id = (
                self._allocate_id() if request_ids is None else request_ids[index]
            )
            frames.append(
                encode_frame(KIND_REQUEST, request_id, shard_id, opcode, body)
            )
            ids.append(request_id)
        if frames:
            self._send_bytes(b"".join(frames))
            self.frames_sent += len(frames)
        return ids

    def queue_request(
        self,
        shard_id: int,
        opcode: int,
        body: bytes,
        request_id: Optional[int] = None,
    ) -> int:
        """Frame a request but keep it in the local send queue.

        The pipelined engine frames every per-shard request of a window
        step here, then ships the whole step with one :meth:`flush_queued`
        ``sendall`` — coalescing keeps the syscall count per window step at
        one regardless of how many shards a worker hosts."""
        if request_id is None:
            request_id = self._allocate_id()
        self._send_queue.append(
            encode_frame(KIND_REQUEST, request_id, shard_id, opcode, body)
        )
        return request_id

    def flush_queued(self) -> int:
        """Ship every queued frame in one ``sendall`` -> frames flushed.

        The queue is cleared even when the send raises: a failed flush
        means the worker is gone, and the supervised resend path rebuilds
        the frames from its own in-flight record with the original pinned
        request ids rather than replaying stale queue bytes."""
        if not self._send_queue:
            return 0
        frames, self._send_queue = self._send_queue, []
        self._send_bytes(b"".join(frames))
        self.frames_sent += len(frames)
        return len(frames)

    def has_parked(self, request_id: int) -> bool:
        """True when ``request_id``'s response already arrived and is parked
        (a non-blocking completion probe for the windowed drain loop)."""
        return request_id in self._parked

    def inject_fault(self, mode: str) -> None:
        """Corrupt the next outgoing send (chaos harness hook).

        ``"bitflip"`` inverts the first body byte so the frame arrives with
        a broken crc; ``"truncate"`` ships only the first half of the bytes
        and drops the rest, leaving the peer blocked mid-frame.
        """
        if mode not in ("bitflip", "truncate"):
            raise RpcError(f"unknown fault mode {mode!r}")
        self._pending_fault = mode

    def _send_bytes(self, data: bytes) -> None:
        if self._closed:
            raise RpcError("connection is closed")
        if self._pending_fault is not None:
            mode, self._pending_fault = self._pending_fault, None
            if mode == "bitflip":
                corrupted = bytearray(data)
                corrupted[min(_LENGTH.size + _HEADER.size, len(corrupted) - 1)] ^= 0xFF
                data = bytes(corrupted)
            else:  # truncate: half the frame, then silence
                data = data[: max(len(data) // 2, 1)]
        try:
            self._sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerDiedError(f"send failed: {exc}") from exc
        self.bytes_sent += len(data)

    # -- receiving ---------------------------------------------------------

    def wait(
        self, request_id: int, deadline_s: Optional[float] = None
    ) -> Tuple[int, bytes]:
        """Block until ``request_id``'s response arrives -> (opcode, body).

        ``deadline_s`` bounds the wall-clock wait for *this call* (the
        constructor ``timeout_s`` is the default); expiry raises
        :class:`WorkerDiedError` so a hung worker surfaces as a failure the
        supervisor can heal instead of a 120 s stall.  Error frames
        re-raise the worker's original exception here.
        """
        budget = self.timeout_s if deadline_s is None else deadline_s
        deadline = None if budget is None else time.monotonic() + budget
        while request_id not in self._parked:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerDiedError(
                        f"deadline expired waiting for request {request_id}"
                    )
                try:
                    self._sock.settimeout(remaining)
                except OSError as exc:
                    raise WorkerDiedError(f"receive failed: {exc}") from exc
            kind, got_id, _shard, opcode, body = self._read_frame()
            self._parked[got_id] = (kind, opcode, body)
        kind, opcode, body = self._parked.pop(request_id)
        if kind == KIND_ERROR:
            raise decode_error(body)
        if kind != KIND_RESPONSE:
            raise RpcError(f"unexpected frame kind {kind} for request {request_id}")
        return opcode, body

    def _read_frame(self) -> Tuple[int, int, int, int, bytes]:
        if self._closed:
            raise RpcError("connection is closed")
        try:
            frame = read_frame(self._sock)
        except OSError as exc:
            raise WorkerDiedError(f"receive failed: {exc}") from exc
        self.bytes_received += _LENGTH.size + _HEADER.size + len(frame[4])
        self.frames_received += 1
        return frame

    @property
    def outstanding(self) -> int:
        """Parked-but-unclaimed responses (diagnostics only)."""
        return len(self._parked)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass


# --------------------------------------------------------------------------
# Worker-side serve loop
# --------------------------------------------------------------------------


def serve(sock: socket.socket, dispatch) -> None:
    """Worker main loop: read request frames until shutdown or EOF.

    ``dispatch(shard_id, opcode, body, request_id) -> bytes`` runs the
    request (the id feeds the worker-side exactly-once dedup window);
    exceptions become error frames with the original exception pickled in.
    """
    sock.settimeout(None)
    while True:
        try:
            kind, request_id, shard_id, opcode, body = read_frame(sock)
        except FrameCorruptionError:
            # The header itself is untrustworthy, so there is no request id
            # to address an error frame to.  Exit; the parent sees EOF, maps
            # it to WorkerDiedError and lets the supervisor respawn us.
            return
        except (WorkerDiedError, RpcError, OSError):
            return  # parent went away (or stream desynced): exit quietly
        if kind != KIND_REQUEST:
            continue
        if opcode == OP_SHUTDOWN:
            try:
                sock.sendall(
                    encode_frame(KIND_RESPONSE, request_id, shard_id, opcode, b"")
                )
            except OSError:
                pass
            return
        try:
            result = dispatch(shard_id, opcode, body, request_id)
            frame = encode_frame(KIND_RESPONSE, request_id, shard_id, opcode, result)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the client
            frame = encode_frame(
                KIND_ERROR, request_id, shard_id, opcode, encode_error(exc)
            )
        try:
            sock.sendall(frame)
        except OSError:
            return
