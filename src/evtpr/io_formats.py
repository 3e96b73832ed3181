"""Bit-exact serialization: binary event files, tensor containers, pixmaps.

All multi-byte fields are little-endian irrespective of host.

Event file ("EVT1"): magic 4s | version u32 | width u16 | height u16 |
count u64 | t_begin u64 | t_end u64, then `count` 16-byte records of
t u64 | x u16 | y u16 | p i8 | 3 pad bytes.

Tensor file ("TNS1"): magic 4s | ndim u32 | ndim x u32 dims | row-major
float32 payload.

Both codecs stream their payloads: an event file is encoded and decoded
through one record chunk of fixed size, and a tensor is written from and
read into its own array, so their extra memory does not grow with the
file. A header count is checked against the bytes that follow before
anything is allocated for it.

Frames are binary portable pixmaps: PGM (P5) for luma, PPM (P6) for RGB,
8-bit with maxval 255, mapped to [0, 1] by /255 on read.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from typing import BinaryIO, Union

import numpy as np

from .errors import FormatError
from .events import _EVENT_DTYPES, EventStream

EVENT_MAGIC = b"EVT1"
EVENT_VERSION = 1
EVENT_HEADER = struct.Struct("<4sIHHQQQ")  # 36 bytes
EVENT_RECORD = struct.Struct("<QHHb3x")  # 16 bytes
_RECORD_DTYPE = np.dtype({
    "names": ["t", "x", "y", "p"],
    "formats": ["<u8", "<u2", "<u2", "i1"],
    "offsets": [0, 8, 10, 12],
    "itemsize": EVENT_RECORD.size,
})

TENSOR_MAGIC = b"TNS1"

# records per step of the event codecs: their scratch is one 1 MB chunk,
# whatever the size of the file
_EVENT_CHUNK = 1 << 16
# bytes per read when the source cannot tell how many bytes it has left
_READ_PIECE = 1 << 24

PathOrStream = Union[str, os.PathLike, BinaryIO]


@contextlib.contextmanager
def _opened(dest: PathOrStream, mode: str):
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, mode) as fh:
            yield fh
    else:
        yield dest


def write_events(stream: EventStream, dest: PathOrStream) -> None:
    n = len(stream)
    with _opened(dest, "wb") as fh:
        fh.write(EVENT_HEADER.pack(EVENT_MAGIC, EVENT_VERSION,
                                    stream.sensor_width, stream.sensor_height,
                                    n, stream.t_begin, stream.t_end))
        # zeroed once, so the pad bytes of every record stay 0
        rec = np.zeros(min(n, _EVENT_CHUNK), _RECORD_DTYPE)
        raw = rec.view(np.uint8)
        for start in range(0, n, _EVENT_CHUNK):
            k = min(n - start, _EVENT_CHUNK)
            for name in _EVENT_DTYPES:
                rec[name][:k] = getattr(stream, name)[start:start + k]
            fh.write(raw[:k * EVENT_RECORD.size])


def _read_exactly(fh: BinaryIO, n: int, what: str) -> BinaryIO:
    """A source to read n bytes from, n taken from an untrusted header.

    A seekable source is checked for n bytes left before anything is read
    or allocated, and returned as it is, so an absurd count is a
    FormatError rather than an OverflowError or a huge allocation. A
    source that cannot seek is read in bounded pieces instead, and its n
    bytes are returned in memory.
    """
    if fh.seekable():
        pos = fh.tell()
        left = fh.seek(0, os.SEEK_END) - pos
        fh.seek(pos)
        if n > left:
            raise FormatError("truncated %s" % what)
        return fh
    pieces, want = [], n
    while want:
        piece = fh.read(min(want, _READ_PIECE))
        if not piece:
            raise FormatError("truncated %s" % what)
        pieces.append(piece)
        want -= len(piece)
    return io.BytesIO(b"".join(pieces))


def _fill(fh: BinaryIO, buf, what: str) -> None:
    """Read into the byte buffer buf until it is full, retrying short reads."""
    view, got = memoryview(buf), 0
    while got < len(view):
        k = fh.readinto(view[got:])
        if not k:
            raise FormatError("truncated %s" % what)
        got += k


def _read_bytes(fh: BinaryIO, n: int, what: str) -> bytearray:
    src = _read_exactly(fh, n, what)
    buf = bytearray(n)
    _fill(src, buf, what)
    return buf


def _decode_records(payload: BinaryIO, count: int) -> dict:
    """The fields of count records, a chunk at a time, in the dtypes the
    stream stores, so that EventStream copies none of them.

    A u64 t >= 2**63 wraps to a negative int64 here. The stream's range
    check rejects it as it does any t outside [t_begin, t_end], since
    t_begin is a u64 header field and so >= 0. x, y and p cannot wrap.
    """
    fields = {name: np.empty(count, dtype) for name, dtype in _EVENT_DTYPES.items()}
    rec = np.empty(min(count, _EVENT_CHUNK), _RECORD_DTYPE)
    raw = rec.view(np.uint8)
    for start in range(0, count, _EVENT_CHUNK):
        k = min(count - start, _EVENT_CHUNK)
        _fill(payload, raw[:k * EVENT_RECORD.size], "event payload")
        for name, out in fields.items():
            out[start:start + k] = rec[name][:k]
    return fields


def read_events(src: PathOrStream) -> EventStream:
    with _opened(src, "rb") as fh:
        head = _read_bytes(fh, EVENT_HEADER.size, "event header")
        magic, version, width, height, count, t_begin, t_end = EVENT_HEADER.unpack(head)
        if magic != EVENT_MAGIC:
            raise FormatError("bad event-file magic")
        if version != EVENT_VERSION:
            raise FormatError("unsupported event-file version %d" % version)
        fields = _decode_records(
            _read_exactly(fh, count * EVENT_RECORD.size, "event payload"), count)
    try:  # a decoded value the stream rejects is a FormatError
        return EventStream(sensor_width=width, sensor_height=height,
                           t_begin=t_begin, t_end=t_end, **fields)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_tensor(data: np.ndarray, dest: PathOrStream) -> None:
    # np.ascontiguousarray would promote 0-dim scalars to 1-dim
    arr = np.require(np.asarray(data), dtype="<f4", requirements=["C"])
    with _opened(dest, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
        fh.write(arr.reshape(-1).view(np.uint8))


def read_tensor(src: PathOrStream) -> np.ndarray:
    with _opened(src, "rb") as fh:
        magic = fh.read(4)
        if magic != TENSOR_MAGIC:
            raise FormatError("bad tensor-file magic")
        (ndim,) = struct.unpack("<I", _read_bytes(fh, 4, "tensor header"))
        dims = struct.unpack("<%dI" % ndim, _read_bytes(fh, 4 * ndim, "tensor dims"))
        payload = _read_exactly(fh, 4 * math.prod(dims), "tensor payload")
        try:  # an empty shape whose other dims overflow numpy's size
            arr = np.empty(dims, "<f4")
        except ValueError as exc:
            raise FormatError("tensor dims %s: %s" % (list(dims), exc)) from exc
        _fill(payload, arr.reshape(-1).view(np.uint8), "tensor payload")
        if fh.read(1):
            raise FormatError("trailing bytes after tensor payload")
        return arr


def write_frame(pixels: np.ndarray, dest: PathOrStream) -> None:
    """Binary PGM (HxW) or PPM (HxWx3) of finite values, clipped to [0, 1]."""
    if pixels.ndim == 2:
        magic = b"P5"
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
    else:
        raise FormatError("expected HxW or HxWx3 pixel array")
    if not np.isfinite(pixels).all():
        raise FormatError("pixel values must be finite")
    quant = np.clip(np.rint(np.asarray(pixels, np.float64) * 255.0), 0, 255)
    h, w = pixels.shape[:2]
    with _opened(dest, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(quant.astype(np.uint8).tobytes())


def read_frame(src: PathOrStream) -> np.ndarray:
    with _opened(src, "rb") as fh:
        data = fh.read()
    magic, w_tok, h_tok, max_tok, start = _pnm_header(data)
    if magic not in (b"P5", b"P6"):
        raise FormatError("unsupported pixmap magic %r" % magic)
    if not (w_tok.isdigit() and h_tok.isdigit() and max_tok.isdigit()):
        raise FormatError("malformed pixmap header")
    w, h, maxval = int(w_tok), int(h_tok), int(max_tok)
    if w < 1 or h < 1:
        raise FormatError("pixmap dimensions must be positive")
    if maxval != 255:
        raise FormatError("only maxval 255 pixmaps are supported")
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    if len(data) - start < need:
        raise FormatError("truncated pixmap payload")
    arr = np.frombuffer(data, np.uint8, need, start).astype(np.float64) / 255.0
    if channels == 1:
        return arr.reshape(h, w)
    return arr.reshape(h, w, 3)


_PNM_SPACE = b" \t\n\v\f\r"
_PNM_SEPARATOR = _PNM_SPACE + b"#"


def _pnm_header(data: bytes) -> tuple[bytes, bytes, bytes, bytes, int]:
    """Magic, width, height and maxval tokens, and the payload offset.

    Tokens are separated by whitespace; "#" starts a comment that runs to
    the end of its line, as Netpbm allows. Exactly one whitespace byte
    separates the last token from the payload.
    """
    tokens = []
    i, n = 0, len(data)
    while len(tokens) < 4:
        while i < n and data[i] in _PNM_SEPARATOR:
            if data[i] == ord("#"):
                while i < n and data[i] not in b"\r\n":
                    i += 1
            else:
                i += 1
        j = i
        while j < n and data[j] not in _PNM_SEPARATOR:
            j += 1
        if j == i:
            raise FormatError("malformed pixmap header")
        tokens.append(data[i:j])
        i = j
    if i == n or data[i] not in _PNM_SPACE:
        raise FormatError("malformed pixmap header")
    return (*tokens, i + 1)
