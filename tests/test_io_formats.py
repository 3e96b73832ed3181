import io
import struct
import tracemalloc

import numpy as np
import pytest

from evtpr import EventStream, FormatError
from evtpr.io_formats import (
    EVENT_HEADER,
    EVENT_MAGIC,
    EVENT_RECORD,
    EVENT_VERSION,
    TENSOR_MAGIC,
    _EVENT_CHUNK,
    read_events,
    read_frame,
    read_tensor,
    write_events,
    write_frame,
    write_tensor,
)

from conftest import random_stream


def round_trip_events(stream):
    buf = io.BytesIO()
    write_events(stream, buf)
    buf.seek(0)
    return buf.getvalue(), read_events(io.BytesIO(buf.getvalue()))


class Unseekable(io.RawIOBase):
    """A pipe-like source: readable, but it cannot seek or tell its size."""

    def __init__(self, data: bytes):
        self._src = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        return self._src.readinto(b)


class Shrunk(io.BytesIO):
    """A file cut short after its size was taken: SEEK_END still reports
    the full size, so only the reads find the end."""

    def __init__(self, data: bytes, size: int):
        super().__init__(data)
        self._size = size

    def seek(self, pos, whence=io.SEEK_SET):
        if whence == io.SEEK_END:
            return self._size + pos
        return super().seek(pos, whence)


class Trickle(io.BytesIO):
    """A seekable source whose every read returns at most 4099 bytes."""

    def readinto(self, b):
        return super().readinto(memoryview(b)[:4099])


def packed_events(stream) -> bytes:
    """EVT1 bytes of a stream, written one EVENT_RECORD.pack per record."""
    head = EVENT_HEADER.pack(EVENT_MAGIC, EVENT_VERSION, stream.sensor_width,
                             stream.sensor_height, len(stream), stream.t_begin,
                             stream.t_end)
    cols = (stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), stream.p.tolist())
    return head + b"".join(EVENT_RECORD.pack(*rec) for rec in zip(*cols))


def streams_equal(a, b):
    return (a.sensor_width == b.sensor_width
            and a.sensor_height == b.sensor_height
            and a.t_begin == b.t_begin and a.t_end == b.t_end
            and np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)
            and np.array_equal(a.y, b.y) and np.array_equal(a.p, b.p))


class TestEventCodec:
    def test_empty_stream_header_only(self):
        stream = EventStream(sensor_width=4, sensor_height=4, t_begin=0, t_end=10)
        raw, back = round_trip_events(stream)
        assert len(raw) == EVENT_HEADER.size
        assert streams_equal(stream, back)

    def test_single_event_size_arithmetic(self, rng):
        stream = random_stream(rng, n=1)
        raw, back = round_trip_events(stream)
        assert len(raw) == EVENT_HEADER.size + EVENT_RECORD.size
        assert EVENT_RECORD.size == 16
        assert streams_equal(stream, back)

    def test_randomized_round_trips(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 300))
            stream = random_stream(rng, h=int(rng.integers(1, 40)),
                                   w=int(rng.integers(1, 40)), n=n)
            raw, back = round_trip_events(stream)
            assert streams_equal(stream, back)
            # re-serialization is byte-identical
            buf = io.BytesIO()
            write_events(back, buf)
            assert buf.getvalue() == raw

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_events(io.BytesIO(b"NOPE" + b"\0" * 40))

    def test_truncated_payload(self, rng):
        raw, _ = round_trip_events(random_stream(rng, n=10))
        with pytest.raises(FormatError):
            read_events(io.BytesIO(raw[:-5]))

    @pytest.mark.parametrize("count", [2 ** 62, 2 ** 40])
    def test_huge_count_header_only(self, count, tmp_path):
        # count * 16 overflows a read size at 2**62 and would be a 16 TB
        # allocation at 2**40; both must be plain truncation errors
        head = EVENT_HEADER.pack(EVENT_MAGIC, EVENT_VERSION, 4, 4, count, 0, 10)
        path = tmp_path / "huge.evt"
        path.write_bytes(head)
        for src in (str(path), io.BytesIO(head), Unseekable(head)):
            with pytest.raises(FormatError):
                read_events(src)

    def test_unseekable_source_round_trip(self, rng):
        stream = random_stream(rng, n=40)
        raw, _ = round_trip_events(stream)
        assert streams_equal(read_events(Unseekable(raw)), stream)
        with pytest.raises(FormatError):
            read_events(Unseekable(raw[:-1]))

    def test_unsorted_records_rejected(self, rng):
        stream = random_stream(rng, n=5)
        raw, _ = round_trip_events(stream)
        body = bytearray(raw)
        # swap first and last record timestamps if they differ
        if stream.t[0] != stream.t[-1]:
            h = EVENT_HEADER.size
            first = body[h:h + 16]
            last = body[h + 4 * 16:h + 5 * 16]
            body[h:h + 16] = last
            body[h + 4 * 16:h + 5 * 16] = first
            with pytest.raises(FormatError):
                read_events(io.BytesIO(bytes(body)))

C = _EVENT_CHUNK


class TestEventChunks:
    COUNTS = [0, 1, C - 1, C, C + 1, 2 * C + 3]

    @staticmethod
    def stream(n):
        # x reaches the u16 range and t the int64 range
        return random_stream(np.random.default_rng(n), h=3, w=2 ** 16 - 1, n=n,
                             t_end=2 ** 63 - 1)

    @pytest.mark.parametrize("n", COUNTS)
    def test_round_trip_matches_per_record_writer(self, n):
        stream = self.stream(n)
        raw, back = round_trip_events(stream)
        assert raw == packed_events(stream)
        pad = np.frombuffer(raw, np.uint8, offset=EVENT_HEADER.size).reshape(-1, 16)[:, 13:]
        assert not pad.any()
        assert streams_equal(back, stream)
        for name in ("t", "x", "y", "p"):
            assert getattr(back, name).dtype == getattr(stream, name).dtype

    @pytest.mark.parametrize("n", COUNTS)
    def test_unseekable_and_short_reads(self, n):
        stream = self.stream(n)
        raw = packed_events(stream)
        assert streams_equal(read_events(Unseekable(raw)), stream)
        assert streams_equal(read_events(Trickle(raw)), stream)

    def test_truncated_inside_a_later_chunk(self):
        raw = packed_events(self.stream(2 * C + 3))
        cut = raw[:EVENT_HEADER.size + (C + 5) * EVENT_RECORD.size + 7]
        for src in (io.BytesIO(cut), Unseekable(cut), Shrunk(cut, len(raw))):
            with pytest.raises(FormatError, match="truncated event payload"):
                read_events(src)

    @pytest.mark.parametrize("t,x,message", [
        (2 ** 63, 0, "event t outside"),
        (2 ** 64 - 1, 0, "event t outside"),
        (5, 4, "event x outside"),
    ], ids=["t-2^63", "t-2^64-1", "x-width"])
    def test_out_of_range_record(self, t, x, message):
        # a u64 t >= 2**63 wraps to a negative int64, which the range
        # check rejects, in the last record of a later chunk
        good = EVENT_RECORD.pack(0, 0, 0, 1)
        raw = (EVENT_HEADER.pack(EVENT_MAGIC, EVENT_VERSION, 4, 4, C + 2, 0, 10)
               + good * (C + 1) + EVENT_RECORD.pack(t, x, 0, 1))
        for src in (io.BytesIO(raw), Unseekable(raw)):
            with pytest.raises(FormatError, match=message):
                read_events(src)

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        stream = random_stream(np.random.default_rng(1), h=64, w=64, n=1_000_000)
        arrays = sum(getattr(stream, name).nbytes for name in ("t", "x", "y", "p"))
        path = tmp_path / "big.evt"
        tracemalloc.start()
        try:
            write_events(stream, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_events(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert write_peak <= 2 << 20
        assert read_peak <= arrays + (2 << 20)
        assert streams_equal(back, stream)


class TestTensorCodec:
    def test_scalar_size_arithmetic(self):
        buf = io.BytesIO()
        write_tensor(np.float32(3.25), buf)
        # magic + ndim field + empty dims = 8-byte header, then one float
        assert len(buf.getvalue()) == 8 + 4
        back = read_tensor(io.BytesIO(buf.getvalue()))
        assert back.shape == ()
        assert back == np.float32(3.25)

    def test_tpr_dims_echo(self):
        data = np.random.default_rng(0).random((7, 2, 4, 4)).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(data, buf)
        back = read_tensor(io.BytesIO(buf.getvalue()))
        assert back.shape == (7, 2, 4, 4)
        assert np.array_equal(back, data)

    def test_write_read_write_idempotent(self, rng):
        for _ in range(30):
            ndim = int(rng.integers(0, 5))
            shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
            data = rng.standard_normal(shape).astype(np.float32)
            a = io.BytesIO()
            write_tensor(data, a)
            back = read_tensor(io.BytesIO(a.getvalue()))
            b = io.BytesIO()
            write_tensor(back, b)
            assert a.getvalue() == b.getvalue()

    def test_bad_magic_and_truncation(self):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(b"XXXX"))
        buf = io.BytesIO()
        write_tensor(np.zeros((3, 3), np.float32), buf)
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(buf.getvalue()[:-4]))
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(buf.getvalue() + b"\0"))


    def test_dims_product_beyond_int64(self):
        # (2**31)**3 wraps an int64 product to 0
        raw = TENSOR_MAGIC + struct.pack("<4I", 3, 2 ** 31, 2 ** 31, 2 ** 31)
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(raw))

    def test_huge_ndim_header_only(self, tmp_path):
        # a real file: a read of 4 * ndim bytes would allocate 16 GiB first
        path = tmp_path / "huge.tns"
        path.write_bytes(TENSOR_MAGIC + struct.pack("<I", 2 ** 32 - 1))
        with pytest.raises(FormatError, match="truncated tensor dims"):
            read_tensor(str(path))

    def test_empty_shape_beyond_numpy_size(self):
        # the payload is empty, but numpy cannot make the shape
        raw = TENSOR_MAGIC + struct.pack("<5I", 4, 0, 2 ** 31, 2 ** 31, 2 ** 31)
        with pytest.raises(FormatError, match="tensor dims"):
            read_tensor(io.BytesIO(raw))

    def test_empty_dimension_round_trip(self):
        buf = io.BytesIO()
        write_tensor(np.zeros((0, 3), np.float32), buf)
        assert read_tensor(io.BytesIO(buf.getvalue())).shape == (0, 3)


class TestPixmapCodec:
    def test_white_ppm_pixel(self):
        buf = io.BytesIO()
        write_frame(np.ones((1, 1, 3)), buf)
        back = read_frame(io.BytesIO(buf.getvalue()))
        assert back.shape == (1, 1, 3)
        assert np.all(back == 1.0)

    def test_half_gray_mapping(self):
        buf = io.BytesIO()
        write_frame(np.full((2, 2), 128 / 255.0), buf)
        back = read_frame(io.BytesIO(buf.getvalue()))
        assert np.allclose(back, 128 / 255.0)

    def test_lossless_8bit_round_trip(self, rng):
        for _ in range(20):
            h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            channels = rng.choice([1, 3])
            shape = (h, w) if channels == 1 else (h, w, 3)
            quant = rng.integers(0, 256, size=shape).astype(np.float64) / 255.0
            a = io.BytesIO()
            write_frame(quant, a)
            back = read_frame(io.BytesIO(a.getvalue()))
            assert np.array_equal(back, quant)
            b = io.BytesIO()
            write_frame(back, b)
            assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_are_rejected(self, bad):
        px = np.full((2, 2, 3), 0.5)
        px[1, 0, 2] = bad
        with pytest.raises(FormatError, match="finite"):
            write_frame(px, io.BytesIO())

    def test_unsupported_magic_or_maxval(self):
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(b"P3\n1 1\n255\n0 0 0\n"))
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(b"P5\n1 1\n65535\n\0\0"))

    def test_negative_width(self):
        # used to decode as a (2, 0) array
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(b"P5\n-2 2\n255\n" + b"\0" * 4))

    def test_negative_width_and_height(self):
        # used to escape as a reshape ValueError
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(b"P5\n-2 -2\n255\n" + b"\0" * 4))

    @pytest.mark.parametrize("dims", [b"0 2", b"2 0", b"+2 2", b"2_0 1"])
    def test_non_positive_or_non_decimal_dims(self, dims):
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(b"P5\n" + dims + b"\n255\n" + b"\0" * 40))

    def test_comment_lines_skipped(self):
        pixels = np.arange(6, dtype=np.float64).reshape(2, 3) / 255.0
        raw = (b"P5\n# written by hand\n3 #width\n2\n# maxval next\r255\n"
               + bytes(range(6)))
        assert np.array_equal(read_frame(io.BytesIO(raw)), pixels)

    def test_comment_in_place_of_payload_separator(self):
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(b"P5\n1 1\n255#c\n\0"))
