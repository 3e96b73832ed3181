import io
import struct

import numpy as np
import pytest

from evtpr import Event, EventStream, FormatError
from evtpr.io_formats import (
    EVENT_HEADER,
    EVENT_MAGIC,
    EVENT_RECORD,
    EVENT_VERSION,
    TENSOR_MAGIC,
    read_events,
    read_events_csv,
    read_frame,
    read_tensor,
    write_events,
    write_events_csv,
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

    def test_csv_agrees_with_binary(self, rng):
        for _ in range(10):
            stream = random_stream(rng, n=int(rng.integers(0, 100)))
            text = io.StringIO()
            write_events_csv(stream, text)
            back = read_events_csv(io.StringIO(text.getvalue()),
                                   stream.sensor_width, stream.sensor_height,
                                   stream.t_begin, stream.t_end)
            _, binary_back = round_trip_events(stream)
            assert streams_equal(back, binary_back)


def read_csv(text, w=8, h=8, t_begin=0, t_end=100_000):
    return read_events_csv(io.StringIO(text), w, h, t_begin, t_end)


class TestEventCsv:
    @pytest.mark.parametrize("line", [
        "10,0,0,300", "10,0,0,0", "10,1099511627776,0,1", "10,0,-1,1",
        "1180591620717411303424,0,0,1", "100001,0,0,1",
    ], ids=["p-300", "p-0", "x-2**40", "y-negative", "t-2**70", "t-after-end"])
    def test_out_of_range_value(self, line):
        with pytest.raises(FormatError):
            read_csv(line + "\n")

    @pytest.mark.parametrize("text", [
        "1,2,3\n", "1,2,3,4,5\n", "1,2,3,4\n5,6,7\n", "1,2,3,4,\n",
        "1.5,0,0,1\n", "1e3,0,0,1\n", "a,0,0,1\n", ",,,\n", "1_0,0,0,1\n",
        "#1,0,0,1\n", "1,0,0,1\n  \n", "\u0661,0,0,1\n", "\U00020000,0,0,1\n",
    ])
    def test_malformed_line(self, text):
        with pytest.raises(FormatError):
            read_csv(text)

    def test_undecodable_file(self, tmp_path):
        (tmp_path / "ev.csv").write_bytes(b"10,1,2,1\n\xff\xfe\n")
        with pytest.raises(FormatError):
            read_events_csv(tmp_path / "ev.csv", 8, 8, 0, 100)

    def test_blank_lines_and_crlf(self):
        stream = read_csv("\r\n10,1,2,1\r\n\r\n20, 3 ,4,-1\r\n\n")
        assert list(stream) == [Event(1, 2, 10, 1), Event(3, 4, 20, -1)]

    @pytest.mark.parametrize("text", ["", "\n\n", " \r\n"])
    def test_empty_input(self, text):
        stream = read_csv(text)
        assert len(stream) == 0
        assert [a.dtype for a in (stream.t, stream.x, stream.y, stream.p)] == \
            [np.int64, np.int32, np.int32, np.int8]

    def test_writer_bytes_match_per_event_format(self, rng, tmp_path):
        for n in (0, 1, 300):
            stream = random_stream(rng, n=n, t_begin=-5, t_end=2 ** 40)
            want = "".join("%d,%d,%d,%d\n" % (e.t, e.x, e.y, e.p) for e in stream)
            write_events_csv(stream, tmp_path / "ev.csv")
            assert (tmp_path / "ev.csv").read_bytes() == want.encode()
            back = read_events_csv(tmp_path / "ev.csv", 8, 8, -5, 2 ** 40)
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
