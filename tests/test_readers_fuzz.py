"""Random and mutated-valid input into the readers.

Whatever the bytes (or, for the event CSV reader, the text), a reader
either decodes them or raises FormatError or InvalidInputError; any other
exception would surface as a traceback.
"""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evtpr import EventStream, FormatError, InvalidInputError
from evtpr.io_formats import (
    read_events,
    read_events_csv,
    read_frame,
    read_tensor,
    write_events,
    write_frame,
    write_tensor,
)

# database=None: no example saved by an earlier run is replayed, so a
# checkout draws the same examples with or without a .hypothesis directory
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _valid_events() -> bytes:
    buf = io.BytesIO()
    write_events(EventStream(sensor_width=5, sensor_height=3, t_begin=10, t_end=90,
                             t=np.array([10, 20, 20, 70], np.int64),
                             x=np.array([0, 4, 2, 1], np.int32),
                             y=np.array([2, 0, 1, 1], np.int32),
                             p=np.array([1, -1, 1, -1], np.int8)), buf)
    return buf.getvalue()


def _valid_tensor() -> bytes:
    buf = io.BytesIO()
    write_tensor(np.arange(12, dtype=np.float32).reshape(2, 3, 2), buf)
    return buf.getvalue()


def _valid_frame() -> bytes:
    buf = io.BytesIO()
    write_frame(np.linspace(0, 1, 24).reshape(2, 4, 3), buf)
    return buf.getvalue()


READERS = [
    (read_events, _valid_events()),
    (read_tensor, _valid_tensor()),
    (read_frame, _valid_frame()),
]
IDS = ["events", "tensor", "frame"]


def _decodes_or_rejects(reader, raw: bytes) -> None:
    try:
        reader(io.BytesIO(raw))
    except (FormatError, InvalidInputError):
        pass


# bytes that change a header's meaning: signs, comments, separators, digits
# and the top of a little-endian count field
SPECIAL = st.sampled_from(b"-+#_ \n09\x7f\xff")


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """valid with a few bytes overwritten, inserted or deleted, maybe cut.

    Half the edits land in the first 40 bytes, where every header lives.
    """
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, min(len(data), 40)) | st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "delete"]))
        byte = draw(SPECIAL | st.integers(0, 255))
        if op == "set" and pos < len(data):
            data[pos] = byte
        elif op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            del data[pos]
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut]) if draw(st.booleans()) else bytes(data)


@pytest.mark.parametrize("reader,valid", READERS, ids=IDS)
def test_valid_bytes_decode(reader, valid):
    reader(io.BytesIO(valid))


@pytest.mark.parametrize("reader,valid", READERS, ids=IDS)
@FUZZ
@given(keep=st.integers(0, 40), raw=st.binary(max_size=96))
def test_random_bytes(reader, valid, keep, raw):
    # a prefix of the valid file lets the random tail reach past the magic
    _decodes_or_rejects(reader, raw)
    _decodes_or_rejects(reader, valid[:keep] + raw)


@pytest.mark.parametrize("reader,valid", READERS, ids=IDS)
@FUZZ
@given(data=st.data())
def test_mutated_valid_bytes(reader, valid, data):
    _decodes_or_rejects(reader, data.draw(mutated(valid)))


# the events of _valid_events(), on the same 5x3 sensor and [10, 90] span
VALID_CSV = "10,0,2,1\n20,4,0,-1\n20,2,1,1\n70,1,1,-1\n"


def _csv_decodes_or_rejects(text: str) -> None:
    try:
        read_events_csv(io.StringIO(text), 5, 3, 10, 90)
    except (FormatError, InvalidInputError):
        pass


def test_valid_csv_decodes():
    assert list(read_events_csv(io.StringIO(VALID_CSV), 5, 3, 10, 90)) == \
        list(read_events(io.BytesIO(_valid_events())))


# characters that change a CSV line's meaning
CSV_TEXT = st.text(st.sampled_from("0123456789,-+ .e_x#\t\r\n\x00"), max_size=96)


@FUZZ
@given(text=CSV_TEXT | st.text(max_size=96))
# non-ASCII text drawn on checkouts without hypothesis's unicode cache; the
# first crashed np.loadtxt before the reader checked for ASCII
@example(text="\U000cd9d2")
@example(text="\U000e0100")
@example(text="\U00020000")
def test_random_csv_text(text):
    _csv_decodes_or_rejects(text)
    _csv_decodes_or_rejects(VALID_CSV + text)


@FUZZ
@given(data=st.data())
def test_mutated_valid_csv(data):
    _csv_decodes_or_rejects(data.draw(mutated(VALID_CSV.encode())).decode("latin-1"))
