"""Binary time-tag file format (BTAG) and its CSV mirror.

Layout, little-endian throughout:

  header, 32 bytes:
      magic    4 bytes  b"BTAG"
      version  u32      currently 1
      count    u64      number of records
      reserved 16 bytes zero
  records, 16 bytes each:
      timestamp_ns   u64
      pulse_index    u32
      station        u8   (0 = A, 1 = B)
      port_bit       u8   (0 = transmitted, 1 = reflected)
      setting_index  u16  index into the run's settings menu

Records are strictly sorted by (timestamp, station): one station never
holds two records on the same nanosecond.  ``BtagFile`` reads a file by
slices, each a read-only view of a mapping of just those records, so a
reader copies nothing and its memory does not grow with the file.  The
order is checked where the stream is matched (``timetags.match_events``).
``BtagWriter`` writes a file through ``rundir.atomic_open``, so a file appears
whole or not at all, and hashes the record region (byte 32 to the end)
as it writes it.  The header is a function of the record count, patched
in last, so no digest covers it: ``BtagFile`` checks every header byte
instead.  The CSV mirror carries one record per line in the same field
order, station written as A/B.  It is an export for other tools:
``write_csv`` writes it slice by slice and hashes it as it writes it, and
bellrm has no CSV reader.
"""

from __future__ import annotations

import hashlib
import mmap
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import IntegrityError
from .rundir import STATION_LETTERS, atomic_open

MAGIC = b"BTAG"
VERSION = 1
HEADER_SIZE = 32
RECORD_SIZE = 16
# Records in a window of timetags.cut_at_gaps (its first, and each step it
# grows by), in a slice write_csv or chsh.s_vs_window reads, and in one of the
# generator's merge slabs, about: 1 MiB, small next to the interpreter and
# numpy, large enough that work stays in numpy.
PIECE_RECORDS = 65_536

STATION_A = 0
STATION_B = 1

EVENT_DTYPE = np.dtype(
    [
        ("timestamp_ns", "<u8"),
        ("pulse_index", "<u4"),
        ("station", "u1"),
        ("port_bit", "u1"),
        ("setting_index", "<u2"),
    ]
)

CSV_HEADER = "timestamp_ns,pulse_index,station,port_bit,setting_index"

assert EVENT_DTYPE.itemsize == RECORD_SIZE


def _pack_header(count: int) -> bytes:
    buf = bytearray(HEADER_SIZE)
    buf[0:4] = MAGIC
    buf[4:8] = VERSION.to_bytes(4, "little")
    buf[8:16] = int(count).to_bytes(8, "little")
    return bytes(buf)


class BtagWriter:
    """Streaming writer; patches the record count into the header on close,
    and hashes each chunk of the record region right after writing it.

    Usable as a context manager:

        with BtagWriter(path) as w:
            for chunk in chunks:
                w.write(chunk)

    The file is written through ``atomic_open``, and the count is patched
    in only when the block ends without an exception: ``path`` never holds
    a partial file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.count = 0
        self._records = hashlib.sha256()

    @contextmanager
    def _open(self):
        with atomic_open(self.path, "wb") as fh:
            fh.write(_pack_header(0))
            yield fh
            fh.seek(0)
            fh.write(_pack_header(self.count))

    def __enter__(self) -> "BtagWriter":
        self._file = self._open()
        self._fh = self._file.__enter__()
        return self

    def write(self, events: np.ndarray) -> None:
        events = events.astype(EVENT_DTYPE, order="C", copy=False)
        events.tofile(self._fh)
        self._records.update(events)
        self.count += events.size

    def records_sha256(self) -> str:
        """Hex SHA-256 of the records written so far: the file from byte 32 on."""
        return self._records.hexdigest()

    def __exit__(self, exc_type, exc, tb):
        return self._file.__exit__(exc_type, exc, tb)


class BtagFile:
    """A BTAG file read by slices: ``with BtagFile(path) as f: part = f[a:b]``.

    Opening checks every header byte and the size; ``len`` is the record
    count.
    ``f[a:b]`` maps the bytes of records [a, b) read-only, from that offset
    rounded down to ``mmap.ALLOCATIONGRANULARITY``, and returns an
    ``EVENT_DTYPE`` view of the mapping, valid after the ``with`` block too;
    the mapping goes with the last array that uses it.  Each slice's station
    and port bits are checked.  Every fault is an ``IntegrityError`` that
    gives the byte offset in the whole file.
    """

    def __init__(self, path: str | Path):
        self.path = path = Path(path)
        self._fh = open(path, "rb")
        try:
            size = os.fstat(self._fh.fileno()).st_size
            if size < HEADER_SIZE:
                raise IntegrityError(f"{path}: truncated header ({size} bytes)", size)
            header = self._fh.read(HEADER_SIZE)
            if header[0:4] != MAGIC:
                raise IntegrityError(f"{path}: bad magic {header[0:4]!r}", 0)
            version = int.from_bytes(header[4:8], "little")
            if version != VERSION:
                raise IntegrityError(f"{path}: unsupported version {version}", 4)
            self._count = count = int.from_bytes(header[8:16], "little")
            expected = HEADER_SIZE + count * RECORD_SIZE
            if size != expected:
                raise IntegrityError(
                    f"{path}: size {size} does not match header count {count}",
                    min(size, expected),
                )
            for offset in range(16, HEADER_SIZE):
                if header[offset]:
                    raise IntegrityError(
                        f"{path}: reserved header byte holds {header[offset]}, not 0",
                        offset,
                    )
        except IntegrityError:
            self._fh.close()
            raise

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, key: slice) -> np.ndarray:
        a, b, step = key.indices(self._count)
        if step != 1:
            raise TypeError("a BtagFile is read by slices of consecutive records")
        if b <= a:
            return np.empty(0, dtype=EVENT_DTYPE)
        start = HEADER_SIZE + a * RECORD_SIZE
        base = start - start % mmap.ALLOCATIONGRANULARITY
        length = HEADER_SIZE + b * RECORD_SIZE - base
        try:
            mapping = mmap.mmap(self._fh.fileno(), length, access=mmap.ACCESS_READ, offset=base)
        except ValueError:  # the file shrank after it was opened
            size = os.fstat(self._fh.fileno()).st_size
            raise IntegrityError(f"{self.path}: file ends early", size) from None
        events = np.frombuffer(mapping, dtype=EVENT_DTYPE, count=b - a, offset=start - base)
        bad = np.flatnonzero((events["station"] | events["port_bit"]) > 1)
        if bad.size:
            i = int(bad[0])
            raise IntegrityError(
                f"{self.path}: record {a + i} has station {events['station'][i]} and "
                f"port_bit {events['port_bit'][i]}; both must be 0 or 1",
                HEADER_SIZE + (a + i) * RECORD_SIZE,
            )
        return events

    def __enter__(self) -> "BtagFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()


def write_csv(path: str | Path, events) -> str:
    """Write the CSV mirror of an event stream: an array or a ``BtagFile``,
    read ``PIECE_RECORDS`` records at a time.  Returns the hex SHA-256 of
    the file, hashed piece by piece as it is written."""
    letters = np.array([STATION_LETTERS[STATION_A], STATION_LETTERS[STATION_B]])
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as fh:

        def write(text: str) -> None:
            data = text.encode("ascii")
            fh.write(data)
            digest.update(data)

        write(CSV_HEADER + "\n")
        for first in range(0, len(events), PIECE_RECORDS):
            piece = events[first : first + PIECE_RECORDS]
            columns = (
                piece["timestamp_ns"].tolist(),
                piece["pulse_index"].tolist(),
                letters[piece["station"]].tolist(),
                piece["port_bit"].tolist(),
                piece["setting_index"].tolist(),
            )
            write("".join(map("%d,%d,%s,%d,%d\n".__mod__, zip(*columns))))
    return digest.hexdigest()
