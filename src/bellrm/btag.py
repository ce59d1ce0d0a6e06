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
holds two records on the same nanosecond.  ``iter_btag`` reads a file in
pieces of ``PIECE_RECORDS`` records, so a reader's memory does not grow
with the file; it checks the header, the size and the field ranges, and
names a bad record by its index and byte offset in the whole file.  The
order is checked where the stream is matched (``timetags.match_events``).
``join_events`` joins event arrays by copying whole records.
``BtagWriter`` writes a file through ``atomic_open``, so a file appears
whole or not at all.  The CSV mirror carries one record per line in the
same field order, station written as A/B.  It is an export for other
tools: ``write_csv`` writes it piece by piece, and bellrm has no CSV
reader.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, IntegrityError

MAGIC = b"BTAG"
VERSION = 1
HEADER_SIZE = 32
RECORD_SIZE = 16
# Records per read in iter_btag: 1 MiB, small next to the interpreter and
# numpy, large enough that the per-piece work stays in numpy.
PIECE_RECORDS = 65_536

STATION_A = 0
STATION_B = 1
STATION_LETTERS = {STATION_A: "A", STATION_B: "B"}

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
    """Streaming writer; patches the record count into the header on close.

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
        if events.dtype != EVENT_DTYPE:
            events = events.astype(EVENT_DTYPE)
        events.tofile(self._fh)
        self.count += events.size

    def __exit__(self, exc_type, exc, tb):
        return self._file.__exit__(exc_type, exc, tb)


def iter_btag(path: str | Path, piece_records: int = PIECE_RECORDS) -> Iterator[np.ndarray]:
    """Read and validate a BTAG file in pieces of at most ``piece_records`` records.

    Yields the merged event array piece by piece, in file order (fewer than
    one record per piece is a ``ConfigError``); an empty file yields
    nothing.  The header and size are checked before the first piece and
    the field ranges on each piece; an ``IntegrityError`` gives the byte
    offset in the whole file.
    """
    if piece_records < 1:
        raise ConfigError(f"piece_records must be >= 1, got {piece_records}")
    path = Path(path)
    size = path.stat().st_size
    if size < HEADER_SIZE:
        raise IntegrityError(f"{path}: truncated header ({size} bytes)", size)
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if header[0:4] != MAGIC:
            raise IntegrityError(f"{path}: bad magic {header[0:4]!r}", 0)
        version = int.from_bytes(header[4:8], "little")
        if version != VERSION:
            raise IntegrityError(f"{path}: unsupported version {version}", 4)
        count = int.from_bytes(header[8:16], "little")
        expected = HEADER_SIZE + count * RECORD_SIZE
        if size != expected:
            offset = min(size, expected)
            raise IntegrityError(
                f"{path}: size {size} does not match header count {count}", offset
            )
        first = 0
        while first < count:
            n = min(piece_records, count - first)
            events = np.fromfile(fh, dtype=EVENT_DTYPE, count=n)
            if events.size != n:
                offset = HEADER_SIZE + (first + events.size) * RECORD_SIZE
                raise IntegrityError(f"{path}: file ends early", offset)
            bad = np.flatnonzero((events["station"] | events["port_bit"]) > 1)
            if bad.size:
                i = int(bad[0])
                raise IntegrityError(
                    f"{path}: record {first + i} has station {events['station'][i]} and "
                    f"port_bit {events['port_bit'][i]}; both must be 0 or 1",
                    HEADER_SIZE + (first + i) * RECORD_SIZE,
                )
            yield events
            first += n


def join_events(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate event arrays as whole records: numpy copies a structured
    array field by field, about 20 times slower."""
    dtype = parts[0].dtype
    raw = np.dtype((np.void, dtype.itemsize))
    return np.concatenate([part.view(raw) for part in parts]).view(dtype)


def write_csv(path: str | Path, pieces) -> None:
    """Write the CSV mirror of event arrays given piece by piece, as
    ``iter_btag`` yields them."""
    letters = np.array([STATION_LETTERS[STATION_A], STATION_LETTERS[STATION_B]])
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for events in pieces:
            columns = (
                events["timestamp_ns"].tolist(),
                events["pulse_index"].tolist(),
                letters[events["station"]].tolist(),
                events["port_bit"].tolist(),
                events["setting_index"].tolist(),
            )
            fh.writelines(map("%d,%d,%s,%d,%d\n".__mod__, zip(*columns)))

