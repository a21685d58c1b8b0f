"""An append-only journal of crc32-framed JSON lines, and its snapshot.

The HDFS namenode's model (an edit log replayed over a checkpointed
image, ``save_namespace``) at the scale of one directory: every state
change appends one record to a :class:`Journal`, snapshot files written
by :func:`write_json_rows` hold everything up to the last compaction,
and recovery replays the journal over the snapshot.  A change then
costs the size of the change, not the size of the state.

A record is one line: the ``zlib.crc32`` of its JSON payload as eight
hex digits, a space, the payload and a newline.  The first line that is
cut short or fails its crc ends the journal — a process killed in the
middle of an append leaves exactly such a torn tail — and
:meth:`Journal.replay` truncates the file there, so the next append
starts on a record boundary.  Nothing is ``fsync``\\ ed: a record
survives the process being killed, not the host losing power.
"""

from __future__ import annotations

import json
import os
import zlib

__all__ = ["Journal", "write_json_rows"]


def _frame(record: dict) -> bytes:
    """``record`` as one journal line."""
    payload = json.dumps(record, sort_keys=True).encode()
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def _unframe(line: bytes) -> dict | None:
    """The record a line (newline stripped) holds, or None if torn."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    payload = line[9:]
    try:
        if int(line[:8], 16) != zlib.crc32(payload):
            return None
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class Journal:
    """One append-only journal file.  Callers serialise :meth:`append`
    and :meth:`reset` (the owner holds one lock for append + compaction).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.nbytes = 0  # bytes appended since the last reset

    def replay(self) -> list[dict]:
        """Every intact record in append order; a torn tail is cut off
        the file."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        records: list[dict] = []
        end = 0
        while end < len(data):
            newline = data.find(b"\n", end)
            record = _unframe(data[end:newline]) if newline >= 0 else None
            if record is None:
                break
            records.append(record)
            end = newline + 1
        if end < len(data):
            with open(self.path, "r+b") as fh:
                fh.truncate(end)
        self.nbytes = end
        return records

    def append(self, record: dict) -> int:
        """Append one record; returns the journal's size since the last
        reset."""
        line = _frame(record)
        with open(self.path, "ab") as fh:
            fh.write(line)
        self.nbytes += len(line)
        return self.nbytes

    def reset(self) -> None:
        """Empty the journal (its records are in the snapshot now)."""
        with open(self.path, "wb"):
            pass
        self.nbytes = 0


def write_json_rows(path: str, key: str, rows, **fields) -> int:
    """Atomically write ``{key: [*rows], **fields}`` as one JSON line and
    return its size.

    The bytes are ``json.dumps(..., sort_keys=True)``'s when ``key``
    sorts before every field name, but rows are encoded one at a time:
    a snapshot of a long history never exists as one string.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("{%s: [" % json.dumps(key))
        sep = ""
        for row in rows:
            fh.write(sep)
            fh.write(json.dumps(row, sort_keys=True))
            sep = ", "
        fh.write("]")
        for name in sorted(fields):
            fh.write(f", {json.dumps(name)}: {json.dumps(fields[name], sort_keys=True)}")
        fh.write("}\n")
        size = fh.tell()
    os.replace(tmp, path)
    return size
