"""repro.durability — crash-safe persistence primitives.

Three building blocks, shared by every layer that must survive process
death (the sweep's store of finished jobs — its result cache and its
checkpoints — and the proxy store's journaled state):

* :func:`atomic_write_bytes` / :func:`atomic_write_text` — the classic
  tmp + fsync + rename sequence.  A reader never observes a half-written
  file: either the old content or the new content exists, all the way
  through a crash (including one injected mid-write by the disk-fault
  rules below).
* :class:`Journal` — a checksummed, append-only log.  Every record is
  one canonical-JSON line carrying a SHA-256 of its payload, which pins
  the length and SHA-256 of any raw blob (a body) written after the
  line; :func:`read_journal` replays up to the first record that fails
  and *discards the tail* from there on — the torn-tail tolerance a
  crash mid-append requires.  Appends fsync by default, so a record
  returned from :meth:`Journal.append` survives SIGKILL;
  :func:`rewrite_journal` compacts one in a single atomic write, and
  its header may carry the state's identity (a sweep's fingerprints).
* :func:`write_checksummed_jsonl` / :func:`read_checksummed_jsonl` —
  the export envelope: canonical JSONL followed by one trailer record
  pinning the record count and a SHA-256 of the body, so a truncated or
  edited export (time series, MRC curves) is diagnosed in one line.

Fault injection: every write path accepts an optional ``faults``
injector (a :class:`repro.faults.FaultInjector` over the disk-fault
kinds).  The module itself stays import-free of :mod:`repro.faults` —
rules are duck-typed on their ``kind`` value — so low-level persistence
never drags the proxy/origin stack into importers.  Injected faults:

* ``enospc`` — the write raises ``OSError(ENOSPC)`` before touching
  the file (a full disk);
* ``torn_write`` — only a prefix of the payload reaches the file and
  the call raises (power loss mid-``write(2)``); an atomic write leaves
  the *target* untouched, a journal gains a torn tail;
* ``fsync_fail`` — the data is handed to the kernel but the flush
  raises (dying device); callers must treat the file's durability as
  unknown.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Type, Union

__all__ = [
    "JOURNAL_FORMAT",
    "ManifestError",
    "Journal",
    "JournalRecovery",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "checksum",
    "jsonl_checksum",
    "read_checksummed_jsonl",
    "read_journal",
    "rewrite_journal",
    "write_checksummed_jsonl",
]

#: On-disk journal format; bumped only when the envelope changes (2 put
#: raw blobs after a record's line; format-1 files still replay).
JOURNAL_FORMAT = 2

#: Magic value opening every journal file (the header's first field).
_JOURNAL_MAGIC = "repro-journal"

#: Disk-fault kind values (mirrors :class:`repro.faults.FaultKind`
#: members without importing them — ``FaultKind`` is a str enum, so a
#: rule's ``kind`` compares equal to these literals).
_ENOSPC = "enospc"
_TORN_WRITE = "torn_write"
_FSYNC_FAIL = "fsync_fail"


class ManifestError(ValueError):
    """A journal header names a different state than the one opening it
    (a sweep checkpoint written by another sweep)."""


def canonical_json(record: object) -> str:
    """The canonical serialisation checksums are computed over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def checksum(record: object) -> str:
    """SHA-256 hex digest of a record's canonical JSON."""
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()


def fsync_directory(path: Union[str, Path]) -> None:
    """Flush a directory entry (so a rename itself is durable).

    Best-effort: some platforms/filesystems refuse directory fds; a
    failure here degrades durability, never correctness.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent refusal
        pass
    finally:
        os.close(fd)


def _next_disk_fault(faults, path: Path):
    """Consult an injector (if any) for the fate of one disk operation."""
    if faults is None:
        return None
    return faults.next_fault(url=str(path))


def _apply_write_faults(rule, handle: IO, data, path: Path) -> None:
    """Perform the (possibly faulted) write of ``data`` to ``handle``
    (bytes to a binary handle, or text to a text one)."""
    if rule is not None and rule.kind == _TORN_WRITE:
        handle.write(data[: max(0, rule.truncate_to)])
        handle.flush()
        raise OSError(
            errno.EIO, f"injected torn write ({path})",
        )
    handle.write(data)


def _apply_fsync(rule, handle: IO, path: Path, fsync: bool) -> None:
    handle.flush()
    if rule is not None and rule.kind == _FSYNC_FAIL:
        raise OSError(errno.EIO, f"injected fsync failure ({path})")
    if fsync:
        os.fsync(handle.fileno())


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    fsync: bool = True,
    faults=None,
) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    The destination either keeps its previous content or gains the full
    new content; a crash (or injected fault) mid-write leaves at most a
    stray ``*.tmp.<pid>`` file behind, never a partial target.
    """
    path = Path(path)
    rule = _next_disk_fault(faults, path)
    if rule is not None and rule.kind == _ENOSPC:
        raise OSError(errno.ENOSPC, f"injected ENOSPC ({path})")
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            _apply_write_faults(rule, handle, data, path)
            _apply_fsync(rule, handle, path, fsync)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    if fsync:
        fsync_directory(path.parent)
    return path


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    fsync: bool = True,
    faults=None,
) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(
        path, text.encode("utf-8"), fsync=fsync, faults=faults,
    )


# -- the append-only journal --------------------------------------------------


def _journal_line(payload: dict) -> bytes:
    """One journal line, without its newline: the payload wrapped with
    its checksum.  The payload is encoded once; the bytes equal
    ``canonical_json({"sha": checksum(payload), "rec": payload})``."""
    canon = canonical_json(payload).encode("utf-8")
    digest = hashlib.sha256(canon).hexdigest().encode("ascii")
    return b'{"rec":' + canon + b',"sha":"' + digest + b'"}'


def _journal_record(payload: dict, blob: Optional[bytes] = None) -> bytes:
    """One record's bytes: its line, then a ``blob`` raw behind it, pinned
    by a reserved ``"blob"`` key holding ``[length, SHA-256 hex]``."""
    if blob is None:
        return _journal_line(payload) + b"\n"
    pin = [len(blob), hashlib.sha256(blob).hexdigest()]
    return _journal_line(dict(payload, blob=pin)) + b"\n" + blob + b"\n"


def _journal_header(kind: str, extra: Optional[dict] = None) -> bytes:
    """The header line; the journal's own fields win over ``extra``."""
    return _journal_record(dict(
        extra or {}, magic=_JOURNAL_MAGIC, format=JOURNAL_FORMAT, kind=kind,
    ))


def _decode_journal_line(line: bytes) -> dict:
    """Parse and verify one journal line; raises ``ValueError`` on any
    truncation, corruption, or tampering."""
    envelope = json.loads(line)
    if not isinstance(envelope, dict) or "rec" not in envelope:
        raise ValueError("not a journal envelope")
    payload = envelope["rec"]
    if envelope.get("sha") != checksum(payload):
        raise ValueError("journal record checksum mismatch")
    return payload


class Journal:
    """A checksummed append-only journal, one JSON line per record.

    The first line is a header naming the format and the journal's
    ``kind`` (what subsystem's records it holds); every subsequent line
    is a record envelope, followed by the record's raw blob and a
    newline when it has one.  Appends are flushed — and by default
    fsynced — before returning, so a returned append survives SIGKILL.

    A write fault (torn write, failed fsync, ENOSPC) marks the journal
    *broken*: later appends fail fast instead of writing records after
    a torn line, which would corrupt the replayable prefix.  This
    mirrors a real crash, where nothing is appended after the tear.
    """

    def __init__(
        self,
        path: Union[str, Path],
        kind: str = "journal",
        fsync: bool = True,
        faults=None,
        truncate: bool = False,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.fsync = fsync
        self.faults = faults
        self.appends = 0
        self._broken = False
        fresh = truncate or not self.path.exists() or (
            self.path.stat().st_size == 0
        )
        self._handle = open(self.path, "wb" if fresh else "ab")
        if fresh:
            self._handle.write(_journal_header(kind))
            _apply_fsync(None, self._handle, self.path, fsync)

    def append(self, payload: dict, blob: Optional[bytes] = None) -> None:
        """Durably append one record (fsynced before returning); a
        ``blob`` follows the line raw, pinned by a reserved ``"blob"`` key
        holding ``[length, SHA-256 hex]``."""
        if self._broken:
            raise OSError(
                errno.EIO, f"journal {self.path} broken by an earlier fault",
            )
        data = _journal_record(payload, blob)
        rule = _next_disk_fault(self.faults, self.path)
        try:
            if rule is not None and rule.kind == _ENOSPC:
                raise OSError(errno.ENOSPC, f"injected ENOSPC ({self.path})")
            _apply_write_faults(rule, self._handle, data, self.path)
            _apply_fsync(rule, self._handle, self.path, self.fsync)
        except OSError:
            self._broken = True
            raise
        self.appends += 1

    @property
    def broken(self) -> bool:
        """Whether a write fault poisoned this journal generation."""
        return self._broken

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalRecovery:
    """What replaying a journal found.

    ``records`` is the verified prefix (a blob record's ``"blob"`` holds
    the bytes); ``discarded`` counts the records dropped from the first
    bad one onward (``truncated`` says whether any were) — the torn tail
    a crash mid-append leaves behind.  ``header`` is the verified header
    line (empty when the file is missing or its header fails).
    """

    records: List[dict] = field(default_factory=list)
    truncated: bool = False
    discarded: int = 0
    missing: bool = False
    kind: str = ""
    header: dict = field(default_factory=dict)

    @property
    def replayed(self) -> int:
        return len(self.records)


def _journal_records(data: bytes, pos: int) -> Iterator[Optional[dict]]:
    """Each record from offset ``pos`` on: its verified payload, or
    ``None`` when its line, blob length or blob digest fails."""
    while pos < len(data):
        end = data.find(b"\n", pos)
        if end < 0:
            yield None  # torn before its newline
            return
        line, pos = data[pos:end], end + 1
        try:
            payload = _decode_journal_line(line)
            if "blob" in payload:
                length, digest = payload["blob"]
                payload["blob"] = blob = data[pos:pos + max(0, length)]
                pos += max(0, length) + 1
                if (data[pos - 1:pos] != b"\n"
                        or hashlib.sha256(blob).hexdigest() != digest):
                    raise ValueError("torn or corrupt journal blob")
        except (ValueError, TypeError):
            payload = None
        yield payload


def read_journal(
    path: Union[str, Path], kind: Optional[str] = None,
) -> JournalRecovery:
    """Replay a journal (format 1 or 2), tolerating a torn tail.

    Verifies the header (magic, format, and ``kind`` when given) and
    each record's checksum, plus a blob record's length and digest.  The
    first record that fails ends the replay: it and everything after it
    are counted in ``discarded``.  A missing file is an empty journal
    with ``missing=True``; a journal whose *header* fails is entirely
    discarded (it is not a journal we wrote).
    """
    path = Path(path)
    recovery = JournalRecovery(kind=kind or "")
    try:
        data = path.read_bytes()
    except OSError:
        recovery.missing = True
        return recovery
    if not data:
        return recovery
    end = data.find(b"\n")
    try:
        header = _decode_journal_line(data[:end] if end >= 0 else b"")
        if header.get("magic") != _JOURNAL_MAGIC:
            raise ValueError("bad journal magic")
        if header.get("format") not in (1, JOURNAL_FORMAT):
            raise ValueError("unknown journal format")
        if kind is not None and header.get("kind") != kind:
            raise ValueError(
                f"journal kind {header.get('kind')!r}, wanted {kind!r}"
            )
        recovery.kind = str(header.get("kind", ""))
        recovery.header = header
    except (ValueError, TypeError, AttributeError):
        recovery.truncated = True
        recovery.discarded = len(data.splitlines())
        return recovery
    records = _journal_records(data, end + 1)
    for record in records:
        if record is None:
            recovery.truncated = True
            recovery.discarded = 1 + sum(1 for _ in records)
            break
        recovery.records.append(record)
    return recovery


def rewrite_journal(
    path: Union[str, Path],
    records: List[dict],
    kind: str = "journal",
    fsync: bool = True,
    faults=None,
    header: Optional[dict] = None,
) -> Journal:
    """Replace a journal with a fresh generation holding exactly
    ``records`` (a record's ``"blob"`` key, if any, as its raw blob),
    under a header that also carries the ``header`` fields (the
    journal's own ``magic``, ``format`` and ``kind`` win over them).

    The one compaction step: the header and each record are encoded as
    :meth:`Journal.append` encodes them and written in one
    :func:`atomic_write_bytes` — one disk-fault event, and a fault or
    crash leaves the previous file byte-identical.  The proxy store
    compacts to one put per survivor; every open of a sweep's store
    (result cache or checkpoint) writes its header and verified prefix
    this way.  Returns the
    journal, open for appends.
    """
    data = [_journal_header(kind, header)]
    for record in records:
        payload = dict(record)
        data.append(_journal_record(payload, payload.pop("blob", None)))
    atomic_write_bytes(path, b"".join(data), fsync=fsync, faults=faults)
    return Journal(path, kind=kind, fsync=fsync, faults=faults)


# -- the checksummed JSONL export envelope ------------------------------------


def _jsonl_body(records: Iterable[dict]) -> bytes:
    return "".join(
        canonical_json(record) + "\n" for record in records
    ).encode("utf-8")


def jsonl_checksum(records: Iterable[dict]) -> str:
    """SHA-256 over the canonical JSONL body (what the trailer pins)."""
    return hashlib.sha256(_jsonl_body(records)).hexdigest()


def write_checksummed_jsonl(
    records: List[dict], path: Union[str, Path], kind: str,
) -> int:
    """Write ``records`` as canonical JSONL plus a trailing
    ``{"kind": kind, "samples": n, "sha256": ...}`` record; returns the
    record count (excluding the trailer line)."""
    body = _jsonl_body(records)
    trailer = _jsonl_body([{
        "kind": kind,
        "samples": len(records),
        "sha256": hashlib.sha256(body).hexdigest(),
    }])
    Path(path).write_bytes(body + trailer)
    return len(records)


def read_checksummed_jsonl(
    path: Union[str, Path], kind: str, error: Type[Exception],
) -> List[dict]:
    """Parse and verify an export written by
    :func:`write_checksummed_jsonl` with the same ``kind``.

    Raises ``error`` (with a one-line reason) when the file is missing,
    empty, truncated, or fails its checksum — the failure modes a CLI
    must diagnose, not traceback.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as failure:
        raise error(f"cannot read {path}: {failure}") from failure
    if not text.strip():
        raise error(f"{path} is empty")
    records: List[dict] = []
    trailer: Optional[dict] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if trailer is not None:
            raise error(f"{path}:{lineno}: data after the checksum trailer")
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise error(
                f"{path}:{lineno}: truncated or corrupt JSON line"
            ) from None
        if isinstance(record, dict) and record.get("kind") == kind:
            trailer = record
        else:
            records.append(record)
    if trailer is None:
        raise error(f"{path}: missing checksum trailer (file truncated?)")
    if trailer.get("samples") != len(records):
        raise error(
            f"{path}: trailer declares {trailer.get('samples')} samples, "
            f"found {len(records)}"
        )
    if trailer.get("sha256") != jsonl_checksum(records):
        raise error(f"{path}: checksum mismatch")
    return records
