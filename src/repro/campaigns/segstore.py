"""Compacted, append-only segment backend for the result store.

The classic :class:`~repro.campaigns.store.ResultStore` writes one JSON
file per replication — perfect for atomic single-writer resume, fatal
for million-replication sweeps (millions of tiny files).  The
:class:`SegmentedResultStore` keeps the same content-addressed keys but
appends whole records as NDJSON lines to a handful of *segment* files
(one per writer name, so writers with distinct names never contend on a
file).

The in-memory index maps each ``(spec hash, seed)`` key to where its
line lives — ``(segment, byte offset, length)`` — and keeps no decoded
record, so its memory grows with the number of keys, not with record
bytes.  Building it decodes nothing: every line is
``json.dumps(record, sort_keys=True)`` (a cell's sibling lines are
built from one such encode, to the same bytes), so a record line ends in
``"seed": <int>, "spec_hash": "<hex>", "version": <int>}`` and a spec
line starts with ``{"kind": "spec", ``; the key is read from the
line's last few hundred bytes.  A line of any other shape (hand-edited)
is decoded once, as a full parse.  Record bodies load lazily:
:meth:`~SegmentedResultStore.load_record` reads the one line at its
offset, then decodes and validates it.

Each segment has a byte cursor at the end of its last complete line, so
:meth:`~SegmentedResultStore.refresh` reads only the bytes appended
since the previous call; a segment that shrank re-indexes the whole
store.  A long-lived reader (``repro serve`` holds one store for its
lifetime) pays for new bytes only.

Crash safety is inherited from the append-only discipline.  Bytes after
a segment's last newline are never indexed, so a write torn by a kill
leaves a trailing fragment that scans skip, and the next writer on that
segment terminates the fragment before its first append.  A line is
validated when it is read: one that does not decode is a miss and is
recomputed — the classic store's "parses or does not exist" contract,
checked at read time instead of scan time.

The classic per-file layout stays readable: when the root holds any
classic bucket directory, reads fall back to it for keys the segments
don't hold, and :func:`compact_store` converts an existing classic store
into segments in place (``repro store-compact``).
"""

from __future__ import annotations

import json
import os
import re
import threading
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaigns.store import (
    RECORD_VERSION,
    ResultStore,
    encode_replications,
    parse_record,
)
from repro.scenarios.spec import ScenarioSpec

#: Subdirectory of the store root holding segment files.
SEGMENT_DIR = "segments"

#: Where a key's line lives: ``(segment file, byte offset, length)``.
_Location = Tuple[Path, int, int]

#: The key fields every ``json.dumps(record, sort_keys=True)`` line ends
#: with (``seed`` is absent on spec lines).  They sort last, so they sit
#: inside the line's final :data:`_TAIL_BYTES` bytes.
_TAIL = re.compile(
    rb'(?:"seed": (-?\d+), )?"spec_hash": "([0-9a-f]+)", "version": (\d+)\}\Z'
)
_TAIL_BYTES = 256
_KIND_PREFIX = b'{"kind": '
_SPEC_PREFIX = b'{"kind": "spec", '


def _place(
    index: Dict[Tuple[str, int], _Location],
    key: Tuple[str, int],
    location: _Location,
) -> None:
    """Index ``location`` unless a segment whose name sorts later holds
    ``key``.  That is what one scan of every segment in name order,
    later lines winning, yields, however appends and refreshes
    interleave."""
    held = index.get(key)
    if held is None or held[0] <= location[0]:
        index[key] = location


def _is_bucket_parent(entry: os.DirEntry) -> bool:
    """A classic layout directory: two hex digits of a spec hash."""
    return (
        len(entry.name) == 2
        and all(c in "0123456789abcdef" for c in entry.name)
        and entry.is_dir()
    )


class SegmentedResultStore(ResultStore):
    """Result store writing to one append-only NDJSON segment.

    ``segment`` names this writer's segment file; concurrent writers
    using distinct segment names never contend, and writers sharing one
    append whole lines to it.  All segments — plus the classic per-file layout —
    are visible to reads.  One instance may be shared by threads:
    appends and :meth:`refresh` share a lock, reads take none.
    """

    def __init__(self, root: os.PathLike, *, segment: str = "main"):
        super().__init__(root)
        if not segment or any(c in segment for c in "/\\"):
            raise ValueError(f"malformed segment name {segment!r}")
        self._segment_dir = self.root / SEGMENT_DIR
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        self._segment_path = self._segment_dir / f"{segment}.ndjson"
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._close_fd: Optional[weakref.finalize] = None
        self._index: Dict[Tuple[str, int], _Location] = {}
        self._cursors: Dict[Path, int] = {}
        self._known_specs: Set[str] = set()
        self._has_classic = False
        self.refresh()

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Index the bytes appended since the last call; returns the
        number of indexed records.

        Only complete lines are indexed, so a torn trailing line (a
        writer killed mid-append) waits until a newline ends it.  A
        segment that shrank or vanished re-indexes every segment.
        """
        with self._lock:
            with os.scandir(self.root) as entries:
                self._has_classic = any(map(_is_bucket_parent, entries))
            sizes = {}
            for path in sorted(self._segment_dir.glob("*.ndjson")):
                try:
                    sizes[path] = path.stat().st_size
                except OSError:
                    continue
            if any(
                sizes.get(path, -1) < cursor
                for path, cursor in self._cursors.items()
            ):
                index: Dict[Tuple[str, int], _Location] = {}
                self._cursors = {}
                self._known_specs = set()
            else:
                index = self._index
            for path, size in sizes.items():
                if size > self._cursors.get(path, 0):
                    self._scan(path, index)
            self._index = index
            return len(index)

    def _scan(self, path: Path, index: Dict[Tuple[str, int], _Location]) -> None:
        """Index the complete lines of ``path`` past its cursor."""
        cursor = self._cursors.get(path, 0)
        try:
            with open(path, "rb") as handle:
                handle.seek(cursor)
                buf = handle.read()
        except OSError:
            return
        last = buf.rfind(b"\n")
        start = 0
        while start <= last:
            end = buf.index(b"\n", start)
            key = self._line_key(buf, start, end)
            if key is not None:
                _place(index, key, (path, cursor + start, end - start))
            start = end + 1
        self._cursors[path] = cursor + last + 1

    def _line_key(
        self, buf: bytes, start: int, end: int
    ) -> Optional[Tuple[str, int]]:
        """The ``(spec hash, seed)`` key of record line ``buf[start:end]``
        (noting spec lines in passing), or ``None`` for anything else."""
        match = _TAIL.search(buf, max(start, end - _TAIL_BYTES), end)
        if match is not None and int(match[3]) == RECORD_VERSION:
            seed, spec_hash = match[1], match[2].decode()
            if seed is None and buf.startswith(_SPEC_PREFIX, start):
                self._known_specs.add(spec_hash)
                return None
            if seed is not None and not buf.startswith(_KIND_PREFIX, start):
                return spec_hash, int(seed)
        # Not the writer's shape (hand-edited, or another version):
        # decode it once.
        record = parse_record(buf[start:end])
        if record is None:
            return None  # blank, torn or corrupt line
        spec_hash = record.get("spec_hash")
        if record.get("kind") == "spec":
            self._known_specs.add(spec_hash)
            return None
        try:
            return spec_hash, int(record["seed"])
        except (KeyError, TypeError, ValueError):
            return None

    @property
    def segment_path(self) -> Path:
        return self._segment_path

    def mean_record_bytes(self) -> Optional[float]:
        """Observed NDJSON bytes per indexed record, or ``None`` when the
        segments hold no records yet.  Drives the layout-aware store
        size estimate in :meth:`CampaignRunner.plan`: packed NDJSON
        lines cost their actual bytes, not a filesystem block each."""
        if not self._index:
            return None
        total = 0
        for path in self._segment_dir.glob("*.ndjson"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        if total <= 0:
            return None
        return total / len(self._index)

    # ------------------------------------------------------------------
    # read side: segments first, classic layout as fallback
    # ------------------------------------------------------------------
    def load_record(
        self, spec_hash: str, seed: int
    ) -> Optional[Dict[str, Any]]:
        """The record at the key's indexed line, read and decoded now; a
        line that no longer decodes is a miss."""
        location = self._index.get((spec_hash, int(seed)))
        if location is not None:
            path, offset, length = location
            try:
                fd = os.open(path, os.O_RDONLY)
                try:
                    raw = os.pread(fd, length, offset)
                finally:
                    os.close(fd)
            except OSError:
                raw = b""
            record = parse_record(raw)
            # A misplaced offset (a short write on a shared segment) can
            # land on another key's line: a sibling's, for one.
            if (
                record is not None
                and record.get("spec_hash") == spec_hash
                and record.get("seed") == int(seed)
            ):
                return record
        if self._has_classic:
            return super().load_record(spec_hash, seed)
        return None

    # ------------------------------------------------------------------
    # write side: append to this writer's segment
    # ------------------------------------------------------------------
    def put(
        self,
        spec: ScenarioSpec,
        spec_hash: str,
        seed: int,
        result,
        *,
        campaign: str = "",
        cell: str = "",
        path: str = "simulated",
        provenance=None,
        siblings: Sequence[Tuple[int, int]] = (),
    ) -> Path:
        """Append the record, and one per sibling ``(index, seed)``
        (see :meth:`ResultStore.put`), in one write: the spec line
        first if this store has not seen ``spec_hash``.  The lines are
        encoded from one ``json.dumps`` (:func:`encode_replications`)."""
        record = self._record(
            spec_hash,
            seed,
            result,
            campaign=campaign,
            cell=cell,
            path=path,
            provenance=provenance,
        )
        lines = encode_replications(record, siblings)
        seeds = [int(seed)] + [int(sibling) for _, sibling in siblings]
        with self._lock:
            new_spec = spec_hash not in self._known_specs
            if new_spec:
                lines.insert(0, _spec_line(spec_hash, spec.to_dict()))
            locations = self._append(lines)
            if new_spec:
                self._known_specs.add(spec_hash)
                del locations[0]
            for key_seed, location in zip(seeds, locations):
                _place(self._index, (spec_hash, key_seed), location)
        return self._segment_path

    def _append(self, lines: Sequence[str]) -> List[_Location]:
        """Append whole lines to this writer's segment in one write;
        returns where each landed.  The caller holds the lock."""
        encoded = [line.encode() for line in lines]
        data = b"\n".join(encoded) + b"\n"
        fd = self._writer()
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        end = os.lseek(fd, 0, os.SEEK_CUR)
        start = end - len(data)
        # Own lines need no rescan — unless another process appended to
        # this segment since the cursor, which leaves a gap to scan.
        if self._cursors.get(self._segment_path, 0) == start:
            self._cursors[self._segment_path] = end
        locations = []
        for line in encoded:
            locations.append((self._segment_path, start, len(line)))
            start += len(line) + 1
        return locations

    def _writer(self) -> int:
        """This writer's append descriptor, opened on first use."""
        if self._fd is None:
            fd = os.open(
                self._segment_path,
                os.O_RDWR | os.O_APPEND | os.O_CREAT,
                0o666,
            )
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                # A writer was killed mid-line: end its fragment, or the
                # next record would be glued onto it and never indexed.
                os.write(fd, b"\n")
            self._fd = fd
            # Closes the descriptor when the store is dropped unclosed.
            self._close_fd = weakref.finalize(self, os.close, fd)
        return self._fd

    def close(self) -> None:
        with self._lock:
            if self._close_fd is not None:
                self._close_fd()
                self._close_fd = None
                self._fd = None

    def __enter__(self) -> "SegmentedResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _spec_line(spec_hash: str, spec: Dict[str, Any]) -> str:
    """A segment's provenance line for one spec hash (the classic
    layout uses a spec.json per bucket; segments must not reintroduce
    one small file per scenario)."""
    return json.dumps(
        {
            "version": RECORD_VERSION,
            "kind": "spec",
            "spec_hash": spec_hash,
            "result": None,
            "spec": spec,
        },
        sort_keys=True,
    )


def compact_store(root: os.PathLike, *, segment: str = "compacted") -> dict:
    """Convert a classic per-file store into the segmented layout.

    Appends every parseable classic record to ``segments/<segment>.ndjson``
    (skipping keys the segments already hold), then deletes the absorbed
    per-replication files and their emptied buckets.  Returns counts:
    ``{"migrated": n, "skipped": n, "removed_files": n}``.
    """
    root = Path(root)
    store = SegmentedResultStore(root, segment=segment)
    migrated = skipped = removed = 0
    try:
        for bucket_parent in sorted(p for p in root.iterdir() if p.is_dir()):
            if bucket_parent.name == SEGMENT_DIR:
                continue
            for bucket in sorted(p for p in bucket_parent.iterdir() if p.is_dir()):
                spec_hash = bucket.name
                spec_dict = None
                provenance = bucket / "spec.json"
                if provenance.exists():
                    try:
                        spec_dict = json.loads(provenance.read_text())
                    except (OSError, json.JSONDecodeError):
                        spec_dict = None
                absorbed = []
                for path in sorted(bucket.glob("*.json")):
                    if not path.stem.lstrip("-").isdigit():
                        continue
                    seed = int(path.stem)
                    record = ResultStore.load_record(store, spec_hash, seed)
                    if record is None:
                        skipped += 1
                        continue
                    if (spec_hash, seed) not in store._index:
                        lines = [json.dumps(record, sort_keys=True)]
                        if spec_dict is not None and spec_hash not in store._known_specs:
                            lines.insert(0, _spec_line(spec_hash, spec_dict))
                            store._known_specs.add(spec_hash)
                        store._index[(spec_hash, seed)] = store._append(lines)[-1]
                        migrated += 1
                    absorbed.append(path)
                # The segment holds every absorbed record (flushed line
                # by line); only then do the originals go away.
                for path in absorbed:
                    path.unlink()
                    removed += 1
                leftover = [
                    p
                    for p in bucket.glob("*.json")
                    if p.stem.lstrip("-").isdigit()
                ]
                if not leftover and provenance.exists():
                    provenance.unlink()
                    removed += 1
                if not any(bucket.iterdir()):
                    bucket.rmdir()
            if not any(bucket_parent.iterdir()):
                bucket_parent.rmdir()
    finally:
        store.close()
    return {"migrated": migrated, "skipped": skipped, "removed_files": removed}
