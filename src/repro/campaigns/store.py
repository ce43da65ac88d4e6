"""Content-addressed, resumable on-disk store of replication results.

Layout (one directory per scenario content hash, one file per seed)::

    <root>/
      ab/
        ab12...ef/
          spec.json        # provenance: the first spec stored here
          7.json           # record of the replication run with seed 7
          1734...55.json

Records are written atomically (temp file + ``os.replace``), so a
killed ``run-campaign`` never leaves a half-written record: on resume a
record either parses — and its replication is skipped — or it does not
exist.  A record that fails to parse (torn write on a crash-unsafe
filesystem, manual truncation) is treated as missing and recomputed.

The key is ``(scenario_hash(spec), seed)`` — *what* was simulated, not
what the campaign called it — so renamed campaigns, re-ordered grids
and grown replication counts all reuse every completed replication.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.scenarios.runner import ReplicationResult
from repro.scenarios.spec import ScenarioSpec

#: Bump when the record schema changes; mismatched records are ignored
#: (recomputed), never misread.
RECORD_VERSION = 1

#: Evaluation paths a record may carry.  ``simulated`` results come from
#: the discrete-event engine, ``analytic`` ones from the queueing-model
#: fast path (``repro.campaigns.hybrid``).  The field is additive within
#: RECORD_VERSION 1: records written before it existed carry no ``path``
#: key and rehydrate as ``simulated`` (see :func:`record_path`).
RECORD_PATHS = ("simulated", "analytic")


def record_path(record: Mapping[str, Any]) -> str:
    """The evaluation path of a stored record (``simulated`` default).

    >>> record_path({"path": "analytic"})
    'analytic'
    >>> record_path({})                      # pre-provenance record
    'simulated'
    """
    return str(record.get("path", RECORD_PATHS[0]))


def parse_record(raw: bytes) -> Optional[Dict[str, Any]]:
    """Decode one stored record, or ``None`` when it is unusable: torn,
    not a JSON object, another :data:`RECORD_VERSION`, or carrying no
    ``result``.  Both store layouts read records through here.

    >>> parse_record(b'{"version": 1, "result": null}')
    {'version': 1, 'result': None}
    >>> parse_record(b'{"version": 1, "res') is None      # torn write
    True
    """
    try:
        record = json.loads(raw)
    except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
        return None
    if (
        not isinstance(record, dict)
        or record.get("version") != RECORD_VERSION
        or "result" not in record
    ):
        return None
    return record


#: An ``"index": <int>`` or ``"seed": <int>`` member of a sorted-key
#: JSON text (what follows a member is ``,`` or ``}``).
_REPLICATION_MEMBER = re.compile(r'"(index|seed)": (-?\d+)(?=[,}])')


def encode_replications(
    record: Mapping[str, Any], siblings: Sequence[Tuple[int, int]] = ()
) -> List[str]:
    """``json.dumps(r, sort_keys=True)`` of ``record`` and of each
    sibling, from one encode.

    A sibling ``(index, seed)`` is ``record`` with ``seed`` and the
    result's ``index`` and ``seed`` replaced.  Its text is the
    record's with those three integers put in.  They are found by
    value; when the text holds more ``"index"``/``"seed"`` members with
    those values than the three fields (an operator or provenance key
    called ``seed``), each sibling is encoded on its own.

    >>> record = {"seed": 7, "result": {"index": 0, "seed": 7}}
    >>> encode_replications(record, [(1, 12)])
    ['{"result": {"index": 0, "seed": 7}, "seed": 7}', \
'{"result": {"index": 1, "seed": 12}, "seed": 12}']
    """
    text = json.dumps(record, sort_keys=True)
    if not siblings:
        return [text]
    result = record["result"]
    wanted = {
        "index": (result["index"],),
        "seed": (record["seed"], result["seed"]),
    }
    slots = [
        match
        for match in _REPLICATION_MEMBER.finditer(text)
        if int(match[2]) in wanted[match[1]]
    ]
    names = [match[1] for match in slots]
    if names.count("index") != 1 or names.count("seed") != 2:
        return [text] + [
            json.dumps(_sibling_record(record, index, seed), sort_keys=True)
            for index, seed in siblings
        ]
    pieces = []
    cursor = 0
    for match in slots:
        pieces.append(text[cursor : match.start(2)])
        cursor = match.end(2)
    tail = text[cursor:]
    lines = [text]
    for index, seed in siblings:
        values = {"index": str(int(index)), "seed": str(int(seed))}
        parts = []
        for piece, name in zip(pieces, names):
            parts.append(piece)
            parts.append(values[name])
        parts.append(tail)
        lines.append("".join(parts))
    return lines


def _sibling_record(
    record: Mapping[str, Any], index: int, seed: int
) -> Dict[str, Any]:
    """``record`` under replication ``index`` and ``seed``."""
    return {
        **record,
        "seed": int(seed),
        "result": {**record["result"], "index": int(index), "seed": int(seed)},
    }


def write_json_atomic(path: Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` as sorted-key JSON, atomically (see
    :func:`write_text_atomic`).  Store records and job-queue records
    both go through here.  The text is encoded in one ``json.dumps``
    call: ``json.dump`` to a file takes the stdlib's pure-Python
    encoder, several times slower for the same bytes."""
    write_text_atomic(path, json.dumps(payload, sort_keys=True))


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` atomically: a temp file in the same directory,
    then ``os.replace`` — readers see the old file or the new one,
    never a torn one."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Directory-backed store of per-replication results.

    >>> import tempfile
    >>> from repro.campaigns.spec import scenario_hash
    >>> from repro.scenarios.runner import run_replication
    >>> from repro.scenarios.spec import ScenarioSpec
    >>> spec = ScenarioSpec(name="demo", workload="synthetic",
    ...                     policy="none", initial_allocation="10:10:10",
    ...                     duration=5.0, seed=7)
    >>> store = ResultStore(tempfile.mkdtemp())
    >>> digest = scenario_hash(spec)
    >>> store.has(digest, 7)
    False
    >>> result = run_replication(spec, 0)
    >>> _ = store.put(spec, digest, 7, result)
    >>> store.load(digest, 7) == result      # survives the round-trip
    True
    """

    def __init__(self, root: os.PathLike):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _bucket(self, spec_hash: str) -> Path:
        if len(spec_hash) < 8 or not all(
            c in "0123456789abcdef" for c in spec_hash
        ):
            raise ConfigurationError(f"malformed spec hash {spec_hash!r}")
        return self._root / spec_hash[:2] / spec_hash

    def record_path(self, spec_hash: str, seed: int) -> Path:
        return self._bucket(spec_hash) / f"{int(seed)}.json"

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def has(self, spec_hash: str, seed: int) -> bool:
        """True when a *parseable* record exists for ``(hash, seed)``."""
        return self.load(spec_hash, seed) is not None

    def load(self, spec_hash: str, seed: int) -> Optional[ReplicationResult]:
        """The stored replication result, or ``None`` when absent/torn."""
        record = self.load_record(spec_hash, seed)
        if record is None:
            return None
        try:
            return ReplicationResult.from_dict(record["result"])
        except (KeyError, TypeError, ValueError):
            # Shape-corrupted record (hand-edited, schema drift within a
            # version): same contract as a torn write — recompute it.
            return None

    def load_record(
        self, spec_hash: str, seed: int
    ) -> Optional[Dict[str, Any]]:
        """The raw record mapping (metrics only — no re-hydration)."""
        try:
            raw = self.record_path(spec_hash, seed).read_bytes()
        except OSError:
            return None
        return parse_record(raw)

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def put(
        self,
        spec: ScenarioSpec,
        spec_hash: str,
        seed: int,
        result: ReplicationResult,
        *,
        campaign: str = "",
        cell: str = "",
        path: str = "simulated",
        provenance: Optional[Mapping[str, Any]] = None,
        siblings: Sequence[Tuple[int, int]] = (),
    ) -> Path:
        """Persist one replication result atomically; returns its file.

        ``path`` tags how the result was produced (``simulated`` or
        ``analytic``); analytic results carry their admission
        ``provenance`` (manifest version, the envelope rule that
        admitted the cell) so a store is auditable after the fact.  The
        containing bucket also gets a one-time ``spec.json`` with the
        scenario that produced it, for human audit of a store.

        ``siblings`` are further ``(index, seed)`` replications with the
        same answer (an analytic cell's): each is stored as this record
        under its own seed and the result's index and seed
        (:func:`encode_replications`), one file per replication.
        """
        record = self._record(
            spec_hash,
            seed,
            result,
            campaign=campaign,
            cell=cell,
            path=path,
            provenance=provenance,
        )
        bucket = self._bucket(spec_hash)
        bucket.mkdir(parents=True, exist_ok=True)
        spec_path = bucket / "spec.json"
        if not spec_path.exists():
            write_json_atomic(spec_path, spec.to_dict())
        seeds = [seed] + [sibling for _, sibling in siblings]
        texts = encode_replications(record, siblings)
        for sibling, text in zip(seeds, texts):
            write_text_atomic(self.record_path(spec_hash, sibling), text)
        return self.record_path(spec_hash, seed)

    def _record(
        self,
        spec_hash: str,
        seed: int,
        result: ReplicationResult,
        *,
        campaign: str,
        cell: str,
        path: str,
        provenance: Optional[Mapping[str, Any]],
    ) -> Dict[str, Any]:
        """The record mapping both layouts persist (schema additive:
        ``path``/``analytic`` appeared after RECORD_VERSION 1 records
        already existed, so readers must treat them as optional)."""
        if path not in RECORD_PATHS:
            raise ConfigurationError(
                f"unknown record path {path!r}; expected one of {RECORD_PATHS}"
            )
        record: Dict[str, Any] = {
            "version": RECORD_VERSION,
            "spec_hash": spec_hash,
            "seed": int(seed),
            "campaign": campaign,
            "cell": cell,
            "path": path,
            "result": result.to_dict(),
        }
        if provenance is not None:
            record["analytic"] = dict(provenance)
        return record
