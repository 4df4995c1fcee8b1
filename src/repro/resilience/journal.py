"""Crash-safe sweep journal: resumable progress on append-only JSONL.

A sweep writes one journal line per *completed* task — the task id plus
its full output payload and a digest of that payload — so that a run
killed at any instant (SIGINT, SIGKILL, power loss) can be restarted
with ``repro sweep --resume`` and skip everything that already finished.

Durability contract:

* the file starts with a **header** carrying a fingerprint of the sweep
  grid; resuming against a journal written for a different grid is an
  error, not a silent mix of incompatible results;
* every append is flushed and ``fsync``\\ ed before the executor moves
  on, so a journal line either exists completely or not at all — except
  for the final line of a crashed run, which may be **torn**;
* :meth:`SweepJournal.load_completed` therefore stops at the first
  unparsable line (appends are ordered, so everything before it is
  intact) and drops any entry whose payload digest does not verify;
* entries record the *output* of the task, so a resumed sweep replays
  them without recomputation and produces a byte-identical
  ``results.jsonl`` — the determinism contract survives the crash;
* entries also record the task's artifact key, and a resumed sweep
  replays an entry only into a task with the same key, so an artifact
  whose identity changed since the crash is recomputed, as the store
  would.

Degraded outputs (``_cacheable: false``, e.g. a fallback schedule from a
budget-starved solver) are deliberately **not** journaled by the sweep:
a resumed run gets a fresh chance at the exact answer.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Mapping, TextIO

from repro.errors import JournalError
from repro.resilience import faultplane

logger = logging.getLogger(__name__)


def payload_digest(payload: dict[str, Any]) -> str:
    """Canonical payload digest (lazy import: ``repro.runtime.sweep``
    imports this module, so a top-level import of ``repro.runtime.cache``
    would be circular whenever the journal is imported first)."""
    from repro.runtime.cache import payload_digest as digest

    return digest(payload)

#: On-disk journal format version.
JOURNAL_FORMAT = 1


def run_fingerprint(grid: dict[str, Any]) -> str:
    """Stable identity of a sweep grid (what a journal may resume)."""
    text = json.dumps(grid, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


class SweepJournal:
    """Append-only completion log for one sweep output directory.

    Args:
        path: journal file location (conventionally
            ``<output-dir>/journal.jsonl``).
        fingerprint: grid identity from :func:`run_fingerprint`; guards
            against resuming an unrelated sweep's journal.
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._handle: TextIO | None = None
        self._broken = False

    # -- reading ---------------------------------------------------------------

    def _header(self) -> dict[str, Any] | None:
        """Parsed header line of an existing journal, else None."""
        try:
            with open(self.path) as handle:
                first = handle.readline()
        except OSError:
            return None
        try:
            record = json.loads(first)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict) or record.get("type") != "header":
            return None
        return record

    def load_completed(
        self, keys: Mapping[str, str | None] | None = None,
    ) -> dict[str, dict[str, Any]]:
        """Outputs of every task the previous run durably finished.

        Args:
            keys: when given, the artifact key each task id must have
                been recorded under (None for uncached tasks).  Entries
                for other task ids, or recorded under another key — a
                workload source edit, a ``KEY_VERSION`` bump — are
                dropped, so those tasks recompute instead of replaying
                a stale artifact.

        Raises:
            JournalError: the journal belongs to a different grid or a
                different journal format — resuming would silently mix
                incompatible results.
        """
        if not self.path.is_file():
            return {}
        header = self._header()
        if header is None:
            # Torn before the header ever landed: nothing to resume.
            return {}
        if header.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"journal {self.path} has format {header.get('format')!r}, "
                f"this build writes {JOURNAL_FORMAT}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise JournalError(
                f"journal {self.path} was written for a different sweep grid "
                f"(fingerprint {str(header.get('fingerprint'))[:12]}… != "
                f"{self.fingerprint[:12]}…); use a fresh --output-dir or drop "
                f"--resume"
            )
        completed: dict[str, dict[str, Any]] = {}
        with open(self.path) as handle:
            handle.readline()  # header, validated above
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail of a crashed append; later bytes untrusted
                if not isinstance(record, dict) or record.get("type") != "task":
                    continue
                task_id = record.get("task")
                output = record.get("output")
                if not isinstance(task_id, str) or not isinstance(output, dict):
                    continue
                if keys is not None and (task_id not in keys
                                         or record.get("key") != keys[task_id]):
                    continue
                if record.get("digest") != payload_digest(output):
                    continue  # bit rot: cheaper to recompute than to trust
                completed[task_id] = output
        return completed

    # -- writing ---------------------------------------------------------------

    def start(self, resume: bool = False) -> None:
        """Open the journal for appending.

        A fresh run (or a resume against a missing/header-less file)
        truncates and writes a new header; a resume against a validated
        journal appends after the existing entries.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append = resume and self._header() is not None
        self._handle = open(self.path, "a" if append else "w")
        if not append:
            self._append({
                "type": "header",
                "format": JOURNAL_FORMAT,
                "fingerprint": self.fingerprint,
            })

    def record(self, task_id: str, output: dict[str, Any],
               key: str | None = None) -> None:
        """Durably note one finished task (flush + fsync before return).

        ``key`` is the task's artifact key (None for uncached tasks),
        checked again by :meth:`load_completed`.
        """
        if self._handle is None:
            raise JournalError("journal not started")
        self._append({
            "type": "task",
            "task": task_id,
            "key": key,
            "digest": payload_digest(output),
            "output": output,
        })

    def _append(self, record: dict[str, Any]) -> None:
        assert self._handle is not None
        if self._broken:
            return
        # Key order is kept, not sorted: a replayed output must iterate
        # like the fresh one (a profile's block order is the MILP's
        # variable order), exactly as an artifact-store hit does.
        text = json.dumps(record, separators=(",", ":")) + "\n"
        torn = faultplane.torn_text(text)
        if torn is not None:
            # Simulated power loss mid-append: appending after the torn
            # line would glue valid JSON onto it and make load_completed
            # drop everything that follows, so the journal fails safe —
            # it stops recording (a resume recomputes the lost tail).
            self._handle.write(torn)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._broken = True
            logger.warning(
                "sweep journal %s: torn write injected; journaling disabled "
                "for this process (resume will recompute the lost tail)",
                self.path)
            return
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    @property
    def broken(self) -> bool:
        """True once an (injected) torn write disabled further appends."""
        return self._broken

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
