"""Crash-safe campaign journal: append-only durable JSONL, resume.

Every scenario outcome a campaign produces is appended to a journal so
that a crash — of the driver, the machine, or a ``kill -9`` mid-sweep —
throws away at most the scenarios still in flight.  Restarting with
``resume`` skips every journaled scenario and reproduces the exact
report an uninterrupted run would have produced (scenarios are seeded,
so replayed and resumed results are identical).

Durability model
----------------
The journal is a JSONL file: one header line identifying the format,
then one entry per completed scenario.  Creating the file (or replacing
a stale one) is atomic and durable: the header, with any entries
recorded so far, goes to a sibling temp file that is fsynced and
renamed over the journal (``os.replace``), then the directory is
fsynced.  After that the file only grows: each record appends its one
canonical line with a single ``O_APPEND`` write, so a record costs the
same however long the campaign has run.  An ``fsync`` happens every
``checkpoint_every`` records, bounding the window a power loss can
erase.

A crash mid-append can leave a torn, newline-less fragment at the end.
The loader stops at the first torn or corrupt line and keeps every
complete entry before it; the first flush after
:meth:`~CampaignJournal.load` truncates the file back to the end of
that last complete entry before appending, so the fragment never fuses
with the next line.

Identity
--------
Entries are keyed by :func:`~repro.robustness.campaign.scenario_key`,
the deterministic digest of the scenario's declarative spec.  Resume
matches journaled entries against the campaign's scenario list by key,
consuming duplicates in order, so a grid containing repeated specs
still resumes correctly.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import JournalError
from repro.observability import instrument as obs
from repro.robustness.campaign import Scenario, ScenarioResult, scenario_key

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "CampaignJournal",
]

JOURNAL_FORMAT = "linesearch-campaign-journal"
JOURNAL_VERSION = 1


def _fsync_directory(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append_durably(path: str, data: bytes, fsync: bool = True) -> None:
    """Append ``data`` to ``path`` (created if missing), then fsync.

    ``O_APPEND`` and one ``os.write`` of the whole payload mean a crash
    can tear only the end of this payload, never earlier bytes; readers
    skip such a torn tail and :func:`truncate_durably` cuts it off
    before the next append.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        view = memoryview(data)
        while view:  # one write unless the kernel accepts a short one
            view = view[os.write(fd, view):]
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def truncate_durably(path: str, length: int) -> None:
    """Cut ``path`` back to its first ``length`` bytes and fsync."""
    fd = os.open(path, os.O_WRONLY)
    try:
        os.ftruncate(fd, length)
        os.fsync(fd)
    finally:
        os.close(fd)


def _line(record: Dict[str, Any]) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


class CampaignJournal:
    """Append-only record of scenario outcomes, durable and resumable.

    Examples:
        >>> import tempfile, os
        >>> from repro.robustness.campaign import ScenarioSpec, ScenarioResult
        >>> path = os.path.join(tempfile.mkdtemp(), "journal.jsonl")
        >>> journal = CampaignJournal(path)
        >>> spec = ScenarioSpec(3, 1, 2.0, "none", 7)
        >>> journal.record(0, ScenarioResult(spec=spec, ok=True))
        >>> len(CampaignJournal.load(path).entries)
        1
    """

    def __init__(self, path: str, checkpoint_every: int = 1):
        if checkpoint_every < 1:
            raise JournalError("checkpoint_every must be >= 1")
        self.path = path
        self.checkpoint_every = checkpoint_every
        self.entries: List[Dict[str, Any]] = []
        self._records_since_checkpoint = 0
        # How many of ``entries`` are on disk; ``None`` until this
        # journal has created its file (replacing any stale one).
        self._persisted: Optional[int] = None
        # Set by ``load`` when bytes past the last complete entry (a
        # torn append) must be cut off before the next append.
        self._truncate_to: Optional[int] = None

    # -- persistence ---------------------------------------------------

    def _create(self) -> None:
        header = {"format": JOURNAL_FORMAT, "version": JOURNAL_VERSION}
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(
                b"".join(_line(r) for r in [header, *self.entries])
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        _fsync_directory(self.path)

    def flush(self, fsync: bool = False) -> None:
        """Persist every recorded entry not yet on disk.

        The first flush of a new journal creates the file atomically
        and durably (temp file, fsync, rename, directory fsync).  Later
        flushes append the pending lines with one write, first cutting
        off a torn tail left by a crash, and fsync when ``fsync`` is
        set.  Flushed entries are never rewritten, so a crash loses
        only unflushed entries and never corrupts flushed ones.
        """
        started = time.perf_counter() if obs.is_enabled() else 0.0
        if self._persisted is None:
            self._create()
        else:
            if self._truncate_to is not None:
                truncate_durably(self.path, self._truncate_to)
                self._truncate_to = None
            append_durably(
                self.path,
                b"".join(_line(e) for e in self.entries[self._persisted:]),
                fsync=fsync,
            )
        self._persisted = len(self.entries)
        if obs.is_enabled():
            obs.count("journal_flushes_total", fsync=fsync)
            obs.observe(
                "journal_flush_seconds", time.perf_counter() - started
            )

    def record(self, index: int, result: ScenarioResult) -> None:
        """Append one outcome and persist it.

        Every record appends its line to the file right away; every
        ``checkpoint_every``-th record also fsyncs it, so at most
        ``checkpoint_every - 1`` outcomes sit in the OS page cache at
        any moment.
        """
        self.entries.append(
            {
                "key": scenario_key(result.spec),
                "index": index,
                "result": result.to_dict(),
            }
        )
        self._records_since_checkpoint += 1
        checkpoint = self._records_since_checkpoint >= self.checkpoint_every
        self.flush(fsync=checkpoint)
        if checkpoint:
            self._records_since_checkpoint = 0

    # -- recovery ------------------------------------------------------

    @classmethod
    def load(cls, path: str, checkpoint_every: int = 1) -> "CampaignJournal":
        """Read a journal back, recovering past a torn trailing line.

        Only newline-terminated lines count: the journal stops at the
        first torn or corrupt line, and the next flush truncates the
        file to the end of the last entry kept.

        Raises :class:`~repro.errors.JournalError` if the file is
        missing or its header names a format we do not understand.
        """
        if not os.path.exists(path):
            raise JournalError(f"no journal at {path!r}")
        journal = cls(path, checkpoint_every=checkpoint_every)
        with open(path, "rb") as handle:
            data = handle.read()
        if not data:
            raise JournalError(f"journal {path!r} is empty")
        end = data.find(b"\n") + 1
        try:
            header = json.loads(data[: end or len(data)])
        except ValueError:
            raise JournalError(f"journal {path!r} has a corrupt header") from None
        if (
            not isinstance(header, dict)
            or header.get("format") != JOURNAL_FORMAT
        ):
            raise JournalError(f"{path!r} is not a campaign journal")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {path!r} has version {header.get('version')!r}; "
                f"this library reads version {JOURNAL_VERSION}"
            )
        if not end:
            return journal  # header without its newline: recreate it
        while True:
            newline = data.find(b"\n", end)
            if newline < 0:
                break  # torn final write — everything before it is good
            line = data[end:newline]
            if line.strip():
                try:
                    entry = json.loads(line)
                except ValueError:
                    break
                if not isinstance(entry, dict) or "result" not in entry:
                    break
                journal.entries.append(entry)
            end = newline + 1
        journal._persisted = len(journal.entries)
        if end != len(data):
            journal._truncate_to = end
        return journal

    def results(self) -> List[ScenarioResult]:
        """Every journaled outcome, in record order."""
        return [ScenarioResult.from_dict(e["result"]) for e in self.entries]

    def match(
        self, scenarios: Iterable[Scenario]
    ) -> Dict[int, ScenarioResult]:
        """Pair journaled outcomes with the campaign's scenario list.

        Returns ``{scenario index: recorded result}`` for every
        scenario whose spec key appears in the journal.  Duplicate
        specs are consumed in journal order, one entry per occurrence.
        """
        by_key: Dict[str, List[ScenarioResult]] = {}
        for entry in self.entries:
            by_key.setdefault(entry["key"], []).append(
                ScenarioResult.from_dict(entry["result"])
            )
        completed: Dict[int, ScenarioResult] = {}
        for index, scenario in enumerate(scenarios):
            bucket = by_key.get(scenario_key(scenario.spec))
            if bucket:
                completed[index] = bucket.pop(0)
        return completed
