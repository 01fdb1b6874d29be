"""Content-addressed result store backing campaign runs.

The store root holds two kinds of entry::

    <root>/campaigns/<key[:2]>/<key>.json   one scenario record
    <root>/workloads/<key[:2]>/<key>.npz    one graph + its partition

A record's ``key`` is the SHA-256 of the scenario's canonical content
(materialized architecture config + workload knobs + seed + evaluation
flags + schema version — see
:meth:`repro.campaign.spec.Scenario.content_key`; serving scenarios hash
their own knobs the same way).  Identical scenarios therefore hit the
same file across campaigns, processes and sessions; any model change that
should invalidate results bumps the schema version.

A workload archive's key is :func:`repro.core.accelerator.workload_key`:
dataset, scale, seed and partition count, with no architecture in it, so
every scenario that differs only in the chip loads one generated graph
and one partition instead of rebuilding them.  Evaluations (in the parent
or in pool workers) read and write the archives themselves;
``len``/``keys``/``get``/``put``/``prune`` see records only, and
:meth:`ResultStore.clear` deletes both kinds.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

DEFAULT_ROOT = ".repro_cache"


class ResultStore:
    """Persistent scenario-result cache keyed by content hash."""

    def __init__(self, root: str | Path = DEFAULT_ROOT) -> None:
        self.root = Path(root)

    @property
    def campaigns_dir(self) -> Path:
        return self.root / "campaigns"

    @property
    def workloads_dir(self) -> Path:
        """Where evaluations keep their workload archives."""
        return self.root / "workloads"

    def path_for(self, key: str) -> Path:
        return self.campaigns_dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored record for ``key``, or None (missing or corrupt)."""
        path = self.path_for(key)
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, record: dict[str, Any]) -> Path:
        """Atomically persist ``record`` under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.campaigns_dir.is_dir():
            return 0
        return sum(1 for _ in self.campaigns_dir.glob("*/*.json"))

    def keys(self) -> list[str]:
        if not self.campaigns_dir.is_dir():
            return []
        return sorted(p.stem for p in self.campaigns_dir.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every record and workload archive; returns the records removed.

        The archives go too: a cleared cache must rebuild every graph and
        partition, not serve ones an older model wrote.
        """
        removed = 0
        for path in list(self.campaigns_dir.glob("*/*.json")):
            path.unlink()
            removed += 1
        for path in list(self.workloads_dir.glob("*/*.npz")):
            path.unlink(missing_ok=True)
        return removed

    def size_report(self) -> dict[str, int]:
        """Counts and bytes of the stored records and workload archives.

        ``{"entries": N, "total_bytes": B}`` covers the scenario records;
        ``"workloads"`` and ``"workload_bytes"`` the archives.  Long
        serving sweeps can accumulate thousands of records; this is the
        cheap way to see how big ``.repro_cache/`` has grown before
        deciding what :meth:`prune` budget to apply.
        """
        entries, total = _tally(self.campaigns_dir, "*/*.json")
        workloads, workload_bytes = _tally(self.workloads_dir, "*/*.npz")
        return {
            "entries": entries,
            "total_bytes": total,
            "workloads": workloads,
            "workload_bytes": workload_bytes,
        }

    def prune(self, max_entries: int) -> int:
        """Evict least-recently-used records down to ``max_entries``.

        Records are ranked by file modification time (oldest first, key as
        a deterministic tie-break) and deleted until at most
        ``max_entries`` remain; returns how many were removed.  Reads never
        touch mtime, so "least recently used" here means least recently
        *written* — good enough to keep unbounded sweep histories from
        growing the cache forever.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if not self.campaigns_dir.is_dir():
            return 0
        ranked: list[tuple[float, str, Path]] = []
        for path in self.campaigns_dir.glob("*/*.json"):
            try:
                ranked.append((path.stat().st_mtime, path.stem, path))
            except OSError:
                continue  # racing deletion; skip
        ranked.sort()
        removed = 0
        for _, _, path in ranked[: max(0, len(ranked) - max_entries)]:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed


def _tally(directory: Path, pattern: str) -> tuple[int, int]:
    """(files, bytes) matching ``pattern`` under ``directory``."""
    count = 0
    total = 0
    if directory.is_dir():
        for path in directory.glob(pattern):
            try:
                total += path.stat().st_size
            except OSError:
                continue  # racing deletion; skip
            count += 1
    return count, total
