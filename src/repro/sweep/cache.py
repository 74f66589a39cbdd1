"""Content-addressed result cache for sweep cells.

Every cell's key is the SHA-256 of its canonical-JSON :class:`RunConfig`
salted with the cache schema version and the package version — change
the solver (version bump) or the entry layout (schema bump) and every
old entry silently misses instead of serving stale results.  Entries
are one JSON file each under ``<root>/<key[:2]>/<key>.json`` (git-style
fan-out keeps directory listings sane at thousands of entries), written
atomically (temp file + ``os.replace``) so a crashed worker never leaves
a half-written entry that a later run would trust.

Corrupt entries are a *miss*, not a crash: any unreadable, unparseable
or wrong-shape file is ignored (and counted in ``corrupt_hits``), the
cell re-executes, and the fresh result overwrites the bad entry.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING, Any

import repro
from repro.canonical import canonical_json

if TYPE_CHECKING:
    from repro.sweep.spec import RunConfig

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "cache_salt",
    "default_cache_dir",
]

#: Bump to invalidate every existing entry (layout or semantics change).
CACHE_SCHEMA_VERSION = 2


def cache_salt() -> dict[str, Any]:
    """The key salt: cache schema + package version.

    A new package version may change solver behavior, so results cached
    under the old version must not be served for the new one.
    """
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "package": repro.__version__,
    }


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/sweep``,
    else ``~/.cache/repro/sweep``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "sweep"


class ResultCache:
    """Filesystem-backed, content-addressed store of cell results."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: Unreadable/corrupt entries encountered by :meth:`get` this
        #: session; the farm reports them so silent decay is visible.
        self.corrupt_hits = 0

    def key_for(self, config: "RunConfig") -> str:
        """The cell's content address (config + schema/version salt)."""
        return config.config_hash(cache_salt())

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored entry, or ``None`` on miss *or* corruption.

        A corrupt entry (bad JSON, wrong shape, mismatched key or salt)
        must behave exactly like a miss — the caller re-executes and
        overwrites — because a cache that crashes on its own debris is
        worse than no cache.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            self.corrupt_hits += 1
            return None
        try:
            entry = json.loads(text)
        except ValueError:
            self.corrupt_hits += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or entry.get("salt") != cache_salt()
            or not isinstance(entry.get("payload"), dict)
        ):
            self.corrupt_hits += 1
            return None
        return entry

    def put(
        self, key: str, config: "RunConfig", payload: dict[str, Any]
    ) -> Path:
        """Atomically persist a cell result; returns the entry path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "salt": cache_salt(),
            "config": config.to_dict(),
            "payload": payload,
        }
        text = canonical_json(entry)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(text)
            os.replace(temp_name, path)
        finally:
            # os.replace consumed the temp file on success; anything left
            # behind is debris from a failed write.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp_name)
        return path

    def entry_paths(self) -> Iterator[Path]:
        """Every ``*.json`` entry under the fan-out dirs, sorted."""
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(self.root.glob("??/*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self.entry_paths())

    def clean(self) -> int:
        """Delete every entry (empty fan-out dirs included); return count."""
        removed = 0
        for path in self.entry_paths():
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
        if self.root.is_dir():
            for shard in sorted(self.root.glob("??")):
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()
        return removed
