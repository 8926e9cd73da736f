"""Crash-safe artifact writes shared by every JSON-emitting layer.

Tuning profiles, bench artifacts (``BENCH_*.json``) and checkpoint
journals are all small JSON documents that other runs *read back* —
a process killed mid-``write_text`` must never leave a truncated
document that poisons the next run.  :func:`atomic_write_text` is the
one write path they all share: the content goes to a temporary file in
the destination directory, is flushed and fsynced, and then replaces
the destination via :func:`os.replace` — atomic on POSIX and Windows
alike, so readers observe either the old complete document or the new
complete document, never a prefix.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_text", "atomic_write_json"]


def atomic_write_text(path: Path | str, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Parent directories are created as needed.  The temporary file
    lives in the destination directory so the final rename never
    crosses a filesystem boundary (cross-device renames are copies,
    which reintroduce the torn-write window).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        # Never leave orphaned temp files behind a failed/interrupted
        # write; the destination is untouched either way.
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: Path | str, document: object, indent: int = 2) -> Path:
    """Serialize ``document`` as JSON and write it atomically."""
    return atomic_write_text(path, json.dumps(document, indent=indent) + "\n")
