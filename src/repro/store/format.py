"""On-disk format of a tile store: blobs, manifest, journal.

Layout on disk::

    store/
      manifest.json          # plan identity + per-tile records
      journal.jsonl          # only while a run is writing (see below)
      tiles/
        3f/
          3f9a….npy          # one .npy blob, named by its own sha256
        a0/
          ...

A tile record names each of its value columns' blobs by sha256, and
:func:`blob_path` is the one place that turns a hash into a file.  A
blob's name is its content, so tiles (and columns) holding equal bytes
share one file, and a write can never replace a blob that another
record needs: reusing a previous generation's tile — at its own index
or at another — is a manifest record, not a file operation.

Everything here is **deterministic**: every tile stores each column in
the dtype its pipeline declares (``None`` as the declared *nodata*
value, both recorded in the manifest's ``columns``), and the manifest
is dumped with sorted keys and no timestamps.  That is a correctness
requirement, not tidiness — the delta executor promises that an
incremental store is *bit-identical* to a from-scratch run, so every
byte must be a function of the sweep alone.

The manifest is the store's single commit point.  While a run writes,
``journal.jsonl`` holds one line per tile whose blobs are in place —
the same record that lands in ``manifest["tiles"]`` — and the finished
run removes it.  A killed run therefore leaves blobs and a journal but
no manifest: readers refuse it, and ``delta=True`` takes the journal's
records as the previous generation and executes only the rest.

:data:`STORE_VERSION` 3 is the content-addressed format; readers
refuse other versions, and ``delta=True`` rebuilds such a store from
scratch (its records are not reused).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import DomainError

__all__ = [
    "MANIFEST_NAME", "JOURNAL_NAME", "TILES_DIR", "STORE_FORMAT",
    "STORE_VERSION", "blob_path", "column_record", "nodata_of",
    "encode_blob", "decode_blob", "write_atomic",
    "read_manifest", "write_manifest", "append_journal", "read_journal",
]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
TILES_DIR = "tiles"
STORE_FORMAT = "repro-tile-store"
STORE_VERSION = 3


def blob_path(store_path: str, sha256: str) -> str:
    """Where the blob whose bytes hash to ``sha256`` lives in a store."""
    return os.path.join(store_path, TILES_DIR, sha256[:2], f"{sha256}.npy")


def column_record(column) -> Dict[str, Any]:
    """The manifest ``columns`` entry of a declared
    :class:`~repro.engine.pipelines.Column`; the nodata value is kept as
    text (``"-1"``, ``"nan"``), ``None`` when the column has none."""
    return {
        "name": column.name,
        "dtype": column.dtype,
        "nodata": None if column.nodata is None else str(column.nodata),
    }


def nodata_of(record: Dict[str, Any]) -> Any:
    """The nodata value a manifest ``columns`` entry records, in the
    column's dtype (``None``: the column has none)."""
    text = record["nodata"]
    return None if text is None else np.dtype(record["dtype"]).type(text)


def encode_blob(arr: np.ndarray) -> Tuple[bytes, str]:
    """``.npy`` bytes plus their sha256 (deterministic for equal arrays)."""
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    data = buf.getvalue()
    return data, hashlib.sha256(data).hexdigest()


def decode_blob(path: str) -> np.ndarray:
    arr = np.load(path, allow_pickle=False)
    arr.flags.writeable = False
    return arr


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: str, data: bytes, durable: bool = False) -> None:
    """Write ``data`` to ``path`` via rename, never exposing torn files.

    ``durable=True`` additionally fsyncs the parent directory after the
    rename, making the *rename itself* survive power loss — used for
    the manifest, the store's single commit point (per-blob directory
    syncs would cost one per column per tile for no extra guarantee:
    blobs without a manifest are invisible anyway).
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    if durable:
        _fsync_dir(os.path.dirname(os.path.abspath(path)) or ".")


def manifest_path(store_path: str) -> str:
    return os.path.join(store_path, MANIFEST_NAME)


def read_manifest(store_path: str) -> Dict[str, Any]:
    """Load and sanity-check a store manifest."""
    path = manifest_path(store_path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise DomainError(
            f"{store_path!r} is not a tile store (no {MANIFEST_NAME})"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(
            f"unreadable tile store manifest {path!r}: {exc}"
        ) from None
    if not isinstance(manifest, dict) or (
        manifest.get("format") != STORE_FORMAT
    ):
        raise DomainError(
            f"{path!r} is not a {STORE_FORMAT} manifest"
        )
    version = manifest.get("version")
    if version != STORE_VERSION:
        raise DomainError(
            f"tile store {store_path!r} has manifest version "
            f"{version!r}; this build reads version {STORE_VERSION} — "
            f"re-run its sweep with delta=True (--delta) to rebuild it"
        )
    return manifest


def write_manifest(store_path: str, manifest: Dict[str, Any]) -> None:
    """Dump the manifest deterministically (sorted keys, no clock)."""
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    write_atomic(manifest_path(store_path), (blob + "\n").encode("utf-8"),
                 durable=True)


def journal_path(store_path: str) -> str:
    return os.path.join(store_path, JOURNAL_NAME)


def append_journal(
    store_path: str, records: Sequence[Dict[str, Any]]
) -> None:
    """Append one line per tile record; call once the blobs are in place.

    Lines are flushed, not fsynced: a lost line only re-executes its
    tile, and the manifest stays the durable commit point.
    """
    lines = "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records
    )
    with open(journal_path(store_path), "a", encoding="utf-8") as handle:
        handle.write(lines)


def read_journal(store_path: str) -> List[Dict[str, Any]]:
    """Tile records a killed run committed, in commit order.

    Only newline-terminated lines count: a torn last line — the append
    the process died in — is dropped, so its tile re-executes.  No
    journal reads as no records.
    """
    path = journal_path(store_path)
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")[:-1]
    except (FileNotFoundError, NotADirectoryError):
        return []
    except OSError as exc:
        raise DomainError(
            f"unreadable tile store journal {path!r}: {exc}"
        ) from None
    try:
        return [json.loads(line) for line in lines]
    except ValueError as exc:
        raise DomainError(
            f"corrupt tile store journal {path!r}: {exc}"
        ) from None
