"""The on-disk artifact warehouse: content-addressed, verifiable, warm.

A store is one directory::

    <root>/
      manifest.json                   # the index: schema + version stamps
      objects/<digest>/
          meta.json                   # kind, layer/name, key, file checksums
          payload.pkl                 # the pickled object graph (layers)
          arrays.npz                  # externalized numpy columns (layers)
          artifact.json               # rendered artifact document (artifacts)

Every entry is addressed by a SHA-256 digest of its *key* -- for layers
the exact cache-key tuple :meth:`repro.api.session.Study.key` derives
from the session's layer graph, for artifacts the
``(name, params, config.result_key)`` triple -- so a process that
computes the same configuration always lands on the same directory, and
two configurations can never collide.  ``meta.json`` records a SHA-256
per payload file; loads re-hash and refuse corrupted entries
(:class:`StoreIntegrityError`), and entries written by an incompatible
store schema are treated as absent rather than misread.

The store is the persistence tier under the session caches (see
``repro.api.session``): reads go memory -> disk -> build, builds write
behind, and :func:`warm_start` bulk-primes a cold process from disk via
:func:`repro.api.session.prime_caches`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.resilience.faults import corrupt_hook, fault_hook
from repro.resilience.retry import STORE_POLICY, call_with_retry
from repro.store.serialize import dump_value, load_value
from repro.telemetry import registry as _metrics_registry, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Study, StudyConfig

#: Bump when the on-disk layout or the key derivation changes; entries
#: stamped with another schema are invisible to this code (and ``gc``
#: removes them).  2: traffic layers store each monitor's column log;
#: schema-1 payloads referenced the removed ``repro.flowmon.pack``.
#: 3: traffic layers carry each residence's draws, which every traffic
#: what-if re-races; a schema-2 payload would load without them.
#: 4: census payloads carry the universe's adoption table, which every
#: longitudinal round re-decides from.
#: 5: census payloads carry the AAAA records a what-if published over the
#: shared universe; a schema-4 census would load without them.
#: 6: payloads name each externalized array by a ``_stored_array`` call
#: instead of a persistent id, and a census shares one embedded resource
#: object per distinct ``(fqdn, type)``; schema-5 payloads would not load.
STORE_SCHEMA = 6

#: The payload filename of rendered-artifact entries.
ARTIFACT_FILE = "artifact.json"

#: The layers :func:`snapshot_study` persists by default -- everything
#: except ``whatif`` (sweeps are opt-in: their default grid is the most
#: expensive object in the session).
DEFAULT_SNAPSHOT_LAYERS = (
    "traffic",
    "census",
    "cloud",
    "dependencies",
    "observatory",
    "sentinel",
)


#: Warehouse IO latency (spans carry the per-entry detail; the
#: histogram carries the aggregate distribution per read/write).
_STORE_OP_SECONDS = _metrics_registry().histogram(
    "store_op_seconds", "warehouse operation latency, per op", ("op",)
)
#: Index-level gauges, refreshed on every manifest write (and by
#: :meth:`ArtifactStore.refresh_gauges`) -- what ``store ls`` and the
#: exposition report without rescanning objects/.
_STORE_ENTRIES = _metrics_registry().gauge(
    "store_entries", "entries indexed in the store manifest"
)
_STORE_BYTES = _metrics_registry().gauge(
    "store_bytes", "payload bytes indexed in the store manifest"
)


class StoreError(Exception):
    """A warehouse operation failed."""


class StoreIntegrityError(StoreError):
    """An entry exists but its bytes do not match its recorded digests."""


class StoreReadError(StoreError):
    """An entry's payload file could not be read (possibly transient).

    Distinct from :class:`StoreIntegrityError` on purpose: an ``OSError``
    on a payload read may be a disk hiccup worth retrying (the session's
    read-through wraps loads in the shared
    :data:`repro.resilience.retry.STORE_POLICY`), whereas a checksum
    mismatch is damage -- retrying re-reads the same wrong bytes, so it
    goes straight to the warn+rebuild path.
    """


def _utcnow() -> str:
    """Wall-clock provenance stamp for ``meta.json`` entries.

    ``created_at`` is operator-facing metadata (``store ls``/``gc``);
    it never enters artifact documents, digests, or cache keys, so it
    cannot perturb warm == cold equality.
    """
    # replint: allow[REP001] provenance stamp in store metadata only, never in artifact bytes
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _repro_version() -> str:
    import repro

    return getattr(repro, "__version__", "0")


def digest_key(kind: str, name: str, key: tuple) -> str:
    """The content address of one entry: SHA-256 over the canonical key.

    The key tuples are nested tuples of primitives (ints, strings,
    ``None``), so their ``repr`` is deterministic across processes and
    Python versions -- the property the whole warehouse rests on.
    """
    canonical = repr((STORE_SCHEMA, kind, name, key))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class StoreEntry:
    """One warehouse entry, as described by its ``meta.json``."""

    digest: str
    kind: str  # "layer" | "artifact"
    name: str  # layer name or artifact name
    key: str  # repr of the cache-key tuple
    created_at: str
    repro_version: str
    files: dict[str, dict[str, Any]]  # filename -> {"sha256", "bytes"}

    @property
    def total_bytes(self) -> int:
        return sum(info["bytes"] for info in self.files.values())


class ArtifactStore:
    """A content-addressed warehouse rooted at one directory."""

    def __init__(self, root: str | Path) -> None:
        # Directories are created on first *write*: read-only operations
        # (`store ls`/`verify` on a mistyped path, a server pointed at a
        # not-yet-built store) must not leave empty stores behind.
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifest_path = self.root / "manifest.json"

    @property
    def exists(self) -> bool:
        """Whether anything has ever been written at this root."""
        return self.objects_dir.is_dir() or self.manifest_path.is_file()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"

    # -- low-level entry IO -------------------------------------------------

    def _entry_dir(self, digest: str) -> Path:
        return self.objects_dir / digest

    @staticmethod
    def _staging_pid(dirname: str) -> int | None:
        """The writer pid embedded in a ``.tmp-<digest>-<pid>`` name."""
        try:
            return int(dirname.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return None

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OverflowError, OSError):
            # EPERM: the pid exists but belongs to someone else -- alive.
            # Anything stranger: assume alive; reaping stays conservative.
            return True
        return True

    def reap_staging(self) -> list[str]:
        """Remove ``.tmp-*`` staging directories whose writer is gone.

        A writer that crashed mid-stage leaves its ``.tmp-<digest>-<pid>``
        directory behind; before this reaper, it was only cleaned up if
        the *same* digest was re-written by the *same* pid.  Directories
        whose embedded pid is still alive are left alone (a concurrent
        writer owns them); everything else -- dead pid, unparseable name
        -- is a crash leftover and is dropped.  Returns the names reaped.
        """
        reaped: list[str] = []
        if not self.objects_dir.is_dir():
            return reaped
        for entry_dir in sorted(self.objects_dir.iterdir()):
            if not entry_dir.is_dir() or not entry_dir.name.startswith(".tmp-"):
                continue
            pid = self._staging_pid(entry_dir.name)
            if pid is not None and pid != os.getpid() and self._pid_alive(pid):
                continue
            shutil.rmtree(entry_dir, ignore_errors=True)
            reaped.append(entry_dir.name)
        return reaped

    def _write_entry(
        self,
        kind: str,
        name: str,
        key: tuple,
        files: dict[str, bytes],
        overwrite: bool = False,
    ) -> StoreEntry:
        """Write one entry atomically (idempotent on existing digests).

        ``overwrite=True`` replaces an existing entry -- the repair path
        the session takes after a load failed its integrity check, so a
        damaged payload is actually healed by the rebuild instead of
        being shadowed by the content-addressed skip-if-present fast
        path.  Payload writes run under the shared store retry policy
        (transient ``OSError``\\ s back off and re-stage; the staging
        directory makes every attempt idempotent).
        """
        digest = digest_key(kind, name, key)
        final_dir = self._entry_dir(digest)
        meta = {
            "schema": STORE_SCHEMA,
            "repro_version": _repro_version(),
            "kind": kind,
            "name": name,
            "key": repr(key),
            "digest": digest,
            "created_at": _utcnow(),
            "files": {
                filename: {"sha256": _sha256(blob), "bytes": len(blob)}
                for filename, blob in files.items()
            },
        }
        entry = StoreEntry(
            digest=digest,
            kind=kind,
            name=name,
            key=meta["key"],
            created_at=meta["created_at"],
            repro_version=meta["repro_version"],
            files=meta["files"],
        )
        if overwrite or not final_dir.exists():
            # Stage the whole directory, then rename into place, so a
            # concurrent reader can never observe a half-written entry.
            self.objects_dir.mkdir(parents=True, exist_ok=True)
            self.reap_staging()
            call_with_retry(
                lambda: self._stage_and_publish(digest, meta, files, overwrite),
                label="store:write",
                policy=STORE_POLICY,
            )
        self._index_entry(entry)
        return entry

    def _stage_and_publish(
        self, digest: str, meta: dict, files: dict[str, bytes], overwrite: bool
    ) -> None:
        """One staged-write attempt (retried whole by :meth:`_write_entry`)."""
        fault_hook("store-write", digest)
        final_dir = self._entry_dir(digest)
        tmp_dir = self.objects_dir / f".tmp-{digest}-{os.getpid()}"
        if tmp_dir.exists():  # stale leftover from a failed earlier attempt
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)
        for filename, blob in files.items():
            (tmp_dir / filename).write_bytes(blob)
        (tmp_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        if overwrite and final_dir.exists():
            shutil.rmtree(final_dir)
        try:
            os.replace(tmp_dir, final_dir)
        except OSError:  # pragma: no cover - lost a write race
            shutil.rmtree(tmp_dir, ignore_errors=True)
            if not final_dir.exists():
                raise

    def _read_entry(self, kind: str, name: str, key: tuple) -> dict[str, bytes] | None:
        """Read (and integrity-check) one entry's payload files."""
        digest = digest_key(kind, name, key)
        meta = self._read_meta(self._entry_dir(digest))
        if meta is None or meta.get("schema") != STORE_SCHEMA:
            return None
        files: dict[str, bytes] = {}
        for filename, info in meta["files"].items():
            path = self._entry_dir(digest) / filename
            try:
                fault_hook("store-read", f"{digest}/{filename}")
                blob = path.read_bytes()
            except OSError as exc:
                raise StoreReadError(
                    f"{digest}: payload file {filename} unreadable ({exc})"
                ) from exc
            blob = corrupt_hook(blob, f"{digest}/{filename}")
            if _sha256(blob) != info["sha256"]:
                raise StoreIntegrityError(
                    f"{digest}: payload file {filename} does not match its "
                    "recorded sha256 (corrupted or tampered entry)"
                )
            files[filename] = blob
        return files

    @staticmethod
    def _read_meta(entry_dir: Path) -> dict | None:
        try:
            return json.loads((entry_dir / "meta.json").read_text())
        except (OSError, json.JSONDecodeError):
            return None

    @staticmethod
    def _entry_from_meta(meta: dict) -> StoreEntry:
        return StoreEntry(
            digest=meta["digest"],
            kind=meta["kind"],
            name=meta["name"],
            key=meta["key"],
            created_at=meta["created_at"],
            repro_version=meta["repro_version"],
            files=meta["files"],
        )

    def _existing_entry(self, kind: str, name: str, key: tuple) -> StoreEntry | None:
        """The already-written entry for this key, if any (same schema).

        Saves check this *before* serializing: the store is
        content-addressed by key and builds are deterministic, so an
        existing digest means re-encoding the (possibly huge) value
        would produce the same bytes only to throw them away.
        """
        meta = self._read_meta(self._entry_dir(digest_key(kind, name, key)))
        if meta is None or meta.get("schema") != STORE_SCHEMA:
            return None
        return self._entry_from_meta(meta)

    # -- layers -------------------------------------------------------------

    def save_layer(
        self, layer: str, key: tuple, value: Any, overwrite: bool = False
    ) -> StoreEntry:
        """Persist one built session layer under its cache key.

        Traffic layers get their per-residence attributed frames built
        first, so a warm-started session analyzes without deriving a
        frame or resolving a peer (the frames are what the analyses
        read; building them is idempotent).

        ``overwrite=True`` forces re-encoding and replacement of an
        existing entry -- the session's repair path after a failed load.
        """
        with span("store:write", kind="layer", target=layer) as op_span:
            if not overwrite:
                existing = self._existing_entry("layer", layer, key)
                if existing is not None:
                    return existing
            if layer == "traffic":
                for dataset in getattr(value, "datasets", {}).values():
                    dataset.frame()
            entry = self._write_entry(
                "layer", layer, key, dump_value(value), overwrite=overwrite
            )
        _STORE_OP_SECONDS.observe(op_span.duration_s, op="write")
        return entry

    def load_layer(self, layer: str, key: tuple) -> Any | None:
        """Load one layer, or ``None`` when the store has no such entry.

        Raises :class:`StoreIntegrityError` when the entry exists but its
        bytes fail the checksum, and :class:`StoreReadError` when a
        payload file cannot be read at all (possibly transient -- the
        session's read-through retries it).
        """
        with span("store:read", kind="layer", target=layer) as op_span:
            files = self._read_entry("layer", layer, key)
            value = None if files is None else load_value(files)
        _STORE_OP_SECONDS.observe(op_span.duration_s, op="read")
        return value

    def has_layer(self, layer: str, key: tuple) -> bool:
        digest = digest_key("layer", layer, key)
        return (self._entry_dir(digest) / "meta.json").is_file()

    # -- rendered artifacts -------------------------------------------------

    def save_artifact(
        self, name: str, key: tuple, document: dict, overwrite: bool = False
    ) -> StoreEntry:
        """Persist one rendered artifact document as JSON."""
        with span("store:write", kind="artifact", target=name) as op_span:
            entry = None
            if not overwrite:
                entry = self._existing_entry("artifact", name, key)
            if entry is None:
                blob = json.dumps(document, separators=(",", ":"), sort_keys=False)
                entry = self._write_entry(
                    "artifact",
                    name,
                    key,
                    {ARTIFACT_FILE: blob.encode("utf-8")},
                    overwrite=overwrite,
                )
        _STORE_OP_SECONDS.observe(op_span.duration_s, op="write")
        return entry

    def load_artifact(self, name: str, key: tuple) -> dict | None:
        with span("store:read", kind="artifact", target=name) as op_span:
            files = self._read_entry("artifact", name, key)
            document = (
                None
                if files is None
                else json.loads(files[ARTIFACT_FILE].decode("utf-8"))
            )
        _STORE_OP_SECONDS.observe(op_span.duration_s, op="read")
        return document

    # -- the manifest index -------------------------------------------------

    def manifest(self) -> dict:
        """The index document (an empty shell for a fresh store)."""
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            manifest = {}
        if manifest.get("schema") != STORE_SCHEMA:
            manifest = {
                "schema": STORE_SCHEMA,
                "repro_version": _repro_version(),
                "updated_at": _utcnow(),
                "entries": {},
            }
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        manifest["updated_at"] = _utcnow()
        manifest["repro_version"] = _repro_version()
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.manifest_path)
        self._set_gauges(manifest.get("entries", {}))

    @staticmethod
    def _set_gauges(indexed: dict) -> tuple[int, int]:
        """Set the store gauges from an index; returns (entries, bytes)."""
        entries = len(indexed)
        total = sum(info.get("bytes", 0) for info in indexed.values())
        _STORE_ENTRIES.set(entries)
        _STORE_BYTES.set(total)
        return entries, total

    def refresh_gauges(self) -> tuple[int, int, dict[str, dict]]:
        """Point the store gauges at this store's index.

        The manifest writer keeps the gauges current for the writing
        process; a read-only process (``store ls``, a cold server)
        calls this to adopt the on-disk index into its own exposition.
        Returns the entry count and byte total the gauges now show, and
        the index, which maps each entry's digest to its ``kind``,
        ``name``, ``key``, ``bytes`` and ``created_at``, so readers of
        those need not open any ``meta.json``.
        """
        indexed = self.manifest().get("entries", {})
        return (*self._set_gauges(indexed), indexed)

    def _index_entry(self, entry: StoreEntry) -> None:
        manifest = self.manifest()
        manifest["entries"][entry.digest] = {
            "kind": entry.kind,
            "name": entry.name,
            "key": entry.key,
            "bytes": entry.total_bytes,
            "created_at": entry.created_at,
        }
        self._write_manifest(manifest)

    # -- enumeration and maintenance ----------------------------------------

    def entries(self) -> list[StoreEntry]:
        """Every well-formed entry on disk (meta files are the truth)."""
        if not self.objects_dir.is_dir():
            return []
        found: list[StoreEntry] = []
        for entry_dir in sorted(self.objects_dir.iterdir()):
            if not entry_dir.is_dir() or entry_dir.name.startswith("."):
                continue
            meta = self._read_meta(entry_dir)
            if meta is None or meta.get("schema") != STORE_SCHEMA:
                continue
            found.append(self._entry_from_meta(meta))
        return found

    def total_bytes(self) -> int:
        return sum(entry.total_bytes for entry in self.entries())

    def verify(self) -> list[str]:
        """Check every entry and the index; returns the problems found."""
        problems: list[str] = []
        seen: set[str] = set()
        for entry_dir in (
            sorted(self.objects_dir.iterdir()) if self.objects_dir.is_dir() else ()
        ):
            if not entry_dir.is_dir():
                continue
            if entry_dir.name.startswith("."):
                problems.append(f"stale staging directory: {entry_dir.name}")
                continue
            meta = self._read_meta(entry_dir)
            if meta is None:
                problems.append(f"{entry_dir.name}: unreadable meta.json")
                continue
            if meta.get("schema") != STORE_SCHEMA:
                problems.append(
                    f"{entry_dir.name}: store schema {meta.get('schema')!r} "
                    f"!= {STORE_SCHEMA}"
                )
                continue
            if meta.get("digest") != entry_dir.name:
                problems.append(
                    f"{entry_dir.name}: digest mismatch in meta.json "
                    f"({meta.get('digest')!r})"
                )
                continue
            seen.add(entry_dir.name)
            for filename, info in meta["files"].items():
                path = entry_dir / filename
                if not path.is_file():
                    problems.append(f"{entry_dir.name}: missing {filename}")
                    continue
                blob = path.read_bytes()
                if len(blob) != info["bytes"]:
                    problems.append(
                        f"{entry_dir.name}: {filename} is {len(blob)} bytes, "
                        f"manifest says {info['bytes']}"
                    )
                elif _sha256(blob) != info["sha256"]:
                    problems.append(f"{entry_dir.name}: {filename} sha256 mismatch")
        indexed = set(self.manifest()["entries"])
        for digest in sorted(indexed - seen):
            problems.append(f"manifest indexes missing entry {digest}")
        for digest in sorted(seen - indexed):
            problems.append(f"entry {digest} not in manifest (run gc to reindex)")
        return problems

    def gc(self) -> list[str]:
        """Drop broken/stale entries and rebuild the index; returns removals.

        Removes staging leftovers, entries whose meta or payloads fail
        verification, and entries written by another store schema; the
        manifest is rebuilt from the surviving ``meta.json`` files.
        """
        removed: list[str] = []
        for entry_dir in (
            sorted(self.objects_dir.iterdir()) if self.objects_dir.is_dir() else ()
        ):
            if not entry_dir.is_dir():
                continue
            reason = None
            if entry_dir.name.startswith("."):
                reason = "staging leftover"
            else:
                meta = self._read_meta(entry_dir)
                if meta is None:
                    reason = "unreadable meta.json"
                elif meta.get("schema") != STORE_SCHEMA:
                    reason = f"schema {meta.get('schema')!r}"
                elif meta.get("digest") != entry_dir.name:
                    reason = "digest mismatch"
                else:
                    for filename, info in meta["files"].items():
                        path = entry_dir / filename
                        if not path.is_file():
                            reason = f"missing {filename}"
                            break
                        blob = path.read_bytes()
                        if len(blob) != info["bytes"] or _sha256(blob) != info["sha256"]:
                            reason = f"corrupt {filename}"
                            break
            if reason is not None:
                shutil.rmtree(entry_dir)
                removed.append(f"{entry_dir.name} ({reason})")
        manifest = self.manifest()
        manifest["entries"] = {
            entry.digest: {
                "kind": entry.kind,
                "name": entry.name,
                "key": entry.key,
                "bytes": entry.total_bytes,
                "created_at": entry.created_at,
            }
            for entry in self.entries()
        }
        self._write_manifest(manifest)
        return removed


# -- the process-wide active store -------------------------------------------

_UNSET = object()
_ACTIVE: Any = _UNSET


def active_store() -> ArtifactStore | None:
    """The store the session tier reads through (or ``None``).

    Resolution order: an explicit :func:`set_store`, else the
    ``REPRO_STORE`` environment variable, else no persistence.
    """
    global _ACTIVE
    if _ACTIVE is _UNSET:
        path = os.environ.get("REPRO_STORE")
        _ACTIVE = ArtifactStore(path) if path else None
    return _ACTIVE


def set_store(store: ArtifactStore | str | Path | None) -> ArtifactStore | None:
    """Activate a store (path or instance) for this process; ``None`` disables."""
    global _ACTIVE
    if isinstance(store, (str, Path)):
        store = ArtifactStore(store)
    _ACTIVE = store
    return store


def reset_store() -> None:
    """Forget the explicit choice; re-resolve ``REPRO_STORE`` lazily."""
    global _ACTIVE
    _ACTIVE = _UNSET


# -- study-level convenience --------------------------------------------------


def snapshot_study(
    store: ArtifactStore,
    study: "Study",
    layers: Iterable[str] = DEFAULT_SNAPSHOT_LAYERS,
) -> dict[str, StoreEntry]:
    """Persist the given layers of ``study`` (building missing ones).

    Returns ``{layer: entry}``.  The default layer set covers the whole
    baseline pipeline; pass ``("whatif",)`` (or the full list) to also
    persist the counterfactual sweep.
    """
    entries: dict[str, StoreEntry] = {}
    for layer in layers:
        key = study.key(layer)
        entries[layer] = store.save_layer(layer, key, study.layer(layer))
    return entries


def warm_start(
    store: ArtifactStore,
    config: "StudyConfig",
    layers: Iterable[str] | None = None,
) -> list[str]:
    """Prime a cold process's session caches from disk.

    Loads every requested layer the store holds for ``config`` (every
    layer of the session's graph by default, skipping absences) and
    seeds them through :func:`repro.api.session.prime_caches`.  Returns
    the layers primed.
    """
    from repro.api.session import LAYER_GRAPH, Study, prime_caches

    study = Study(config)  # builds nothing; only derives the keys
    primed: list[str] = []
    for layer in layers if layers is not None else LAYER_GRAPH:
        key = study.key(layer)
        value = store.load_layer(layer, key)
        if value is None:
            continue
        prime_caches({layer: {key: value}})
        primed.append(layer)
    return primed


def _dataclass_key(value: Any) -> Any:
    """Hashable canonical form of dataclass fields (for artifact keys)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple(
            (f.name, _dataclass_key(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_dataclass_key(v) for v in value)
    return value


def artifact_key(config: "StudyConfig", name: str, params: dict | None = None) -> tuple:
    """The store key of one rendered artifact.

    Built from the config's :attr:`~repro.api.session.StudyConfig.
    result_key` (everything that determines results; ``parallel`` never
    keys anything) plus the artifact name and its renderer parameters.
    """
    items = tuple(sorted((params or {}).items()))
    return (name, items, config.result_key)
