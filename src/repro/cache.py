"""Content-addressed persistent cache for simulation run results.

The experiment sweeps behind the paper's figures re-simulate hundreds of
:class:`~repro.core.config.RunConfig` points, and many configs recur across
figures (e.g. the best Lens configs appear in fig9, fig11 *and* sec5e).
Because the simulator is deterministic, a run's outcome is a pure function
of its configuration — so each distinct config needs to be simulated **once
per model version** and can be replayed from disk afterwards.

Cache key
---------
``sha256`` over a canonical JSON rendering of

* the full :class:`RunConfig` (every field, including the nested
  :class:`~repro.machines.spec.MachineSpec` — node, interconnect and GPU
  calibration constants), and
* :data:`MODEL_VERSION`, a hand-bumped tag naming the performance model's
  behaviour generation.

Any change to a machine's calibrated constants changes the key directly;
any change to the *model code* (engine scheduling, implementation logic,
cost formulas) must bump :data:`MODEL_VERSION`, which invalidates every
prior entry at once (old lines are simply never addressed again; ``prune``
removes them). Floats are rendered with ``repr`` (shortest round-trip), so
keys are stable across processes and sessions.

Entries store ``elapsed_s``/``phases``/``comm_stats`` as plain JSON floats
(exact round-trip in CPython), so a cache *hit reproduces the uncached
RunResult bit-for-bit*. Runs that carry non-scalar artifacts (functional
fields, tracers) bypass the cache.

The cache is **opt-in**: nothing is read or written unless
:func:`configure` installs an active cache (the CLI does this for
``experiment`` runs unless ``--no-cache``).

Layout: append-only shard logs
------------------------------
Entries are JSON lines appended to 256 per-prefix logs
(``<dir>/<key[:2]>.jsonl``) — the sharded journal's naming and line
format (:func:`_encode_line`/:func:`_decode_line` live here and are
shared with :mod:`repro.sched.journal`; cache lines also carry
``model_version``). A put is one ``O_APPEND`` write of one complete
line; a shard is read lazily on first touch into ``key -> encoded
line`` and a line is decoded only on a hit. A miss stats the log and
reads just the tail that grew since, up to the last newline, so a
peer process's appends become visible and a half-written last line
waits until it is complete. Last write wins. Concurrent writers are
safe on a local filesystem, where one ``O_APPEND`` write lands as one
contiguous line. The older per-file layouts are not read; ``advection-
repro cache migrate DIR`` (:func:`migrate`) folds them into the logs.

Hashing is memoized: :func:`config_key` caches the digest on the
(frozen, hence immutable) :class:`RunConfig` instance, and the
machine-spec canonical JSON — by far the largest part of the document —
is cached on each (frozen) :class:`MachineSpec` and spliced into the
document's encoding; it is precomputed for the whole registry at catalog
load via :func:`warm_machine_digests`. Probing a warm batch therefore
hashes each config instance at most once.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import logging
import os
import re
import tempfile
import threading
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.config import RunConfig, RunResult

__all__ = [
    "MODEL_VERSION",
    "LINE_VERSION",
    "DEFAULT_CACHE_DIR",
    "SHARD_PREFIX_CHARS",
    "RunCache",
    "cacheable",
    "config_key",
    "configure",
    "active_cache",
    "migrate",
    "stats",
    "merge_stats",
    "reset_stats",
    "warm_machine_digests",
]

_log = logging.getLogger(__name__)

#: Behaviour generation of the performance model. Bump whenever a code
#: change (engine, implementations, cost formulas) alters any simulated
#: result; every cached entry from older versions becomes unaddressable.
MODEL_VERSION = "pr3-obs-copy-engines-1"

#: Version of the JSON line format shared by the run cache and the
#: scheduler journals (bumped on incompatible payload changes).
LINE_VERSION = 1

#: Default on-disk location (relative to the working directory) used by the
#: CLI; override with ``--cache-dir`` or ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Hex characters of the cache key naming an entry's shard log
#: (2 -> 256 shards). Shared by the sharded journal and the lease fabric.
SHARD_PREFIX_CHARS = 2


# -- line codec (shared with repro.sched.journal) ------------------------------
def _encode_line(
    key: str, payload: Dict[str, Any], model_version: Optional[str] = None
) -> bytes:
    """One complete JSON line (newline included) for ``key``'s payload."""
    doc = {
        "v": LINE_VERSION,
        "key": key,
        "elapsed_s": payload["elapsed_s"],
        "phases": payload["phases"],
        "comm_stats": payload["comm_stats"],
    }
    if model_version is not None:
        doc["model_version"] = model_version
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _fresh_tallies() -> Dict[str, int]:
    return {"torn": 0, "wrong_version": 0, "ill_shaped": 0}


def _payload(doc: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The typed ``elapsed_s``/``phases``/``comm_stats`` of a document."""
    try:
        return {
            "elapsed_s": float(doc["elapsed_s"]),
            "phases": {str(k): float(v) for k, v in doc["phases"].items()},
            "comm_stats": {
                str(k): int(v) for k, v in doc["comm_stats"].items()
            },
        }
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _decode_line(
    line: bytes, tallies: Dict[str, int], model_version: Optional[str] = None
) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Decode one line to ``(key, payload)``; tally corruption by kind.

    With ``model_version`` given (cache lines), a line from another model
    version counts as ``wrong_version``. Extra fields are ignored, so
    journal lines and cache lines share one decoder.
    """
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        # Torn trailing write after a kill, or garbage bytes — skip, never
        # fatal.
        tallies["torn"] += 1
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("key"), str):
        tallies["ill_shaped"] += 1
        return None
    if doc.get("v") != LINE_VERSION or (
        model_version is not None and doc.get("model_version") != model_version
    ):
        tallies["wrong_version"] += 1
        return None
    payload = _payload(doc)
    if payload is None:
        tallies["ill_shaped"] += 1
        return None
    return doc["key"], payload


#: Where an encoded line names its key (``_encode_line`` sorts its keys and
#: uses json's default separators), so a shard load indexes lines without
#: decoding them.
_KEY_FIELD = re.compile(rb'"key": "([^"]*)"')


# -- cache key -------------------------------------------------------------------
def _canonical(obj: Any, path: str = "config") -> Any:
    """Recursively convert to JSON-stable primitives (sorted, tuple->list).

    ``path`` names the field being rendered so a non-canonicalizable value
    raises with its exact location (e.g. ``config.noise.knobs[2]``), not
    just the offending type.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Spec classes may declare _KEY_OMIT_DEFAULTS: fields added after
        # entries already existed on disk are left out of the canonical
        # form while at their original-behaviour defaults, so old keys
        # stay addressable without a model-version bump (same precedent
        # as config seed/noise in :func:`config_key`).
        omit = getattr(type(obj), "_KEY_OMIT_DEFAULTS", None) or {}
        return {
            f.name: _canonical(getattr(obj, f.name), f"{path}.{f.name}")
            for f in dataclasses.fields(obj)
            if not (f.name in omit and getattr(obj, f.name) == omit[f.name])
        }
    if isinstance(obj, dict):
        return {
            str(k): _canonical(v, f"{path}[{str(k)!r}]")
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, enum.Enum):
        return _canonical(obj.value, path)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)  # shortest round-trip, platform-stable
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__} at {path} for the cache key"
    )


def _machine_json(spec: Any) -> str:
    """Canonical JSON of a machine spec, memoized on the (frozen) instance.

    The spec dominates the key document (~50 calibrated constants across
    node/interconnect/GPU), is immutable, and is shared by every config
    of a sweep — so it is encoded once per instance and cached via
    ``object.__setattr__`` (legal on frozen dataclasses). With sorted keys
    and fixed separators a nested value encodes the same wherever it sits,
    so :func:`config_key` splices this string into the document.
    """
    memo = spec.__dict__.get("_canonical_memo")
    if memo is None:
        memo = json.dumps(
            _canonical(spec, "config.machine"),
            sort_keys=True, separators=(",", ":"),
        )
        try:
            object.__setattr__(spec, "_canonical_memo", memo)
        except (AttributeError, TypeError):  # slotted/odd spec: skip memo
            pass
    return memo


def warm_machine_digests(specs) -> None:
    """Precompute canonical forms for a registry of machine specs.

    Called at :mod:`repro.machines.catalog` import, so by the time any
    sweep hashes its first config every registry machine's canonical form
    is already cached and :func:`config_key` only renders the few scalar
    config fields.
    """
    for spec in specs:
        _machine_json(spec)


#: Stand-in for the machine in the key document; its encoding is replaced
#: by the memoized machine JSON.
_MACHINE_SLOT = "\x00machine\x00"
_MACHINE_SLOT_JSON = json.dumps(_MACHINE_SLOT)

_INLINE_TYPES = frozenset((str, int, bool, float, type(None)))


def _key_value(value: Any, path: str) -> Any:
    """Canonical form of one config field; scalars and flat tuples inline."""
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind in _INLINE_TYPES:
        return value
    if kind is tuple and all(type(v) in _INLINE_TYPES for v in value):
        return [repr(v) if type(v) is float else v for v in value]
    return _canonical(value, path)


def config_key(cfg: "RunConfig", model_version: Optional[str] = None) -> str:
    """Stable content hash of (config, machine spec, model version).

    The perturbation fields (``seed``, ``noise``) enter the key only when
    set: a noiseless config (both ``None``) hashes exactly as it did
    before the perturbation layer existed, so prior cache entries stay
    addressable without a model-version bump.

    The digest is memoized on the (frozen) config instance: every
    dedup/probe/journal/cache touch of the same instance reuses one
    hash. ``RunConfig.with_()`` builds a fresh instance, so the memo can
    never go stale; a ``model_version`` override bypasses a mismatched
    memo and re-memoizes under the new version.
    """
    if model_version is None:
        model_version = MODEL_VERSION  # dynamic lookup: bumps take effect
    memo = cfg.__dict__.get("_key_memo") if hasattr(cfg, "__dict__") else None
    if memo is not None and memo[0] == model_version:
        return memo[1]
    canon = {}
    # config_key renders the config's fields itself (to splice in the
    # memoized machine JSON), so the _KEY_OMIT_DEFAULTS contract honored
    # by _canonical for nested specs must be honored here too: fields
    # added after entries already existed on disk stay out of the
    # canonical form while at their original defaults.
    omit = getattr(type(cfg), "_KEY_OMIT_DEFAULTS", None) or {}
    for f in dataclasses.fields(cfg):
        if f.name in omit and getattr(cfg, f.name) == omit[f.name]:
            continue
        if f.name == "machine":
            canon["machine"] = _MACHINE_SLOT
        else:
            canon[f.name] = _key_value(getattr(cfg, f.name), f"config.{f.name}")
    if canon.get("seed") is None and canon.get("noise") is None:
        canon.pop("seed", None)
        canon.pop("noise", None)
    doc = {"model_version": model_version, "config": canon}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if blob.count(_MACHINE_SLOT_JSON) == 1:
        blob = blob.replace(_MACHINE_SLOT_JSON, _machine_json(cfg.machine))
    else:  # a field's value contains the stand-in: encode in full
        canon["machine"] = _canonical(cfg.machine, "config.machine")
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    try:
        object.__setattr__(cfg, "_key_memo", (model_version, key))
    except (AttributeError, TypeError):  # non-dataclass stand-in: skip memo
        pass
    return key


def cacheable(cfg: "RunConfig") -> bool:
    """Whether a config's result is scalar-only (cache-representable)."""
    return not cfg.functional and not cfg.trace


# -- store -----------------------------------------------------------------------
class _ShardLog:
    """One shard log's in-memory view: indexed lines, bytes consumed."""

    __slots__ = ("path", "lines", "offset")

    def __init__(self, path: str):
        self.path = path
        #: key -> its last complete encoded line (decoded only on a hit)
        self.lines: Dict[str, bytes] = {}
        #: bytes of the log indexed so far (always at a line boundary)
        self.offset = 0


def _append(path: str, blob: bytes) -> int:
    """Append complete lines with one ``O_APPEND`` write; returns the end."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, blob)
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


class RunCache:
    """A directory of append-only shard logs of run results.

    Entries are JSON lines in ``<dir>/<key[:2]>.jsonl`` (see the module
    docstring). Thread-safe: shard loads, tail reads and offset updates
    run under one lock. ``tallies`` counts skipped corrupt lines by kind
    (``torn`` / ``wrong_version`` / ``ill_shaped``), as the journals do.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.tallies = _fresh_tallies()
        os.makedirs(self.directory, exist_ok=True)
        self._logs: Dict[str, _ShardLog] = {}
        self._lock = threading.Lock()
        if next(_old_entries(self.directory), None) is not None:
            _log.warning(
                "run cache %s holds entries in the old per-file layout; "
                "they are not read. Fold them in with: "
                "advection-repro cache migrate %s",
                self.directory, self.directory,
            )

    # -- shard logs (call with the lock held) -----------------------------------
    def _shard(self, key: str) -> _ShardLog:
        prefix = key[:SHARD_PREFIX_CHARS]
        log = self._logs.get(prefix)
        if log is None:
            log = _ShardLog(os.path.join(self.directory, f"{prefix}.jsonl"))
            self._logs[prefix] = log
            self._read_tail(log)
        return log

    def _read_tail(self, log: _ShardLog) -> None:
        """Index the complete lines appended past ``log.offset``.

        A last line without its newline (a peer mid-write, or a killed
        writer's torn tail) is left unconsumed and untallied.
        """
        try:
            with open(log.path, "rb") as fh:
                fh.seek(log.offset)
                data = fh.read()
        except OSError:
            return
        lines = data.split(b"\n")
        partial = lines.pop()  # b"" when the data ends at a newline
        for line in lines:
            if not line.strip():
                continue
            m = _KEY_FIELD.search(line)
            if m is not None:
                key = m.group(1).decode("latin-1")
            else:  # not _encode_line's layout: decode (and tally) it now
                parsed = _decode_line(line, self.tallies)
                if parsed is None:
                    continue
                key = parsed[0]
            log.lines[key] = line  # last wins
        log.offset += len(data) - len(partial)

    def _shard_names(self) -> List[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            n for n in names
            if n.endswith(".jsonl") and len(n) == SHARD_PREFIX_CHARS + 6
        )

    # -- lookup -------------------------------------------------------------------
    def _line(self, key: str) -> Optional[bytes]:
        """``key``'s indexed line, reading what peers appended on a miss."""
        with self._lock:
            log = self._shard(key)
            line = log.lines.get(key)
            if line is None:
                try:
                    grew = os.stat(log.path).st_size > log.offset
                except OSError:
                    grew = False
                if grew:
                    self._read_tail(log)
                    line = log.lines.get(key)
            return line

    def has_key(self, key: str) -> bool:
        """Existence probe by key — no decode, no counter traffic."""
        return self._line(key) is not None

    def warm_keys(self, keys) -> set:
        """The subset of ``keys`` with an entry on disk (batch probe).

        Pure existence checks: nothing is decoded, validated or charged to
        the hit/miss counters. The serve daemon uses this to classify a
        sweep request into warm/cold halves before admitting the cold
        half to a worker.
        """
        return {k for k in keys if self.has_key(k)}

    def probe_keys(self, keys) -> int:
        """Count how many of ``keys`` have an entry on disk (batch probe).

        Pure existence checks: nothing is decoded, validated or charged to
        the hit/miss counters. The ``sweep --dry-run`` warm/cold split
        uses this to classify a whole cross-product without touching
        payloads.
        """
        return len(self.warm_keys(keys))

    def get(
        self, cfg: "RunConfig", record_miss: bool = True
    ) -> Optional["RunResult"]:
        """Return the cached result for ``cfg``, or ``None`` on a miss.

        ``record_miss=False`` makes the lookup a *probe*: a miss is not
        charged to the counters. The scheduler uses this for its parent-side
        short-circuit check — when the probe misses, the worker that ends up
        simulating the config performs (and counts) the authoritative
        lookup, so misses are counted exactly once. Hits are always counted.
        """
        if not cacheable(cfg):
            return None
        key = config_key(cfg)
        line = self._line(key)
        # A torn, wrong-version (a forged or corrupted line: the version is
        # part of the key) or ill-shaped line is a miss, never a crash; the
        # re-simulated result's put supersedes it.
        parsed = (
            None if line is None
            else _decode_line(line, self.tallies, MODEL_VERSION)
        )
        if parsed is None or parsed[0] != key:
            self.misses += record_miss
            return None
        from repro.core.config import RunResult

        self.hits += 1
        return RunResult(config=cfg, **parsed[1])

    def put(self, cfg: "RunConfig", result: "RunResult") -> bool:
        """Store ``result``; returns False when the config is not cacheable."""
        if not cacheable(cfg):
            return False
        key = config_key(cfg)
        line = _encode_line(key, {
            "elapsed_s": result.elapsed_s,
            "phases": result.phases,
            "comm_stats": result.comm_stats,
        }, MODEL_VERSION)
        with self._lock:
            log = self._shard(key)
            end = _append(log.path, line)
            # Only a write that landed right at the consumed offset keeps
            # the index gap-free; otherwise a peer's lines sit in between
            # and the next miss reads them.
            if end == log.offset + len(line):
                log.offset = end
            log.lines[key] = line
        self.stores += 1
        return True

    # -- maintenance --------------------------------------------------------------
    def __len__(self) -> int:
        """Distinct entry keys on disk (a duplicated key counts once)."""
        with self._lock:
            for name in self._shard_names():
                prefix = name[: -len(".jsonl")]
                log = self._logs.get(prefix)
                if log is None:
                    self._shard(prefix)
                else:
                    self._read_tail(log)
            return sum(len(log.lines) for log in self._logs.values())

    def prune(self) -> int:
        """Drop lines of other model versions; returns stale keys removed.

        Each shard log is rewritten (temp file + ``os.replace``) keeping
        only well-formed current-version lines; torn and ill-shaped lines
        go too, uncounted. Maintenance: it must not run alongside writers
        — a put racing the rewrite can be lost, which costs a later miss,
        never a wrong number.
        """
        stale = set()
        with self._lock:
            for name in self._shard_names():
                path = os.path.join(self.directory, name)
                try:
                    with open(path, "rb") as fh:
                        lines = fh.read().split(b"\n")
                except OSError:
                    continue
                keep = []
                for line in lines:
                    if not line.strip():
                        continue
                    tallies = _fresh_tallies()
                    if _decode_line(line, tallies, MODEL_VERSION) is not None:
                        keep.append(line + b"\n")
                    elif tallies["wrong_version"]:
                        stale.add(json.loads(line)["key"])
                if len(keep) == sum(1 for line in lines if line.strip()):
                    continue  # nothing to drop
                if not keep:
                    os.unlink(path)
                    continue
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(b"".join(keep))
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            self._logs.clear()  # re-index lazily from the rewritten logs
        return len(stale)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/store counters since construction."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


# -- old per-file layouts ----------------------------------------------------------
#: An entry file of the old layouts: ``<sha256 hex key>.json``. Nothing
#: else in a cache directory is read or removed.
_OLD_ENTRY = re.compile(r"[0-9a-f]{64}\.json")


def _old_entries(directory: str) -> Iterator[Tuple[str, str]]:
    """``(key, path)`` of each old-layout entry file under ``directory``.

    Per-file shards (``<dir>/<key[:2]>/<key>.json``) come first, then the
    flat v1 layout (``<dir>/<key>.json``), so a key half-migrated into
    both is seen at its shard copy first.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return
    for name in names:
        sub = os.path.join(directory, name)
        if len(name) == SHARD_PREFIX_CHARS and os.path.isdir(sub):
            try:
                inner = sorted(os.listdir(sub))
            except OSError:
                continue
            for entry in inner:
                if _OLD_ENTRY.fullmatch(entry):
                    yield entry[: -len(".json")], os.path.join(sub, entry)
    for name in names:
        if _OLD_ENTRY.fullmatch(name):
            yield name[: -len(".json")], os.path.join(directory, name)


def migrate(directory: str) -> Dict[str, int]:
    """Fold old per-file entries under ``directory`` into the shard logs.

    Current-version entries of both old layouts are appended to their
    logs (one write per shard); every old file is then removed — stale
    and corrupt ones included — along with emptied shard directories and
    their leftover ``.tmp`` files. Returns ``migrated``/``stale``/
    ``corrupt`` counts; a second run finds nothing and migrates 0. Like
    ``prune``, this is maintenance for an idle directory.
    """
    counts = {"migrated": 0, "stale": 0, "corrupt": 0}
    batches: Dict[str, List[bytes]] = {}
    seen = set()
    paths = []
    for key, path in _old_entries(directory):
        paths.append(path)
        if key in seen:
            continue  # half-migrated duplicate: the shard copy came first
        seen.add(key)
        try:
            with open(path, "rb") as fh:
                doc = json.loads(fh.read().decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            doc = None
        if not isinstance(doc, dict):
            counts["corrupt"] += 1
            continue
        if doc.get("model_version") != MODEL_VERSION:
            counts["stale"] += 1
            continue
        payload = _payload(doc)
        if payload is None:
            counts["corrupt"] += 1
            continue
        batches.setdefault(key[:SHARD_PREFIX_CHARS], []).append(
            _encode_line(key, payload, MODEL_VERSION)
        )
        counts["migrated"] += 1
    # Append before removing: an interrupted migration leaves files that
    # the next run folds in again (a duplicate line is harmless).
    for prefix, lines in sorted(batches.items()):
        _append(os.path.join(directory, f"{prefix}.jsonl"), b"".join(lines))
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass
    for name in sorted(os.listdir(directory)):
        sub = os.path.join(directory, name)
        if len(name) != SHARD_PREFIX_CHARS or not os.path.isdir(sub):
            continue
        for entry in os.listdir(sub):
            if entry.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(sub, entry))
                except OSError:
                    pass
        try:
            os.rmdir(sub)
        except OSError:  # not empty: holds files the cache never wrote
            pass
    return counts


#: The process-wide cache consulted by :func:`repro.core.runner.run`.
_active: Optional[RunCache] = None


def configure(directory: Optional[str]) -> Optional[RunCache]:
    """Install (or, with ``None``, remove) the process-wide run cache."""
    global _active
    _active = RunCache(directory) if directory is not None else None
    return _active


def active_cache() -> Optional[RunCache]:
    """The currently installed cache, if any."""
    return _active


def stats() -> Dict[str, int]:
    """Counters of the active cache (zeros when no cache is installed)."""
    if _active is None:
        return {"hits": 0, "misses": 0, "stores": 0}
    return _active.stats()


def merge_stats(extra: Dict[str, int]) -> None:
    """Fold a worker's counters into the active cache's (process pools)."""
    if _active is None:
        return
    _active.hits += int(extra.get("hits", 0))
    _active.misses += int(extra.get("misses", 0))
    _active.stores += int(extra.get("stores", 0))


def reset_stats() -> None:
    """Zero the active cache's counters."""
    if _active is not None:
        _active.hits = _active.misses = _active.stores = 0
