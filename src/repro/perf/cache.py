"""Persistent on-disk store of characterizations and app profiles.

The paper's workflow characterizes a device once and reuses the result
across applications, and profiles an application once and decides from
its counters; this module extends the suite's in-memory reuse of both
across *processes*.  Each entry is one JSON file of one of two kinds,
keyed by :func:`cache_key`, a content hash over its inputs and the
package version:

- a **characterization** (``kind: "characterization"``; an entry
  without a ``kind`` is one, as in stores written before profiles
  joined): the full :class:`~repro.soc.board.BoardConfig` and the
  micro-benchmark parameters;
- a **profile** (``kind: "profile"``): the board, the workload's
  content, the communication model and the timing backend with its
  ``SimConfig``.

Editing a board preset, a workload, a sweep parameter or upgrading the
package all invalidate the entry automatically.  A model edit that
keeps the version does not: ``repro cache clear`` (or
:meth:`ShardedCharacterizationStore.clear`) invalidates explicitly.

Entries are written atomically (temp file + ``os.replace``) and any
unreadable, corrupt or key-mismatched file is treated as a miss, so a
stale or damaged cache can slow a run down but never change a result.
The *outcomes* are nonetheless kept distinct — ``hit``, ``miss``
(absent or re-keyed entry) and ``corrupt`` (unreadable, unparsable or
structurally broken entry) — recorded in
:attr:`ShardedCharacterizationStore.last_outcome`, counted in the
:mod:`repro.obs` metrics registry (``perf.cache.hit``/``miss``/
``corrupt``) and surfaced per entry by ``repro cache info`` via
:meth:`ShardedCharacterizationStore.scan`.

:class:`ShardedCharacterizationStore` is also a *shared store* for
multi-tenant serving (:mod:`repro.serve`): entries are spread over
key-prefix shard directories (``shard-XX/``),
each shard keeps a byte-budgeted LRU index on disk (``_index.json``,
logical-clock recency, deterministic eviction order), per-shard
hit/miss and eviction counters flow through :mod:`repro.obs`
(``perf.store.shard.XX.hit``/``miss``, ``perf.store.evicted``), and
concurrent cold misses are collapsed by the cross-process single-flight
the suite already wires around :meth:`ShardedCharacterizationStore.load`.
Legacy flat entries are migrated into their shard on first touch, and
the LRU index is advisory only — a missing or stale index is rebuilt
from the directory, never trusted over it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import pathlib
import sys
import tempfile
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

import repro
from repro import obs
from repro.errors import ReproError
from repro.model.device import DeviceCharacterization
from repro.model.thresholds import SweepPoint, ThresholdAnalysis
from repro.profiling.counters import AppProfile
from repro.soc.board import BoardConfig

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable overriding the store's default byte budget.
STORE_BUDGET_ENV = "REPRO_CACHE_BUDGET_BYTES"

#: Default shard count of :class:`ShardedCharacterizationStore`.
DEFAULT_SHARDS = 8

#: Default total byte budget across all shards (64 MiB — thousands of
#: characterizations; small enough that a runaway sweep cannot fill the
#: disk).
DEFAULT_STORE_BUDGET = 64 * 1024 * 1024

#: Per-shard LRU index file name (never globbed as an entry).
INDEX_NAME = "_index.json"

#: The two entry kinds; an entry without a ``kind`` field is a
#: characterization.
CHARACTERIZATION = "characterization"
PROFILE = "profile"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/characterizations``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "characterizations"


# ----------------------------------------------------------------------
# (de)serialization
# ----------------------------------------------------------------------


def _analysis_to_dict(analysis: ThresholdAnalysis) -> Dict[str, Any]:
    return {
        "threshold_pct": analysis.threshold_pct,
        "threshold_fraction": analysis.threshold_fraction,
        "zone2_pct": analysis.zone2_pct,
        "zone2_fraction": analysis.zone2_fraction,
        "peak_throughput": analysis.peak_throughput,
        "points": [dataclasses.asdict(p) for p in analysis.points],
    }


def _analysis_from_dict(data: Mapping[str, Any]) -> ThresholdAnalysis:
    return ThresholdAnalysis(
        threshold_pct=data["threshold_pct"],
        threshold_fraction=data["threshold_fraction"],
        zone2_pct=data["zone2_pct"],
        zone2_fraction=data["zone2_fraction"],
        peak_throughput=data["peak_throughput"],
        points=[SweepPoint(**p) for p in data["points"]],
    )


def characterization_to_dict(device: DeviceCharacterization) -> Dict[str, Any]:
    """JSON-friendly view of a characterization (round-trips exactly)."""
    return {
        "board_name": device.board_name,
        "io_coherent": device.io_coherent,
        "gpu_cache_throughput": dict(device.gpu_cache_throughput),
        "cpu_cache_throughput": dict(device.cpu_cache_throughput),
        "gpu_thresholds": _analysis_to_dict(device.gpu_thresholds),
        "cpu_thresholds": _analysis_to_dict(device.cpu_thresholds),
        "sc_zc_max_speedup": device.sc_zc_max_speedup,
        "zc_sc_max_speedup": device.zc_sc_max_speedup,
    }


def characterization_from_dict(data: Mapping[str, Any]) -> DeviceCharacterization:
    """Rebuild a characterization from :func:`characterization_to_dict`."""
    return DeviceCharacterization(
        board_name=data["board_name"],
        io_coherent=data["io_coherent"],
        gpu_cache_throughput=dict(data["gpu_cache_throughput"]),
        cpu_cache_throughput=dict(data["cpu_cache_throughput"]),
        gpu_thresholds=_analysis_from_dict(data["gpu_thresholds"]),
        cpu_thresholds=_analysis_from_dict(data["cpu_thresholds"]),
        sc_zc_max_speedup=data["sc_zc_max_speedup"],
        zc_sc_max_speedup=data["zc_sc_max_speedup"],
    )


#: Entry kind -> (envelope field of its value, encoder, decoder).
_CODECS = {
    CHARACTERIZATION: ("device", characterization_to_dict,
                       characterization_from_dict),
    PROFILE: ("profile", AppProfile.to_dict, AppProfile.from_dict),
}


def _decoded(kind: str, data: Mapping[str, Any]):
    """The value of one entry's payload (raises when it is broken)."""
    field, _, decode = _CODECS[kind]
    return decode(data[field])


def _kind(workload: Any) -> str:
    """The kind of the entry a load/store addresses."""
    return CHARACTERIZATION if workload is None else PROFILE


@functools.lru_cache(maxsize=None)
def _dataclass_layout(cls: type) -> Tuple[str, Tuple[str, ...]]:
    """A dataclass type's qualified name and field names."""
    return (f"{cls.__module__}.{cls.__qualname__}",
            tuple(f.name for f in dataclasses.fields(cls)))


#: Leaf types that are their own content.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _content(value: Any) -> Any:
    """JSON-ready content of a workload: dataclasses are tagged with
    their type (two pattern classes with equal fields differ), arrays
    are their dtype, shape and digest."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    if hasattr(cls, "__dataclass_fields__"):
        type_name, names = _dataclass_layout(cls)
        out = {"type": type_name}
        for name in names:
            out[name] = _content(getattr(value, name))
        return out
    if isinstance(value, enum.Enum):
        return _content(value.value)
    if isinstance(value, Mapping):
        return {str(k): _content(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_content(v) for v in value]
    # An array or a NumPy scalar exists only once NumPy is loaded, so a
    # key never imports it.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {"dtype": str(data.dtype), "shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if np is not None and isinstance(value, np.generic):
        return value.item()
    return value


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=str)


@functools.lru_cache(maxsize=256)
def _board_json(board: BoardConfig) -> str:
    """A board's canonical JSON, once per frozen board value."""
    return _dumps(dataclasses.asdict(board))


def cache_key(board: BoardConfig, signature: Mapping[str, Any],
              workload: Any = None) -> str:
    """Content hash identifying one store entry's inputs.

    Without ``workload``: a characterization, keyed by the board and
    the micro-benchmark ``signature``.  With it: the workload's profile
    on the board, ``signature`` naming the model and the timing backend
    (:meth:`~repro.microbench.suite.MicrobenchmarkSuite.
    profile_signature`).  The package version is part of every key.

    The hashed text is the ``sort_keys`` JSON of ``{"board", "microbench"
    | "profile", "version"[, "workload"]}``, assembled from the board's
    cached JSON so a key costs one board serialization per board value.
    """
    parts = [("board", _board_json(board)),
             ("microbench" if workload is None else "profile",
              _dumps(dict(signature))),
             ("version", _dumps(repro.__version__))]
    if workload is not None:
        parts.append(("workload", _dumps(_content(workload))))
    blob = "{" + ", ".join(f'"{name}": {text}' for name, text in parts) + "}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardStats:
    """One shard's on-disk footprint and since-process-start traffic."""

    name: str
    entries: int
    bytes: int
    quarantined: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> Optional[float]:
        """Hits / (hits + misses) since process start; None without
        traffic."""
        total = self.hits + self.misses
        return self.hits / total if total else None


def default_store_budget() -> int:
    """``$REPRO_CACHE_BUDGET_BYTES`` or :data:`DEFAULT_STORE_BUDGET`."""
    override = os.environ.get(STORE_BUDGET_ENV)
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return DEFAULT_STORE_BUDGET


class ShardedCharacterizationStore:
    """A directory of store entries: characterizations and profiles.

    A damaged store is slower, never wrong: every unreadable, corrupt
    or key-mismatched entry is a miss.  For multi-tenant serving it
    adds:

    - **key-prefix shards** — entry files live under
      ``shard-XX/`` chosen by the leading bits of the content hash, so
      concurrent tenants spread their directory traffic and per-shard
      stats stay meaningful;
    - **byte-budgeted LRU** — each shard owns
      ``max_bytes / num_shards``; storing past the budget evicts the
      least-recently-used entries (deterministically: by logical
      recency, ties by name) until the shard fits again.  The newest
      entry is never evicted, so one oversized characterization cannot
      thrash;
    - **on-disk index** — recency survives process restarts via a
      per-shard ``_index.json`` with a logical clock.  The index is
      advisory: missing, stale or corrupt indexes are rebuilt from the
      directory listing and never override what is actually on disk;
    - **metrics** — ``perf.store.shard.XX.hit``/``miss`` counters,
      ``perf.store.evicted`` + per-eviction events, on top of the
      ``perf.cache.*`` load outcomes.

    Stampede protection is unchanged: the suite wires
    :class:`~repro.resilience.singleflight.SingleFlight` (in-process
    events + cross-process lock files in :attr:`directory`) around cold
    misses, so N concurrent tenants characterize once.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 num_shards: int = DEFAULT_SHARDS,
                 max_bytes: Optional[int] = None) -> None:
        self.directory = pathlib.Path(directory) if directory is not None \
            else default_cache_dir()
        #: Outcome of the most recent :meth:`load`:
        #: ``"hit"``, ``"miss"`` or ``"corrupt"`` (``None`` before any).
        self.last_outcome: Optional[str] = None
        if num_shards < 1:
            raise ReproError(
                f"store needs at least one shard, got {num_shards}",
                code="CACHE_SHARDS_INVALID",
                details={"num_shards": num_shards},
            )
        self.num_shards = int(num_shards)
        self.max_bytes = int(max_bytes) if max_bytes is not None \
            else default_store_budget()
        self._index_lock = threading.Lock()
        # Hit recency is buffered here (insertion-ordered, re-touch
        # moves to the end) and folded into the on-disk index by the
        # next store/evict on the shard: a warm hit costs no disk I/O,
        # which keeps the characterization_cache fast-path speedup.
        self._pending_touches: Dict[pathlib.Path, Dict[str, None]] = {}

    # ------------------------------------------------------------------
    # shard routing
    # ------------------------------------------------------------------

    def shard_of(self, key: str) -> int:
        """The shard index owning a content-hash key."""
        return int(key[:4], 16) % self.num_shards

    @staticmethod
    def shard_name(shard: int) -> str:
        return f"shard-{shard:02x}"

    def shard_dir(self, shard: int) -> pathlib.Path:
        return self.directory / self.shard_name(shard)

    @staticmethod
    def _name(board_name: str, key: str, kind: str) -> str:
        infix = "-profile" if kind == PROFILE else ""
        return f"{board_name}{infix}-{key[:16]}.json"

    def _path(self, board_name: str, key: str,
              kind: str = CHARACTERIZATION) -> pathlib.Path:
        return self.shard_dir(self.shard_of(key)) / \
            self._name(board_name, key, kind)

    @property
    def shard_budget(self) -> int:
        """Byte budget of one shard."""
        return max(1, self.max_bytes // self.num_shards)

    # ------------------------------------------------------------------
    # load/store with LRU accounting (both entry kinds)
    # ------------------------------------------------------------------

    def _outcome(self, outcome: str, path: pathlib.Path,
                 reason: str) -> None:
        """Record one load outcome (metric counter + structured event)."""
        self.last_outcome = outcome
        obs.counter_inc(f"perf.cache.{outcome}")
        if outcome == "corrupt":
            obs.event("perf.cache.corrupt", path=str(path), reason=reason)
            self._quarantine(path, reason)

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Move a corrupt entry aside as ``<name>.corrupt``.

        Quarantining on first detection keeps the damage visible
        (``repro cache info`` lists quarantined files) without paying
        the corrupt-parse path on every subsequent load — the entry
        becomes a plain miss and the next store rewrites it.  Renames
        are best-effort: an undeletable file stays where it is and
        simply keeps classifying as corrupt.
        """
        target = path.with_suffix(".corrupt")
        try:
            os.replace(str(path), str(target))
        except OSError:
            return
        obs.counter_inc("perf.cache.quarantined")
        obs.event("perf.cache.quarantined", path=str(path),
                  quarantined_to=str(target), reason=reason)

    def load(self, board: BoardConfig, signature: Mapping[str, Any],
             workload: Any = None):
        """The stored entry for these exact inputs, or None.

        Without ``workload`` the entry is the board's
        :class:`DeviceCharacterization`; with it, the workload's
        :class:`~repro.profiling.counters.AppProfile` (``signature``:
        :meth:`~repro.microbench.suite.MicrobenchmarkSuite.
        profile_signature`).  Both kinds take the same path.

        Every call records a distinct outcome: ``hit``; ``miss`` for an
        absent or re-keyed (stale-parameters) entry; ``corrupt`` for a
        file that exists but cannot be read, parsed or rebuilt.  All
        non-hits return ``None`` — a damaged store can slow a run down
        but never change a result.
        """
        kind = _kind(workload)
        key = cache_key(board, signature, workload)
        self._migrate_flat(board.name, key, kind)
        path = self._path(board.name, key, kind)
        value = self._read(path, key, kind)
        shard = self.shard_of(key)
        if value is not None:
            obs.counter_inc(f"perf.store.shard.{shard:02x}.hit")
            self._touch(path)
        else:
            obs.counter_inc(f"perf.store.shard.{shard:02x}.miss")
        return value

    def _read(self, path: pathlib.Path, key: str, kind: str):
        """One entry file's value, or None after recording why not."""
        if not path.exists():
            self._outcome("miss", path, "absent")
            return None
        try:
            data = json.loads(path.read_text())
        except OSError:
            self._outcome("corrupt", path, "unreadable")
            return None
        except ValueError:
            self._outcome("corrupt", path, "invalid JSON")
            return None
        if not isinstance(data, dict):
            self._outcome("corrupt", path, "not a JSON object")
            return None
        if data.get("key") != key:
            # A legitimately stale entry: the board/parameters/version
            # hash moved on, so this file simply is not our entry.
            self._outcome("miss", path, "key mismatch")
            return None
        try:
            value = _decoded(kind, data)
        except Exception as error:
            self._outcome("corrupt", path, f"broken payload: {error}")
            return None
        self._outcome("hit", path, "ok")
        return value

    def store(self, board: BoardConfig, signature: Mapping[str, Any],
              value, workload: Any = None) -> pathlib.Path:
        """Persist one entry atomically (a characterization, or with
        ``workload`` its profile, as in :meth:`load`); returns its
        path."""
        kind = _kind(workload)
        key = cache_key(board, signature, workload)
        path = self._path(board.name, key, kind)
        field, encode, _ = _CODECS[kind]
        payload = {
            "key": key,
            "kind": kind,
            "board": board.name,
            "version": repro.__version__,
            field: encode(value),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._record_store(path)
        return path

    def _migrate_flat(self, board_name: str, key: str, kind: str) -> None:
        """Adopt a legacy flat-layout entry into its shard (best
        effort) so a pre-shard cache keeps its warm state."""
        flat = self.directory / self._name(board_name, key, kind)
        if not flat.is_file():
            return
        target = self._path(board_name, key, kind)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(str(flat), str(target))
        except OSError:
            return
        self._record_store(target)
        obs.event("perf.store.migrated", entry=target.name,
                  shard=target.parent.name)

    # ------------------------------------------------------------------
    # the per-shard LRU index
    # ------------------------------------------------------------------

    def _read_index(self, shard_dir: pathlib.Path) -> Dict[str, Any]:
        """The shard's index, reconciled against the directory.

        Entries on disk but unknown to the index are adopted (recency
        0, name order — deterministic); index rows whose file vanished
        are dropped.  An unreadable index is simply rebuilt.
        """
        index: Dict[str, Any] = {"seq": 0, "entries": {}}
        path = shard_dir / INDEX_NAME
        try:
            data = json.loads(path.read_text())
            if (isinstance(data, dict) and isinstance(data.get("seq"), int)
                    and isinstance(data.get("entries"), dict)):
                index = {"seq": data["seq"], "entries": {}}
                for name, row in data["entries"].items():
                    if (isinstance(row, dict)
                            and isinstance(row.get("bytes"), int)
                            and isinstance(row.get("seq"), int)):
                        index["entries"][name] = {
                            "bytes": row["bytes"], "seq": row["seq"],
                        }
        except (OSError, ValueError):
            pass
        on_disk = {}
        if shard_dir.is_dir():
            for entry in sorted(shard_dir.glob("*.json")):
                if entry.name.startswith("_"):
                    continue
                try:
                    on_disk[entry.name] = entry.stat().st_size
                except OSError:
                    continue
        rows = {
            name: {"bytes": on_disk[name],
                   "seq": index["entries"].get(name, {"seq": 0})["seq"]}
            for name in on_disk
        }
        return {"seq": index["seq"], "entries": rows}

    def _write_index(self, shard_dir: pathlib.Path,
                     index: Dict[str, Any]) -> None:
        """Atomically persist the index (best effort — advisory data)."""
        path = shard_dir / INDEX_NAME
        try:
            fd, tmp = tempfile.mkstemp(dir=str(shard_dir), prefix="_index",
                                       suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(index, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            pass

    def _touch(self, path: pathlib.Path) -> None:
        """Buffer an entry's recency bump after a hit (memory only).

        Persisting the index on every hit would tax the warm fast path
        with write syscalls, so hits are deferred: recency reaches disk
        with the shard's next store/evict.  A process that only ever
        reads leaves no recency trail — acceptable for advisory LRU
        data (eviction order within the writing process is exact).
        """
        with self._index_lock:
            pending = self._pending_touches.setdefault(path.parent, {})
            pending.pop(path.name, None)  # re-touch moves to the end
            pending[path.name] = None

    def _record_store(self, path: pathlib.Path) -> None:
        """Index a fresh entry, then evict the shard back under budget."""
        with self._index_lock:
            index = self._read_index(path.parent)
            for name in self._pending_touches.pop(path.parent, {}):
                if name in index["entries"]:
                    index["seq"] += 1
                    index["entries"][name]["seq"] = index["seq"]
            index["seq"] += 1
            try:
                size = path.stat().st_size
            except OSError:
                return
            index["entries"][path.name] = {"bytes": size, "seq": index["seq"]}
            self._evict_locked(path.parent, index, keep=path.name)
            self._write_index(path.parent, index)

    def _evict_locked(self, shard_dir: pathlib.Path, index: Dict[str, Any],
                      keep: str) -> None:
        """Drop LRU entries until the shard fits its budget.

        Victims are chosen by (recency, name) — a pure function of the
        access history, so a fixed insertion order always evicts the
        same entries.  ``keep`` (the entry just stored) is exempt.
        """
        rows = index["entries"]
        total = sum(row["bytes"] for row in rows.values())
        while total > self.shard_budget:
            victims = sorted(
                (name for name in rows if name != keep),
                key=lambda name: (rows[name]["seq"], name),
            )
            if not victims:
                break
            victim = victims[0]
            try:
                (shard_dir / victim).unlink()
            except OSError:
                pass
            total -= rows.pop(victim)["bytes"]
            obs.counter_inc("perf.store.evicted")
            obs.event("perf.store.evicted", entry=victim,
                      shard=shard_dir.name, shard_budget=self.shard_budget)

    # ------------------------------------------------------------------
    # introspection (``repro cache info``)
    # ------------------------------------------------------------------

    def _glob(self, suffix: str) -> List[pathlib.Path]:
        """Matching files in the flat layout *and* any shard subdirs.

        Index files (``_``-prefixed) are bookkeeping, not entries, so
        they never count; legacy flat entries not yet migrated into
        their shard still count.
        """
        if not self.directory.is_dir():
            return []
        found = list(self.directory.glob(f"*.{suffix}"))
        found.extend(self.directory.glob(f"shard-*/*.{suffix}"))
        return sorted(p for p in found if not p.name.startswith("_"))

    def entries(self) -> List[pathlib.Path]:
        """Entry files currently on disk (sorted, all shards)."""
        return self._glob("json")

    def quarantined(self) -> List[pathlib.Path]:
        """Corrupt entries moved aside by :meth:`load` (sorted)."""
        return self._glob("corrupt")

    @staticmethod
    def classify(path: pathlib.Path) -> Tuple[str, str]:
        """``("ok"|"corrupt", reason)`` for one entry file of either
        kind.

        Key staleness cannot be judged without the live inputs, so this
        checks structural integrity only: readable, valid JSON, the
        expected envelope of a known kind, and a payload that rebuilds
        into a :class:`DeviceCharacterization` or an
        :class:`~repro.profiling.counters.AppProfile`.
        """
        status, reason, _ = ShardedCharacterizationStore._inspect(path)
        return status, reason

    @staticmethod
    def _inspect(path: pathlib.Path) -> Tuple[str, str, Optional[str]]:
        """:meth:`classify` plus the entry's kind (None if unknown)."""
        try:
            data = json.loads(path.read_text())
        except OSError:
            return "corrupt", "unreadable", None
        except ValueError:
            return "corrupt", "invalid JSON", None
        if not isinstance(data, dict):
            return "corrupt", "not a JSON object", None
        kind = data.get("kind", CHARACTERIZATION)
        if not isinstance(kind, str) or kind not in _CODECS:
            return "corrupt", f"unknown kind {kind!r}", None
        missing = [k for k in ("key", "board", "version", _CODECS[kind][0])
                   if k not in data]
        if missing:
            return ("corrupt",
                    f"missing field(s): {', '.join(missing)}", kind)
        try:
            _decoded(kind, data)
        except Exception as error:
            return "corrupt", f"broken payload: {error}", kind
        return ("ok", f"{kind}, board {data['board']}, "
                f"version {data['version']}", kind)

    def scan(self) -> List[Tuple[pathlib.Path, str, str]]:
        """Classify every on-disk entry as ``(path, status, reason)``."""
        return [(path, *self.classify(path)) for path in self.entries()]

    def clear(self) -> int:
        """Delete every entry (quarantined files included, all shards);
        returns how many were removed.  Shard LRU indexes are dropped
        too so no index survives the entries it described."""
        removed = 0
        for path in self.entries() + self.quarantined():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.directory.is_dir():
            for index in self.directory.glob(f"shard-*/{INDEX_NAME}"):
                try:
                    index.unlink()
                except OSError:
                    pass
        return removed

    def shard_stats(self) -> List[ShardStats]:
        """Per-shard footprint + since-process-start hit/miss traffic."""
        snapshot = obs.REGISTRY.snapshot()

        def count(name: str) -> int:
            row = snapshot.get(name)
            return int(row["value"]) if row else 0

        stats = []
        for shard in range(self.num_shards):
            shard_dir = self.shard_dir(shard)
            entries = [p for p in sorted(shard_dir.glob("*.json"))
                       if not p.name.startswith("_")] \
                if shard_dir.is_dir() else []
            size = 0
            for entry in entries:
                try:
                    size += entry.stat().st_size
                except OSError:
                    pass
            quarantined = len(list(shard_dir.glob("*.corrupt"))) \
                if shard_dir.is_dir() else 0
            label = f"{shard:02x}"
            stats.append(ShardStats(
                name=self.shard_name(shard),
                entries=len(entries),
                bytes=size,
                quarantined=quarantined,
                hits=count(f"perf.store.shard.{label}.hit"),
                misses=count(f"perf.store.shard.{label}.miss"),
            ))
        return stats

    def stats_payload(self) -> Dict[str, Any]:
        """The ``repro cache info --json`` document: everything the
        text table renders, as one JSON-friendly dict (explore/bench
        scripts consume this instead of scraping the table)."""
        entries = []
        quarantined_total = 0
        kinds = {kind: 0 for kind in _CODECS}
        for path in self.entries():
            status, reason, kind = self._inspect(path)
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            if status == "ok":
                kinds[kind] += 1
            entries.append({
                "name": path.name,
                "shard": path.parent.name,
                "kind": kind,
                "bytes": size,
                "status": status,
                "reason": reason,
            })
        shards = []
        for stat in self.shard_stats():
            quarantined_total += stat.quarantined
            shards.append({
                "name": stat.name,
                "entries": stat.entries,
                "bytes": stat.bytes,
                "quarantined": stat.quarantined,
                "hits": stat.hits,
                "misses": stat.misses,
                "hit_rate": stat.hit_rate,
            })
        return {
            "directory": str(self.directory),
            "num_shards": self.num_shards,
            "max_bytes": self.max_bytes,
            "shard_budget": self.shard_budget,
            "entries": entries,
            "total_entries": len(entries),
            "kinds": kinds,
            "total_bytes": sum(e["bytes"] for e in entries),
            "quarantined": quarantined_total,
            "shards": shards,
        }
