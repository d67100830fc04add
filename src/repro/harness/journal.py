"""Write-ahead shard journal: durable checkpoint/resume for corpus sweeps.

The paper's evaluation is a 32,824-shape corpus sweep per schedule
family and per device; :mod:`repro.harness.crosshw` multiplies that by a
registry of GPU presets.  PR 3's self-healing retries shards *within* a
living pool — but a SIGTERM, OOM-kill, ENOSPC, or machine sleep used to
discard the whole sweep.  This module gives every long-running sweep the
durability a training stack gets from checkpointing: kill the process at
any instant, resume, and the merged
:class:`~repro.harness.vectorized.SystemTimings` is **bitwise identical**
to the uninterrupted run.

Design (see ``docs/CHECKPOINTING.md`` for the full contract):

* **WAL** (``wal.bin``) — an append-only sequence of CRC-framed records:
  ``MAGIC | u32 length | u32 crc32(payload) | payload`` with a compact
  JSON payload.  Appends are single writes followed by ``fsync``; a
  record is committed iff its CRC verifies.  Replay stops at the first
  bad frame and **truncates the torn tail** (a crash mid-append leaves
  at most one torn record), counted in ``journal.torn_tail_truncated``.
* **Shard store** (``shards/shard_NNNNN.npz``) — each completed shard's
  :class:`SystemTimings`, written temp + fsync + atomic rename *before*
  the ``shard_done`` record is appended.  The record carries a SHA-256
  **result digest**; on replay every claimed completion is re-read and
  digest-verified, and a mismatch re-runs the shard
  (``journal.digest_mismatch``).
* **Checkpoint** (``checkpoint.json``) — compaction target.  When a
  sweep completes (or :meth:`ShardJournal.compact` is called), the done
  map is written atomically to the checkpoint and the WAL is reset to
  its header, so replay cost is O(open shards), not O(history).
* **Binding** — the WAL header and checkpoint carry the sweep's corpus
  key (:func:`repro.harness.parallel.corpus_fingerprint`: corpus bytes +
  dtype + GPU fingerprint + engine version) and the shard layout.  A
  journal written for a *different* corpus/device/engine is ignored with
  ``journal.fingerprint_mismatch`` and overwritten, never trusted.
* **Degradation** — ``ENOSPC``/``EROFS``/any ``OSError`` during journal
  or shard-store writes flips the journal into a no-op (**journal-less
  in-memory evaluation**) with a loud ``harness.journal.degraded``
  counter, instead of crashing the sweep.

Records (``kind`` field):

=================  ====================================================
``sweep_header``   journal format version, corpus key, shard bounds,
                   dtype and GPU names, creation time
``shard_started``  shard index + shard content fingerprint (forensics)
``shard_done``     shard index, content fingerprint, **result digest**
``shard_abandoned``  shard index + reason (watchdog deadline, etc.);
                   resume re-runs it
``shard_claimed``  shard index + claiming worker identity (lease
                   fabric, :mod:`repro.harness.fabric`); liveness-only
``shard_heartbeat``  shard index, worker identity, renewal sequence
                   number (forensics; replay ignores it)
``shard_reclaimed``  shard index + reclaiming worker: a prior claim's
                   lease expired and the shard is claimable again
=================  ====================================================

Lease records are **liveness metadata, never safety-critical**: replay
derives completion exclusively from digest-carrying ``shard_done``
records, so duplicate claims (``journal.duplicate_claim``), reclaims
without a visible prior claim (``journal.orphan_reclaim``), and lost
heartbeats can never corrupt a merged result.

**Shared mode** (:meth:`ShardJournal.open_shared`) relaxes exactly two
single-process assumptions so multiple worker processes can append to
one WAL: appends go through ``O_APPEND`` (atomic for these small
single-``write`` frames on POSIX filesystems), and replay **never
truncates** a torn tail — with a live concurrent writer, an apparently
torn frame may simply be another worker's append in flight.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import threading
import time
import zlib

import numpy as np

from ..obs.counters import inc_counter
from ..obs.profiler import span
from .vectorized import SystemTimings

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "RESUMABLE_EXIT_STATUS",
    "ShardJournal",
    "default_journal_dir",
    "read_wal_records",
    "read_timings_npz",
    "timings_digest",
    "write_timings_npz",
]

#: Bump whenever the on-disk record framing or payload schema changes;
#: journals from other format versions are ignored, never misparsed.
JOURNAL_FORMAT_VERSION = 1

#: Process exit status for a sweep that drained on SIGINT/SIGTERM with
#: its progress journaled — distinct from success (0) and failure (1),
#: modeled on BSD's ``EX_TEMPFAIL``: re-run with ``--resume``.
RESUMABLE_EXIT_STATUS = 75

_ENV_JOURNAL_DIR = "REPRO_JOURNAL_DIR"

_MAGIC = b"RKJ1"
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_HEADER_LEN = len(_MAGIC) + _FRAME.size
#: Sanity bound on a single record; anything larger is a torn/corrupt
#: length field, not a legitimate payload.
_MAX_RECORD_BYTES = 1 << 20

_WAL_NAME = "wal.bin"
_CHECKPOINT_NAME = "checkpoint.json"
_SHARDS_SUBDIR = "shards"
_INIT_LOCK_NAME = ".init.lock"
#: How long a shared-mode joiner waits for another process to finish
#: initializing the journal before it steals the init lock (the
#: initializer died between taking the lock and writing the header).
_INIT_TIMEOUT_S = 20.0
_INIT_POLL_S = 0.02


def default_journal_dir() -> "str | None":
    """``$REPRO_JOURNAL_DIR`` or ``None`` (journaling is opt-in)."""
    return os.environ.get(_ENV_JOURNAL_DIR) or None


# --------------------------------------------------------------------- #
# Result digests + the shard npz codec                                   #
# --------------------------------------------------------------------- #


def timings_digest(res: SystemTimings) -> str:
    """SHA-256 over every byte of a :class:`SystemTimings`.

    Two results digest equal iff they are bitwise identical — the
    verification key recorded in ``shard_done`` and re-checked on
    replay, so a corrupted or stale shard artifact is re-run rather
    than silently merged.
    """
    h = hashlib.sha256()
    h.update(res.dtype_name.encode("utf-8") + b"\x00")
    h.update(res.gpu_name.encode("utf-8") + b"\x00")
    for name in res.cublas_variant_names:
        h.update(name.encode("utf-8") + b"\x00")
    for arr in (res.shapes, res.streamk, res.singleton, res.cublas, res.oracle):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode("utf-8") + b"\x00")
        h.update(a.tobytes())
    if res.cublas_choice is not None:
        h.update(b"choice\x00")
        h.update(np.ascontiguousarray(res.cublas_choice).tobytes())
    return h.hexdigest()


def write_timings_npz(path: str, res: SystemTimings) -> None:
    """Durably persist one :class:`SystemTimings` (temp + fsync + rename).

    Raises :class:`OSError` on filesystem failure (``ENOSPC``, ``EROFS``,
    ...) — callers decide whether that degrades or propagates.
    """
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".shard_", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                shapes=res.shapes,
                dtype_name=np.str_(res.dtype_name),
                gpu_name=np.str_(res.gpu_name),
                streamk=res.streamk,
                singleton=res.singleton,
                cublas=res.cublas,
                oracle=res.oracle,
                cublas_choice=res.cublas_choice
                if res.cublas_choice is not None
                else np.empty(0, dtype=np.int64),
                variant_names=np.asarray(res.cublas_variant_names),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)  # atomic publish
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_timings_npz(path: str) -> "SystemTimings | None":
    """Load a persisted :class:`SystemTimings`, ``None`` if missing/unreadable."""
    if not os.path.exists(path):
        return None
    try:
        # Opened here, not by np.load, so a truncated zip cannot leak it.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as doc:
            shapes = doc["shapes"]
            choice = doc["cublas_choice"]
            if choice.shape[0] != shapes.shape[0]:
                choice = None
            return SystemTimings(
                shapes=shapes,
                dtype_name=str(doc["dtype_name"]),
                gpu_name=str(doc["gpu_name"]),
                streamk=doc["streamk"],
                singleton=doc["singleton"],
                cublas=doc["cublas"],
                oracle=doc["oracle"],
                cublas_choice=choice,
                cublas_variant_names=[str(v) for v in doc["variant_names"]],
            )
    except Exception:
        return None  # treated as a digest mismatch by the caller


# --------------------------------------------------------------------- #
# WAL framing                                                            #
# --------------------------------------------------------------------- #


def _frame_record(obj: dict) -> bytes:
    payload = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    return _MAGIC + _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def read_wal_records(path: str) -> "tuple[list[dict], int, bool]":
    """Replay a WAL file: ``(records, good_bytes, torn_tail)``.

    Reads frames until EOF or the first bad frame (short header, wrong
    magic, impossible length, CRC mismatch, unparsable payload).
    ``good_bytes`` is the offset of the last fully-committed record —
    truncating the file there removes the torn tail without touching any
    committed record.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return [], 0, False
    records: "list[dict]" = []
    off, n = 0, len(data)
    while off < n:
        if n - off < _HEADER_LEN or data[off : off + len(_MAGIC)] != _MAGIC:
            return records, off, True
        length, crc = _FRAME.unpack_from(data, off + len(_MAGIC))
        if length > _MAX_RECORD_BYTES or n - off - _HEADER_LEN < length:
            return records, off, True
        payload = data[off + _HEADER_LEN : off + _HEADER_LEN + length]
        if zlib.crc32(payload) != crc:
            return records, off, True
        try:
            obj = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return records, off, True
        if not isinstance(obj, dict):
            return records, off, True
        records.append(obj)
        off += _HEADER_LEN + length
    return records, off, False


# --------------------------------------------------------------------- #
# The journal                                                            #
# --------------------------------------------------------------------- #


class ShardJournal:
    """One sweep's durable shard ledger (WAL + shard store + checkpoint).

    Construct via :meth:`open`.  After opening, ``self.bounds`` is the
    authoritative shard layout (adopted from a resumed journal's header
    so resume never depends on the caller re-deriving identical shard
    sizes) and ``self.completed`` maps shard index -> result digest for
    every durably-committed shard.
    """

    def __init__(self, directory: str, corpus_key: str):
        self.directory = directory
        self.corpus_key = corpus_key
        self.bounds: "list[tuple[int, int]]" = []
        self.completed: "dict[int, str]" = {}
        #: shard index -> worker identity for the last unreclaimed
        #: ``shard_claimed`` seen during replay (forensics only; claim
        #: *liveness* is carried by lease files, not the WAL).
        self.claims: "dict[int, str]" = {}
        self.degraded = False
        self.shared = False
        self._fh = None
        # The lease fabric's heartbeat thread and the worker thread
        # append through the same handle.
        self._append_lock = threading.Lock()

    # -- paths --------------------------------------------------------- #

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, _WAL_NAME)

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, _CHECKPOINT_NAME)

    def shard_path(self, shard: int) -> str:
        return os.path.join(
            self.directory, _SHARDS_SUBDIR, "shard_%05d.npz" % shard
        )

    # -- lifecycle ----------------------------------------------------- #

    @classmethod
    def open(
        cls,
        directory: str,
        corpus_key: str,
        bounds: "list[tuple[int, int]]",
        resume: bool = False,
        dtype_name: str = "",
        gpu_name: str = "",
    ) -> "ShardJournal":
        """Open (and on ``resume=True`` replay) a journal directory.

        A journal whose header/checkpoint was written for a different
        corpus key is **ignored** (``journal.fingerprint_mismatch``) and
        re-initialized; without ``resume`` any existing journal is
        re-initialized unconditionally.  Filesystem failure at open time
        yields a *degraded* journal: every operation is a no-op and the
        sweep proceeds journal-less (``harness.journal.degraded``).
        """
        self = cls(directory, corpus_key)
        self.bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        try:
            os.makedirs(
                os.path.join(directory, _SHARDS_SUBDIR), exist_ok=True
            )
        except OSError:
            self._degrade()
            return self
        matched = False
        if resume:
            with span("journal_replay"):
                matched = self._replay()
        try:
            if matched:
                self._fh = open(self.wal_path, "ab")
            else:
                self._initialize_fresh(dtype_name, gpu_name)
        except OSError:
            self._degrade()
        return self

    @classmethod
    def open_shared(
        cls,
        directory: str,
        corpus_key: str,
        bounds: "list[tuple[int, int]]",
        dtype_name: str = "",
        gpu_name: str = "",
        init_timeout_s: float = _INIT_TIMEOUT_S,
    ) -> "ShardJournal":
        """Open a journal that multiple worker processes append to.

        The first worker to arrive initializes the journal (guarded by
        an ``O_EXCL`` init-lock file so two concurrent fresh joiners
        cannot both truncate the WAL); every later worker *attaches*,
        adopting the existing header's shard bounds and absorbing
        already-committed shards.  A matching journal is always resumed
        — shared sweeps are cooperative by definition.  If the lock
        holder dies before writing the header, joiners steal the lock
        after ``init_timeout_s`` (``journal.init_lock_stolen``).

        Shared journals append via ``O_APPEND`` and never truncate torn
        tails (see the module docstring).  Filesystem failure degrades
        to a no-op journal exactly like :meth:`open`.
        """
        self = cls(directory, corpus_key)
        self.shared = True
        self.bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        try:
            os.makedirs(
                os.path.join(directory, _SHARDS_SUBDIR), exist_ok=True
            )
        except OSError:
            self._degrade()
            return self
        lock_path = os.path.join(directory, _INIT_LOCK_NAME)
        deadline = time.monotonic() + init_timeout_s
        while True:
            with span("journal_replay"):
                matched = self._replay()
            if matched:
                try:
                    self._fh = open(self.wal_path, "ab")
                except OSError:
                    self._degrade()
                return self
            try:
                fd = os.open(
                    lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                # Another process is initializing: wait for its header.
                if time.monotonic() > deadline:
                    inc_counter("journal.init_lock_stolen")
                    try:
                        os.unlink(lock_path)
                    except OSError:
                        pass
                    deadline = time.monotonic() + init_timeout_s
                else:
                    time.sleep(_INIT_POLL_S)
                continue
            except OSError:
                self._degrade()
                return self
            try:
                os.close(fd)
                # Re-check under the lock: the initializer may have
                # finished between our replay and the lock grab.
                if self._replay():
                    self._fh = open(self.wal_path, "ab")
                else:
                    self._initialize_fresh(dtype_name, gpu_name)
                    if not self.degraded:
                        # A "wb" handle's position would not track the
                        # other workers' O_APPEND writes: reopen so
                        # every append lands at the true end of file.
                        self.close()
                        self._fh = open(self.wal_path, "ab")
            except OSError:
                self._degrade()
            finally:
                try:
                    os.unlink(lock_path)
                except OSError:
                    pass
            return self

    def _initialize_fresh(self, dtype_name: str, gpu_name: str) -> None:
        """Reset the directory to a new sweep: header-only WAL, no state."""
        self.completed = {}
        try:
            os.unlink(self.checkpoint_path)
        except OSError:
            pass
        self._fh = open(self.wal_path, "wb")
        self._append(
            {
                "kind": "sweep_header",
                "v": JOURNAL_FORMAT_VERSION,
                "corpus": self.corpus_key,
                "bounds": [[lo, hi] for lo, hi in self.bounds],
                "dtype": dtype_name,
                "gpu": gpu_name,
                "t": time.time(),
            }
        )

    def _replay(self) -> bool:
        """Load checkpoint + WAL; returns True iff the journal matches.

        On a match, adopts the journal's shard bounds (counted in
        ``journal.bounds_adopted`` when they differ from what the
        caller requested, so resumed multi-worker runs are observable)
        and fills ``self.completed``; counts replayed records,
        torn-tail truncations, duplicate completions/claims, orphan
        reclaims, and fingerprint mismatches.

        In shared mode the torn tail is **not** truncated: what looks
        torn may be a live concurrent writer's append in flight, and
        truncating would destroy its committed record.
        """
        requested = list(self.bounds)
        completed: "dict[int, str]" = {}
        claims: "dict[int, str]" = {}
        adopted: "list[tuple[int, int]] | None" = None
        ck = self._load_checkpoint()
        if ck is not None:
            adopted = ck["bounds"]
            completed.update(ck["done"])
        records, good, torn = read_wal_records(self.wal_path)
        if torn and not self.shared:
            inc_counter("journal.torn_tail_truncated")
            try:
                with open(self.wal_path, "rb+") as fh:
                    fh.truncate(good)
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError:
                pass  # unwritable tail: replay already ignores it
        header = records[0] if records else None
        if header is not None and header.get("kind") == "sweep_header":
            if (
                header.get("corpus") != self.corpus_key
                or header.get("v") != JOURNAL_FORMAT_VERSION
            ):
                inc_counter("journal.fingerprint_mismatch")
                return False
            adopted = [
                (int(lo), int(hi)) for lo, hi in header.get("bounds", [])
            ]
            for rec in records[1:]:
                kind = rec.get("kind")
                shard = int(rec.get("shard", -1))
                if kind == "shard_done":
                    if shard in completed:
                        inc_counter("journal.duplicate_done")
                    completed[shard] = str(rec.get("digest", ""))
                elif kind == "shard_claimed":
                    # Deterministic resolution: the first journaled
                    # claim wins; later duplicates are counted and
                    # ignored (safety never depends on this map).
                    if shard in claims:
                        inc_counter("journal.duplicate_claim")
                    else:
                        claims[shard] = str(rec.get("worker", ""))
                elif kind == "shard_reclaimed":
                    if shard not in claims:
                        inc_counter("journal.orphan_reclaim")
                    else:
                        claims.pop(shard, None)
            inc_counter("journal.replayed", len(records))
        elif header is not None:
            # First record is not a header: not our journal.
            inc_counter("journal.fingerprint_mismatch")
            return False
        elif ck is None:
            return False  # empty/absent WAL and no checkpoint: fresh sweep
        if not adopted:
            return False
        if requested and adopted != requested:
            inc_counter("journal.bounds_adopted")
        self.bounds = adopted
        nshards = len(self.bounds)
        self.completed = {
            s: d for s, d in completed.items() if 0 <= s < nshards and d
        }
        self.claims = {
            s: w for s, w in claims.items()
            if 0 <= s < nshards and s not in self.completed
        }
        return True

    def _load_checkpoint(self) -> "dict | None":
        try:
            with open(self.checkpoint_path) as fh:
                doc = json.load(fh)
            if (
                doc["version"] != JOURNAL_FORMAT_VERSION
                or doc["corpus"] != self.corpus_key
            ):
                if doc.get("corpus") != self.corpus_key:
                    inc_counter("journal.fingerprint_mismatch")
                return None
            return {
                "bounds": [(int(lo), int(hi)) for lo, hi in doc["bounds"]],
                "done": {
                    int(k): str(v) for k, v in doc["done"].items()
                },
            }
        except OSError:
            return None  # plain absence
        except (ValueError, KeyError, TypeError):
            inc_counter("journal.checkpoint_corrupt")
            return None

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def _degrade(self) -> None:
        """Flip into no-op mode: the sweep continues journal-less."""
        if not self.degraded:
            self.degraded = True
            inc_counter("harness.journal.degraded")
        self.close()

    # -- appends ------------------------------------------------------- #

    def _append(self, obj: dict) -> None:
        """fsync'd atomic-enough append: torn writes are CRC-detected.

        Serialized under a lock: the lease fabric's heartbeat thread
        appends concurrently with the worker thread, and interleaved
        buffered writes would tear both frames.  Cross-*process*
        atomicity in shared mode comes from ``O_APPEND`` plus each
        frame being a single ``write`` call.
        """
        if self.degraded or self._fh is None:
            return
        with self._append_lock:
            if self.degraded or self._fh is None:
                return
            try:
                self._fh.write(_frame_record(obj))
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError:
                self._degrade()

    def record_started(self, shard: int, fingerprint: str = "") -> None:
        self._append(
            {"kind": "shard_started", "shard": int(shard), "fp": fingerprint}
        )

    def record_done(
        self, shard: int, res: SystemTimings, fingerprint: str = ""
    ) -> "str | None":
        """Transactionally commit one shard: store the npz, then the record.

        The result artifact is durably published *before* the
        ``shard_done`` record is appended, so a committed record always
        points at a complete artifact (crash between the two leaves an
        orphan npz that replay simply re-verifies).  Returns the digest,
        or ``None`` when the journal is (or just became) degraded.
        """
        if self.degraded:
            return None
        digest = timings_digest(res)
        try:
            write_timings_npz(self.shard_path(shard), res)
        except OSError:
            self._degrade()
            return None
        self._append(
            {
                "kind": "shard_done",
                "shard": int(shard),
                "fp": fingerprint,
                "digest": digest,
            }
        )
        if self.degraded:
            return None
        self.completed[int(shard)] = digest
        return digest

    def record_abandoned(self, shard: int, reason: str) -> None:
        """Mark a hung/timed-out shard; resume will re-run it."""
        inc_counter("journal.abandoned_shards")
        self._append(
            {"kind": "shard_abandoned", "shard": int(shard), "reason": reason}
        )

    def record_claimed(self, shard: int, worker: str) -> None:
        """Journal a lease claim (forensics; liveness lives in the lease
        file, see :class:`repro.harness.fabric.LeaseManager`)."""
        self._append(
            {"kind": "shard_claimed", "shard": int(shard), "worker": worker}
        )

    def record_heartbeat(self, shard: int, worker: str, seq: int) -> None:
        """Journal a heartbeat renewal (forensics; replay ignores it)."""
        self._append(
            {
                "kind": "shard_heartbeat",
                "shard": int(shard),
                "worker": worker,
                "seq": int(seq),
            }
        )

    def record_reclaimed(self, shard: int, worker: str) -> None:
        """Journal that ``worker`` reclaimed an expired lease on ``shard``."""
        self._append(
            {"kind": "shard_reclaimed", "shard": int(shard), "worker": worker}
        )

    # -- replayed-state access ----------------------------------------- #

    def refresh_completed(self) -> "dict[int, str]":
        """Re-read the WAL to absorb *other* workers' durable commits.

        Shared-mode workers call this between claims so they never
        re-evaluate a shard a peer already committed.  Read-only (no
        truncation, no state reset beyond merging in new completions);
        returns a snapshot of the completion map.  Read failure is
        treated as "nothing new" — the degradation ladder, not an abort.
        """
        if self.degraded:
            return dict(self.completed)
        records, _, _ = read_wal_records(self.wal_path)
        nshards = len(self.bounds)
        for rec in records:
            if rec.get("kind") != "shard_done":
                continue
            shard = int(rec.get("shard", -1))
            digest = str(rec.get("digest", ""))
            if 0 <= shard < nshards and digest:
                self.completed[shard] = digest
        return dict(self.completed)

    def load_completed(self, shard: int) -> "SystemTimings | None":
        """Digest-verified load of a replayed completion.

        Returns ``None`` (and forgets the completion, counting
        ``journal.digest_mismatch``) when the artifact is missing,
        unreadable, or does not hash to the journaled digest — the shard
        is then re-run, preserving bitwise-exact resume semantics.
        """
        digest = self.completed.get(int(shard))
        if not digest:
            return None
        res = read_timings_npz(self.shard_path(shard))
        if res is None or timings_digest(res) != digest:
            inc_counter("journal.digest_mismatch")
            self.completed.pop(int(shard), None)
            return None
        return res

    # -- compaction ---------------------------------------------------- #

    def compact(self) -> None:
        """Checkpoint the done map and reset the WAL to its header.

        After compaction, replay cost is O(open shards): the checkpoint
        is one JSON document and the WAL holds a single header record.
        Best-effort — filesystem failure degrades instead of raising.
        """
        if self.degraded:
            return
        doc = {
            "version": JOURNAL_FORMAT_VERSION,
            "corpus": self.corpus_key,
            "bounds": [[lo, hi] for lo, hi in self.bounds],
            "done": {str(s): d for s, d in sorted(self.completed.items())},
        }
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".ckpt_", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(doc, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.checkpoint_path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            # The checkpoint now carries every completion: rewrite the
            # WAL as header-only so replay never re-reads history.
            self.close()
            self._fh = open(self.wal_path, "wb")
            self._append(
                {
                    "kind": "sweep_header",
                    "v": JOURNAL_FORMAT_VERSION,
                    "corpus": self.corpus_key,
                    "bounds": [[lo, hi] for lo, hi in self.bounds],
                    "t": time.time(),
                }
            )
            inc_counter("journal.compacted")
        except OSError:
            self._degrade()
