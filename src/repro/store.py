"""The one store primitive: keyed JSON records, blob sidecars, quarantine.

Every on-disk store in the package is a :class:`RecordStore`: campaign
cells (:class:`repro.campaign.CampaignStore`), the capture catalog
(:class:`repro.corpus.CorpusIndex`) and stored per-capture reports
(:class:`repro.corpus.AnalysisStore`).  This module alone decides how a
keyed record is laid out, written, read and quarantined:

* **Layout.**  One small JSON file per record at
  ``root/<key[:2]>/<key><suffix>``; the two-character fan-out keeps
  directories small in huge stores.  Writes stamp :data:`FORMAT`.
* **Atomic writes.**  :func:`write_atomic` writes a temp sibling and
  ``os.replace``-s it into place, so a crash never leaves a half-written
  record that a later run would trust.
* **Quarantine.**  A record that exists but cannot be read — bad bytes,
  non-UTF-8, not JSON, not a JSON object, or a ``kind`` the store does
  not hold — is never silently trusted *or* silently overwritten: it is
  renamed ``<name>.corrupt`` (evidence kept for diagnosis), counted in
  :attr:`RecordStore.quarantined`, and read as a miss, so the work is
  recomputed.  Directory walks quarantine the same way.
* **Blob sidecars.**  Objects too rich for JSON (reports) are pickled
  into ``<key>.report.pkl.gz``, gzipped at level 6 with ``mtime=0`` and
  no member name so identical objects compress to identical bytes.  A
  blob that fails to load is a plain miss; the JSON record is the
  commit point.
* **Keys.**  :func:`canonical` reduces declared data — primitives,
  numpy values, sequences, mappings, dataclasses — to JSON and refuses
  anything else, :func:`canonical_key` hashes the result, and
  :func:`code_version_salt` hashes the package source, so results keyed
  with the salt never outlive the code that produced them.

Stdlib only: numpy values are recognised through ``sys.modules``, since
only an imported numpy can have produced them.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import os
import pickle
import sys
import tempfile
from dataclasses import fields as dataclass_fields, is_dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = [
    "BLOB_SUFFIX",
    "FORMAT",
    "RECORD_SUFFIX",
    "RecordStore",
    "canonical",
    "canonical_key",
    "code_version_salt",
    "write_atomic",
]

#: On-disk record layout version, stamped into every record written.
FORMAT = 1

RECORD_SUFFIX = ".json"
BLOB_SUFFIX = ".report.pkl.gz"

#: Environment override for the code-version salt (keeps stores warm
#: across code changes known to be behaviour-preserving).
_SALT_ENV = "REPRO_CAMPAIGN_SALT"


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp sibling and ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class RecordStore:
    """JSON records keyed by content hash under one root directory.

    ``kinds`` names the record ``kind`` values this store holds; any
    other record is damage and is quarantined on read.
    """

    def __init__(self, root: str | os.PathLike, kinds: Iterable[str]) -> None:
        self.root = Path(root)
        self.kinds = tuple(kinds)  # compared by ==: a damaged kind may be unhashable
        #: Unreadable records renamed ``<name>.corrupt`` by this instance.
        self.quarantined = 0

    def path(self, key: str, suffix: str = RECORD_SUFFIX) -> Path:
        return self.root / key[:2] / f"{key}{suffix}"

    def read(self, path: Path) -> dict | None:
        """The record at ``path``; ``None`` if missing or quarantined."""
        try:
            with open(path, "rb") as handle:
                record = json.loads(handle.read())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):  # ValueError: bad JSON or non-UTF-8
            record = None
        if isinstance(record, dict) and record.get("kind") in self.kinds:
            return record
        self.quarantine(path)
        return None

    def get(self, key: str, suffix: str = RECORD_SUFFIX) -> dict | None:
        return self.read(self.path(key, suffix))

    def put(self, key: str, record: Mapping, suffix: str = RECORD_SUFFIX) -> Path:
        """Write ``record`` atomically under ``key``, stamped with the format."""
        path = self.path(key, suffix)
        text = json.dumps({**record, "format": FORMAT}, indent=1, sort_keys=True)
        write_atomic(path, text.encode())
        return path

    def walk(self) -> Iterator[tuple[Path, dict]]:
        """Every readable record, in path order; damage is quarantined."""
        for path in sorted(self.root.glob(f"*/*{RECORD_SUFFIX}")):
            record = self.read(path)
            if record is not None:
                yield path, record

    def quarantine(self, path: Path) -> None:
        """Rename ``path`` to ``<name>.corrupt`` and count it."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            # Unreadable *and* unrenamable (e.g. permissions): nothing
            # more can be done; the work still recomputes as a miss.
            return
        self.quarantined += 1

    def put_blob(self, key: str, value: object) -> None:
        """Pickle ``value`` into the key's gzip sidecar, atomically."""
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(
            self.path(key, BLOB_SUFFIX),
            gzip.compress(data, compresslevel=6, mtime=0),
        )

    def get_blob(self, key: str) -> object | None:
        """The key's sidecar object, or ``None`` if missing or unloadable.

        Damaged pickle bytes fail in many ways (a bad opcode, a mangled
        module or attribute name, a huge length, a bad string), so any
        exception while reading, decompressing or unpickling is a miss.
        That keeps a damaged sidecar from ending a run; it does not make
        unpickling a hostile file safe.
        """
        try:
            with open(self.path(key, BLOB_SUFFIX), "rb") as handle:
                return pickle.loads(gzip.decompress(handle.read()))
        except Exception:
            return None

    def discard(
        self, key: str, suffixes: Iterable[str] = (RECORD_SUFFIX, BLOB_SUFFIX)
    ) -> bool:
        """Remove the key's files with ``suffixes``; True if any existed."""
        removed = False
        for suffix in suffixes:
            try:
                self.path(key, suffix).unlink()
                removed = True
            except OSError:
                pass
        return removed


# -- keys --------------------------------------------------------------------


@functools.cache
def _source_digest() -> str:
    package_dir = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_version_salt() -> str:
    """Hash of the installed ``repro`` package source (cached).

    Any change to any ``src/repro/**.py`` file yields a new salt, so a
    store never serves results computed by different code.  The
    ``REPRO_CAMPAIGN_SALT`` environment variable pins it.
    """
    return os.environ.get(_SALT_ENV) or _source_digest()


def canonical(value):
    """Reduce ``value`` to a deterministic JSON-able structure.

    A key ingredient is declared data: ``None``, bools, ints, floats,
    strings, numpy scalars and arrays, lists and tuples, mappings
    (sorted by key) and dataclass instances (by class and fields).
    Anything else — a function, a lambda, a plain object — raises
    :class:`TypeError` naming it: its behaviour is code, which a key
    cannot see, so two of them could share a key and trade results.
    A sampler or schedule that derives tables or memoises draws keeps
    them beside its fields, where they never reach the key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, numpy.generic):
        return value.item()
    if numpy is not None and isinstance(value, numpy.ndarray):
        return {
            "__ndarray__": hashlib.sha256(value.tobytes()).hexdigest(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {
            "__map__": [
                [str(k), canonical(v)]
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
            ]
        }
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in dataclass_fields(value)
            },
        }
    # Named without its address, so the message (a cell's config_error)
    # reads the same in every process.
    what = getattr(value, "__qualname__", None) or f"{type(value).__qualname__} object"
    raise TypeError(
        f"cannot key {what}: store keys hold only declared data "
        "(primitives, numpy values, sequences, mappings, dataclasses)"
    )


def canonical_key(payload: Mapping) -> str:
    """SHA-256 hex digest of ``payload`` as sorted, compact JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
