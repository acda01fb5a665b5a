"""On-disk result store: atomic, content-hash-keyed point records.

Layout under one campaign root::

    <root>/
      spec.json            # the spec that last ran here (audit)
      points/<key>.json    # one atomic record per completed point
      dataset_hashes.json  # digest format + axis-param hash -> content hash memo
      failures.jsonl       # append-only log of failed/timed-out attempts

Records are written with ``tmp + os.replace`` so a killed run can never
leave a half-written point behind: a key either resolves to a complete
record or to nothing, which is exactly the property ``--resume`` leans
on.  Record files are serialised with sorted keys and a fixed indent,
so two runs that compute the same result write byte-identical files.

The dataset-hash memo exists because point keys embed the *realized*
dataset content hash (see :mod:`repro.campaign.spec`): computing a key
requires generating the dataset once.  The memo caches
``axis params -> content hash`` so `status` and re-runs skip
regeneration; executors re-derive the hash from the data they actually
built and refuse to store a record under a contradicting key.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from ..exceptions import CampaignError
from .spec import DatasetAxis, canonical_json

RECORD_SCHEMA = 1


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to ``path`` atomically (tmp + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


class ResultStore:
    """Directory-backed store of completed campaign points."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.points_dir = self.root / "points"
        self._dataset_memo_path = self.root / "dataset_hashes.json"
        self._failures_path = self.root / "failures.jsonl"
        self._dataset_memo: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    def point_path(self, key: str) -> Path:
        return self.points_dir / f"{key}.json"

    def has(self, key: str) -> bool:
        return self.point_path(key).is_file()

    def get(self, key: str) -> Dict[str, Any]:
        path = self.point_path(key)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CampaignError(f"cannot read point record {path}: {exc}") from exc
        if record.get("key") != key:
            raise CampaignError(
                f"point record {path} claims key {record.get('key')!r}"
            )
        return record

    def put(self, record: Dict[str, Any]) -> Path:
        """Persist one completed point atomically.

        The record must carry its own ``key``; an existing record under
        the same key is replaced wholesale (same-key records are
        interchangeable by construction).
        """
        key = record.get("key")
        if not key:
            raise CampaignError("point record has no key")
        path = self.point_path(key)
        _atomic_write_json(path, record)
        return path

    def keys(self) -> List[str]:
        if not self.points_dir.is_dir():
            return []
        return sorted(p.stem for p in self.points_dir.glob("*.json"))

    def records(self) -> Iterator[Dict[str, Any]]:
        for key in self.keys():
            yield self.get(key)

    def clean(self) -> int:
        """Drop every stored point, memo and failure log; return #points."""
        dropped = 0
        if self.points_dir.is_dir():
            for path in self.points_dir.glob("*.json"):
                path.unlink()
                dropped += 1
        for path in (self._dataset_memo_path, self._failures_path,
                     self.root / "spec.json"):
            if path.is_file():
                path.unlink()
        self._dataset_memo = None
        return dropped

    # ------------------------------------------------------------------
    def save_spec(self, spec_dict: Dict[str, Any]) -> None:
        _atomic_write_json(self.root / "spec.json", spec_dict)

    def log_failure(self, key: str, grid: str, reason: str) -> None:
        """Append one failed/timed-out attempt (best-effort)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self._failures_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "key": key,
                    "grid": grid,
                    "reason": reason,
                    "at": time.time(),
                }) + "\n")
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Dataset content-hash memo
    # ------------------------------------------------------------------
    @staticmethod
    def axis_param_hash(axis: DatasetAxis) -> str:
        """Hash of the axis *parameters* (the memo's lookup key)."""
        payload = canonical_json(axis.as_dict())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    def _load_memo(self) -> Dict[str, str]:
        if self._dataset_memo is None:
            try:
                self._dataset_memo = json.loads(
                    self._dataset_memo_path.read_text()
                )
            except (OSError, ValueError):
                self._dataset_memo = {}
        return self._dataset_memo

    def dataset_hash(self, axis: DatasetAxis) -> str:
        """The realized content hash for an axis, memoized on disk.

        First request per distinct axis generates the dataset (cached in
        process by :mod:`repro.bench.datasets`) and records its
        :func:`~repro.service.dataset_content_hash`; later requests —
        including from later runs — read the memo.  The memo is an
        optimisation only: executors always re-derive the hash from the
        data they built, so a stale memo entry surfaces as a loud
        key-contradiction failure rather than a silently wrong reuse.
        Entries are keyed by the digest format too, so a store written
        under an earlier format never reads them and re-runs its points
        once.
        """
        from ..service.snapshot import DIGEST_FORMAT, dataset_content_hash

        memo = self._load_memo()
        param_key = f"{DIGEST_FORMAT}:{self.axis_param_hash(axis)}"
        cached = memo.get(param_key)
        if cached is not None:
            return cached

        content = dataset_content_hash(axis.build())
        memo[param_key] = content
        _atomic_write_json(self._dataset_memo_path, memo)
        return content
