"""Persistent tile store — autotuned tiles as a deployment artifact.

The paper's deployment story (Section III-B, Fig. 8) tunes tiles *offline*
and reuses them at inference.  :class:`TileStore` gives those tiles a
durable home: a JSON file keyed by (layer geometry, device name, backend,
tuner version), so a warm engine start binds every tile without a single
tuner objective evaluation, and tile sets can be exported/imported between
machines like any other model artifact.

Robustness rules:

* **Atomic writes** — the file is replaced via a same-directory temp file,
  never written in place, so a crash mid-save cannot corrupt the store.
* **Corrupt files** are quarantined (renamed to ``<path>.corrupt``) and the
  store starts empty rather than failing the engine.
* **Stale entries** — records written by a different ``TUNER_VERSION`` or
  file format are preserved on disk but never served, so bumping the tuner
  invalidates old tiles without deleting anybody's data.

Observability: a store counts ``tile_store_lookups{result=hit|miss}``,
``tile_store_saves`` and the per-window lookup rate
``tile_store_lookup_events`` only on the
:class:`~repro.obs.registry.MetricsRegistry` it is built with (a private
one when none is passed); the engines and tuners reading it never re-bind
it.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.autotune.bayesopt import TuneResult
from repro.kernels.config import LayerConfig
from repro.obs.registry import MetricsRegistry

logger = logging.getLogger(__name__)

#: Bump when the tuner's objective or search space changes meaning —
#: entries from older versions are ignored (stale) but kept on disk.
TUNER_VERSION = 1

#: Store file format version (the envelope, not the tuner).
FORMAT_VERSION = 1


def geometry_key(cfg: LayerConfig) -> str:
    """Canonical string form of every geometry field the tile depends on.

    Batch is excluded for the same reason it is absent from
    :func:`repro.kernels.tiling.tile_key`: tiles partition the output plane;
    batch only scales the grid.
    """
    return (f"c{cfg.in_channels}x{cfg.out_channels}"
            f"_h{cfg.height}w{cfg.width}"
            f"_k{cfg.kernel_size}s{cfg.stride}p{cfg.padding}d{cfg.dilation}"
            f"_g{cfg.deformable_groups}")


def entry_key(cfg: LayerConfig, device: str, backend: str,
              tuner_version: int = TUNER_VERSION) -> str:
    """The flat JSON key one tuned tile lives under."""
    return f"{device}|{backend}|v{tuner_version}|{geometry_key(cfg)}"


class TileStore:
    """Disk-backed map from (geometry, device, backend, version) to tiles.

    ``path=None`` gives an in-memory store with the same interface (useful
    for tests and for engines that want sharing without persistence).
    ``registry`` is where its lookups and saves count (see above).
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 tuner_version: int = TUNER_VERSION,
                 registry: Optional[MetricsRegistry] = None):
        self.path = Path(path) if path is not None else None
        self.tuner_version = tuner_version
        #: raw JSON payloads, including stale-version entries (kept, unserved)
        self._entries: Dict[str, dict] = {}
        registry = registry if registry is not None else MetricsRegistry()
        self._lookups = registry.counter(
            "tile_store_lookups",
            help="persistent tile-store lookups by result")
        self._saves = registry.counter(
            "tile_store_saves", help="persistent tile-store writes")
        self._lookup_window = registry.windowed_histogram(
            "tile_store_lookup_events",
            help="tile-store lookups per wall-clock window by result "
                 "(per-window count == lookup rate)")
        if self.path is not None:
            self.load()

    def _count_lookup(self, result: str) -> None:
        self._lookups.inc(result=result)
        self._lookup_window.observe(1.0, result=result)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def load(self) -> int:
        """(Re)load from disk; returns the number of entries now held."""
        self._entries = {}
        if self.path is None or not self.path.exists():
            return 0
        try:
            payload = json.loads(self.path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("store root must be a JSON object")
            version = payload.get("format_version")
            entries = payload.get("entries", {})
            if not isinstance(entries, dict):
                raise ValueError("'entries' must be a JSON object")
            if version != FORMAT_VERSION:
                logger.warning("tile store %s has format_version %r "
                               "(expected %d); ignoring its entries",
                               self.path, version, FORMAT_VERSION)
                return 0
            self._entries = {str(k): v for k, v in entries.items()
                             if self._valid_entry(v)}
        except (ValueError, OSError) as exc:
            quarantine = self.path.with_suffix(self.path.suffix + ".corrupt")
            logger.warning("tile store %s is unreadable (%s); starting "
                           "empty and quarantining the old file to %s",
                           self.path, exc, quarantine)
            try:
                os.replace(self.path, quarantine)
            except OSError:
                pass
        return len(self._entries)

    @staticmethod
    def _valid_entry(value: object) -> bool:
        if not isinstance(value, dict):
            return False
        tile = value.get("tile")
        return (isinstance(tile, list) and len(tile) == 2
                and all(isinstance(t, int) and t > 0 for t in tile))

    def save(self) -> None:
        """Atomically rewrite the backing file (no-op for memory stores)."""
        if self.path is None:
            return
        payload = {"format_version": FORMAT_VERSION,
                   "entries": self._entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                   prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # lookup / update
    # ------------------------------------------------------------------
    def get(self, cfg: LayerConfig, device: str,
            backend: str) -> Optional[TuneResult]:
        """The stored tuning result for this geometry, or None."""
        raw = self._entries.get(entry_key(cfg, device, backend,
                                          self.tuner_version))
        if raw is None:
            self._count_lookup("miss")
            return None
        try:
            result = TuneResult.from_dict(raw["result"]
                                          if "result" in raw
                                          else {"best_point": raw["tile"],
                                                "best_value": raw.get(
                                                    "best_ms", 0.0)})
        except (KeyError, TypeError, ValueError):
            logger.warning("tile store entry for %s/%s/%s is malformed; "
                           "treating as a miss",
                           geometry_key(cfg), device, backend)
            self._count_lookup("miss")
            return None
        self._count_lookup("hit")
        return result

    def get_tile(self, cfg: LayerConfig, device: str,
                 backend: str) -> Optional[Tuple[int, int]]:
        result = self.get(cfg, device, backend)
        return tuple(result.best_point) if result is not None else None

    def put(self, cfg: LayerConfig, device: str, backend: str,
            result: TuneResult) -> None:
        """Record one tuning outcome and persist immediately."""
        self._entries[entry_key(cfg, device, backend, self.tuner_version)] = {
            "geometry": geometry_key(cfg),
            "device": device,
            "backend": backend,
            "tuner_version": self.tuner_version,
            "tile": [int(v) for v in result.best_point],
            "best_ms": float(result.best_value),
            "evaluations": result.evaluations,
            "result": result.to_dict(),
        }
        self._saves.inc()
        self.save()

    # ------------------------------------------------------------------
    # bulk operations (CLI export/import)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[str]:
        return sorted(self._entries)

    def rows(self) -> List[dict]:
        """Flat per-entry dicts for tabular display."""
        out = []
        for key in self.keys():
            e = self._entries[key]
            out.append({"key": key,
                        "geometry": e.get("geometry", "?"),
                        "device": e.get("device", "?"),
                        "backend": e.get("backend", "?"),
                        "tuner_version": e.get("tuner_version", "?"),
                        "tile": tuple(e.get("tile", ())),
                        "best_ms": e.get("best_ms"),
                        "evaluations": e.get("evaluations")})
        return out

    def export_payload(self) -> dict:
        """The portable JSON object ``tiles export`` writes."""
        return {"format_version": FORMAT_VERSION,
                "entries": dict(self._entries)}

    def merge(self, payload: dict, overwrite: bool = False) -> int:
        """Import entries from another store's exported payload.

        Returns the number of entries added (or replaced).  Entries with an
        unknown format version or malformed tiles are skipped.
        """
        if payload.get("format_version") != FORMAT_VERSION:
            logger.warning("refusing to merge tile payload with "
                           "format_version %r", payload.get("format_version"))
            return 0
        added = 0
        for key, value in payload.get("entries", {}).items():
            if not self._valid_entry(value):
                continue
            if key in self._entries and not overwrite:
                continue
            self._entries[str(key)] = value
            added += 1
        if added:
            self.save()
        return added
