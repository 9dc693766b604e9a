"""On-device latency lookup table ``t(w_n)`` (paper Eq. 6).

The paper collects per-layer latencies on the target GPU for every
candidate configuration (trivial because DCNs only ever replace certain
3×3 conv2d layers) and uses the table inside the differentiable latency
penalty.  Here "on-device" measurement is a run of the GPU simulator; the
table records, per layer shape, the latency of the regular conv and of the
deformable operator on the chosen backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.gpusim.device import DeviceSpec
from repro.kernels.config import LayerConfig, synth_offsets
from repro.kernels.dispatch import run_deform_op
from repro.kernels.reference import conv_ms


@dataclass(frozen=True)
class LayerLatency:
    """Latencies (ms) of the two operator choices for one layer shape."""

    regular_ms: float
    deform_ms: float

    @property
    def extra_ms(self) -> float:
        """Marginal cost of choosing the deformable operator."""
        return max(0.0, self.deform_ms - self.regular_ms)


def deform_latency_ms(cfg: LayerConfig, spec: DeviceSpec,
                      backend: str = "pytorch", seed: int = 0,
                      bound: Optional[float] = 7.0) -> float:
    """Latency of the deformable operator (sampling + GEMM) for this shape."""
    sample_ms, gemm_ms = deform_latency_split_ms(cfg, spec, backend=backend,
                                                 seed=seed, bound=bound)
    return sample_ms + gemm_ms


def deform_latency_split_ms(cfg: LayerConfig, spec: DeviceSpec,
                            backend: str = "pytorch", seed: int = 0,
                            bound: Optional[float] = 7.0
                            ) -> Tuple[float, float]:
    """(sampling ms, GEMM ms) of the deformable operator for this shape.

    The fleet's shard planner prices a split layer from the two halves
    separately: the gather/blend sampling kernel divides across shard
    workers while the column GEMM stays whole at the coordinator (the
    stitch), so only the first component scales with a shard's fraction.
    The sum is exactly :func:`deform_latency_ms`.
    """
    off = synth_offsets(cfg, bound=bound, seed=seed)
    res = run_deform_op(backend, None, off, None, None, cfg, spec)
    gemm_ms = sum(k.duration_ms for k in res.kernels
                  if k.name == "implicit_gemm")
    return res.latency_ms - gemm_ms, gemm_ms


def deform_shard_latency_split_ms(cfg: LayerConfig, spec: DeviceSpec,
                                  shard, backend: str = "tex2dpp",
                                  seed: int = 0,
                                  bound: Optional[float] = 7.0
                                  ) -> Tuple[float, float]:
    """(sampling ms, GEMM ms) of *one shard* of the deformable operator.

    The sharded sibling of :func:`deform_latency_split_ms`: prices
    :func:`~repro.kernels.shards.run_shard` (no input, so no gather) on
    synthetic offsets for the exact
    :class:`~repro.kernels.shards.ShardSpec` bounds the executor would
    use, so the shard planner prices the same launch-grid and
    wave-efficiency effects the serve-time simulation will report —
    small shard GEMMs do *not* scale linearly with their fraction, and
    pricing them as if they did makes the router shard when it loses.
    """
    from repro.kernels.shards import run_shard

    off = synth_offsets(cfg, bound=bound, seed=seed)
    res = run_shard(None, off, cfg, spec, shard,
                    fp16_offsets=(backend == "tex2dpp"))
    return res.sample.duration_ms, res.gemm.duration_ms


class LatencyTable:
    """``t(w_n)`` — per-shape operator latencies, built once and reused."""

    def __init__(self, spec: DeviceSpec, backend: str = "pytorch",
                 seed: int = 0):
        self.spec = spec
        self.backend = backend
        self.seed = seed
        self._table: Dict[LayerConfig, LayerLatency] = {}

    def build(self, layers: Iterable[LayerConfig]) -> "LatencyTable":
        for cfg in layers:
            self.lookup(cfg)
        return self

    def lookup(self, cfg: LayerConfig) -> LayerLatency:
        if cfg not in self._table:
            self._table[cfg] = LayerLatency(
                regular_ms=conv_ms(cfg, self.spec),
                deform_ms=deform_latency_ms(cfg, self.spec,
                                            backend=self.backend,
                                            seed=self.seed),
            )
        return self._table[cfg]

    def deform_ms(self, cfg: LayerConfig) -> float:
        return self.lookup(cfg).deform_ms

    def __len__(self) -> int:
        return len(self._table)

    def items(self) -> Iterable[Tuple[LayerConfig, LayerLatency]]:
        return self._table.items()

    # ------------------------------------------------------------------
    # persistence — the paper collects on-device latencies once and reuses
    # the lookup table across searches
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialise the table to JSON (shape tuple → latencies)."""
        import dataclasses
        import json

        payload = {
            "device": self.spec.name,
            "backend": self.backend,
            "entries": [
                {"config": dataclasses.asdict(cfg),
                 "regular_ms": lat.regular_ms,
                 "deform_ms": lat.deform_ms}
                for cfg, lat in self._table.items()
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)

    @classmethod
    def load(cls, path, spec: DeviceSpec) -> "LatencyTable":
        """Rebuild a table from :meth:`save` output.

        The device recorded in the file must match ``spec`` — a latency
        table is only valid for the hardware it was measured on.
        """
        import json

        with open(path) as fh:
            payload = json.load(fh)
        if payload["device"] != spec.name:
            raise ValueError(
                f"latency table was measured on {payload['device']!r}, "
                f"not {spec.name!r}")
        table = cls(spec, backend=payload["backend"])
        for entry in payload["entries"]:
            cfg = LayerConfig(**entry["config"])
            table._table[cfg] = LayerLatency(
                regular_ms=entry["regular_ms"],
                deform_ms=entry["deform_ms"])
        return table
