"""GPU hardware descriptions for the execution simulator.

A :class:`GpuSpec` captures the handful of architectural quantities the
paper's analysis depends on: SM count, (locked) clock, per-SM MAC throughput
per precision, DRAM bandwidth, L2 capacity, and kernel-launch latency.

The ``A100`` preset reproduces the paper's measurement configuration
(Section 6): 108 SMs locked at 1005 MHz, giving tensor-core peaks of
13.9 FP64 TFLOP/s and 222.3 FP16->32 TFLOP/s.  Working backwards, those
peaks correspond to exactly 64 and 1024 MACs/SM/cycle — the DMMA and HMMA
tensor-core rates — which is how the preset encodes them.

``HYPOTHETICAL_4SM`` is the four-SM processor used by the paper's
illustrative Figures 1–3 and 9.

Beyond the paper's testbed, this module is a **spec registry**
(``docs/HARDWARE.md``): presets for H100-, V100-, and RTX-3090-class parts
with distinct SM counts, occupancies, and per-precision rate tables
(every preset follows the paper's locked-clock convention — clocks pinned
below boost for run-to-run stability, so peaks are the *locked* peaks,
not the datasheet boost peaks); :meth:`GpuSpec.from_json` /
:meth:`GpuSpec.to_json` so users define custom devices from a file; and
:func:`resolve_gpu`, which every CLI ``--gpu`` flag routes through to
accept either a registered preset name or a path to a spec JSON.
Per-spec calibration and plan caching key off :attr:`GpuSpec.fingerprint`,
a SHA-256 of every field here computed once at construction (the rate
table is frozen, so a spec cannot change after it is hashed) — any custom
or edited spec calibrates (and caches) independently.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..errors import ConfigurationError
from ..gemm.dtypes import DtypeConfig

__all__ = [
    "GpuSpec",
    "A100",
    "H100_SXM",
    "V100_SXM2",
    "RTX3090",
    "HYPOTHETICAL_4SM",
    "GPU_PRESETS",
    "DEFAULT_GPU_NAME",
    "available_gpus",
    "default_gpu",
    "get_gpu",
    "register_gpu",
    "resolve_gpu",
]


#: JSON schema of a custom spec: required and optional keys with the
#: dataclass defaults (see docs/HARDWARE.md for a worked example).
_REQUIRED_JSON_KEYS = (
    "name",
    "num_sms",
    "clock_hz",
    "macs_per_sm_per_cycle",
    "dram_bandwidth",
    "l2_bytes",
)
_OPTIONAL_JSON_KEYS = (
    "l2_line_bytes",
    "occupancy",
    "launch_latency_s",
    "sm_max_bandwidth",
)


@dataclass(frozen=True)
class GpuSpec:
    """Architectural parameters of a simulated GPU.

    Attributes
    ----------
    name:
        Preset identifier.
    num_sms:
        Streaming-multiprocessor core count (the paper's ``p``).
    clock_hz:
        SM clock.  The paper locks the A100 at 1005 MHz for stability.
    macs_per_sm_per_cycle:
        Map of dtype-config name to multiply-accumulates one SM retires per
        cycle at 100% utilization.  Stored as a read-only copy of the
        mapping passed in.
    dram_bandwidth:
        Device-memory bandwidth in bytes/s.
    l2_bytes:
        Last-level cache capacity.
    l2_line_bytes:
        Cache-line granularity for the detailed cache simulator.
    occupancy:
        CTAs co-resident per SM.  The paper's kernels use maximal tiles, so
        one CTA per SM is the realistic default.
    launch_latency_s:
        Fixed host-side kernel launch latency added to every kernel.
    sm_max_bandwidth:
        DRAM bandwidth one SM can sustain on its own, in bytes/s — bounded
        by per-SM outstanding-transaction limits, not by the device total.
        A kernel with only a few resident CTAs cannot saturate HBM; this is
        what makes single-tile data-parallel schedules slow on real
        hardware and is essential to the strong-scaling comparisons.
    fingerprint:
        Derived, not a field: hex SHA-256 of every field's JSON value,
        computed once in ``__post_init__``.  Calibration files and plan
        cache shards embed it in their names.
    """

    name: str
    num_sms: int
    clock_hz: float
    macs_per_sm_per_cycle: "Mapping[str, float]"
    dram_bandwidth: float
    l2_bytes: int
    l2_line_bytes: int = 128
    occupancy: int = 1
    launch_latency_s: float = 2.0e-6
    sm_max_bandwidth: float = 30.0e9

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigurationError("num_sms must be positive")
        if self.clock_hz <= 0 or self.dram_bandwidth <= 0:
            raise ConfigurationError("clock and bandwidth must be positive")
        if self.l2_bytes < 0 or self.l2_line_bytes <= 0:
            raise ConfigurationError("invalid cache geometry")
        if self.occupancy <= 0:
            raise ConfigurationError("occupancy must be positive")
        if not self.macs_per_sm_per_cycle:
            raise ConfigurationError(
                "macs_per_sm_per_cycle must name at least one precision"
            )
        for dtype_name, rate in self.macs_per_sm_per_cycle.items():
            if not (isinstance(rate, (int, float)) and math.isfinite(rate)) or rate <= 0:
                raise ConfigurationError(
                    "MAC rate for dtype %r must be a positive finite number, "
                    "got %r" % (dtype_name, rate)
                )
        object.__setattr__(
            self,
            "macs_per_sm_per_cycle",
            MappingProxyType(dict(self.macs_per_sm_per_cycle)),
        )
        payload = json.dumps(self._as_dict(), sort_keys=True, default=str)
        object.__setattr__(
            self, "fingerprint", hashlib.sha256(payload.encode("utf-8")).hexdigest()
        )

    def _as_dict(self) -> dict:
        """Every field by name, with the rate table as a plain dict."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["macs_per_sm_per_cycle"] = dict(self.macs_per_sm_per_cycle)
        return doc

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from plain field values.
        return (type(self), tuple(self._as_dict().values()))

    # ------------------------------------------------------------------ #
    # Derived rates                                                       #
    # ------------------------------------------------------------------ #

    def mac_rate(self, dtype: DtypeConfig) -> float:
        """MACs/SM/cycle for a precision; raises for unknown precisions."""
        try:
            return self.macs_per_sm_per_cycle[dtype.name]
        except KeyError:
            raise ConfigurationError(
                "GPU %s has no MAC rate for dtype %r (knows: %s)"
                % (self.name, dtype.name, ", ".join(self.macs_per_sm_per_cycle))
            ) from None

    def supports_dtype(self, dtype: DtypeConfig) -> bool:
        """Whether this device has a MAC rate for ``dtype`` (e.g. V100 has
        no BF16 path)."""
        return dtype.name in self.macs_per_sm_per_cycle

    def peak_tflops(self, dtype: DtypeConfig) -> float:
        """Device peak in TFLOP/s (2 FLOPs per MAC)."""
        return (
            2.0 * self.mac_rate(dtype) * self.num_sms * self.clock_hz / 1e12
        )

    @property
    def bytes_per_cycle_per_sm(self) -> float:
        """Fair DRAM bandwidth share of one SM, in bytes per SM cycle."""
        return self.dram_bandwidth / (self.num_sms * self.clock_hz)

    @property
    def total_cta_slots(self) -> int:
        """Concurrently resident CTAs (num_sms * occupancy)."""
        return self.num_sms * self.occupancy

    def achieved_bandwidth(self, active_ctas) -> "float":
        """DRAM bandwidth achievable with ``active_ctas`` resident CTAs.

        ``min(device bandwidth, active * per-SM limit)``; accepts scalars
        or numpy arrays.  Never below one SM's worth.
        """
        active = np.maximum(np.minimum(active_ctas, self.total_cta_slots), 1)
        return np.minimum(self.dram_bandwidth, active * self.sm_max_bandwidth)

    def with_sms(self, num_sms: int) -> "GpuSpec":
        """A copy with a different SM count (scaling studies)."""
        return GpuSpec(
            name="%s_%dsm" % (self.name, num_sms),
            num_sms=num_sms,
            clock_hz=self.clock_hz,
            macs_per_sm_per_cycle=dict(self.macs_per_sm_per_cycle),
            dram_bandwidth=self.dram_bandwidth * num_sms / self.num_sms,
            l2_bytes=self.l2_bytes,
            l2_line_bytes=self.l2_line_bytes,
            occupancy=self.occupancy,
            launch_latency_s=self.launch_latency_s,
            sm_max_bandwidth=self.sm_max_bandwidth,
        )

    # ------------------------------------------------------------------ #
    # JSON round trip (custom devices from a file)                        #
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        """Serialize every field as a JSON document.

        The output round-trips through :meth:`from_json` bit-exactly and is
        the canonical custom-spec file format (docs/HARDWARE.md).
        """
        return json.dumps(self._as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, source: "str | dict") -> "GpuSpec":
        """Build a validated spec from a JSON document (text or dict).

        Raises :class:`~repro.errors.ConfigurationError` on unparsable
        JSON, missing or unknown keys, a non-positive SM count, an empty
        (or non-positive) MAC-rate table, or a device bandwidth that does
        not exceed the per-SM bandwidth limit — every rule a registered
        preset already obeys, enforced here so custom device files fail
        loudly instead of producing quietly absurd simulations.
        """
        if isinstance(source, str):
            try:
                doc = json.loads(source)
            except ValueError as exc:
                raise ConfigurationError(
                    "GPU spec JSON does not parse: %s" % exc
                ) from None
        else:
            doc = dict(source)
        if not isinstance(doc, dict):
            raise ConfigurationError(
                "GPU spec JSON must be an object, got %s" % type(doc).__name__
            )
        missing = [k for k in _REQUIRED_JSON_KEYS if k not in doc]
        if missing:
            raise ConfigurationError(
                "GPU spec JSON missing required key(s): %s (required: %s)"
                % (", ".join(missing), ", ".join(_REQUIRED_JSON_KEYS))
            )
        known = set(_REQUIRED_JSON_KEYS) | set(_OPTIONAL_JSON_KEYS)
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                "GPU spec JSON has unknown key(s): %s (known: %s)"
                % (", ".join(unknown), ", ".join(sorted(known)))
            )
        if not isinstance(doc["name"], str) or not doc["name"]:
            raise ConfigurationError("GPU spec 'name' must be a non-empty string")
        rates = doc["macs_per_sm_per_cycle"]
        if not isinstance(rates, dict) or not rates:
            raise ConfigurationError(
                "GPU spec 'macs_per_sm_per_cycle' must be a non-empty "
                "{dtype name: MACs/SM/cycle} object"
            )
        try:
            spec = cls(
                name=str(doc["name"]),
                num_sms=int(doc["num_sms"]),
                clock_hz=float(doc["clock_hz"]),
                macs_per_sm_per_cycle={
                    str(k): float(v) for k, v in rates.items()
                },
                dram_bandwidth=float(doc["dram_bandwidth"]),
                l2_bytes=int(doc["l2_bytes"]),
                l2_line_bytes=int(doc.get("l2_line_bytes", 128)),
                occupancy=int(doc.get("occupancy", 1)),
                launch_latency_s=float(doc.get("launch_latency_s", 2.0e-6)),
                sm_max_bandwidth=float(doc.get("sm_max_bandwidth", 30.0e9)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                "GPU spec JSON has mistyped field: %s" % exc
            ) from None
        if spec.dram_bandwidth <= spec.sm_max_bandwidth:
            raise ConfigurationError(
                "device dram_bandwidth (%.3g B/s) must exceed the per-SM "
                "sm_max_bandwidth (%.3g B/s); a whole device slower than "
                "one SM's DRAM path is not a GPU"
                % (spec.dram_bandwidth, spec.sm_max_bandwidth)
            )
        return spec

    @classmethod
    def from_json_file(cls, path: str) -> "GpuSpec":
        """Load and validate a custom spec from a JSON file on disk."""
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(
                "cannot read GPU spec file %r: %s" % (path, exc)
            ) from None
        return cls.from_json(text)


# --------------------------------------------------------------------- #
# Presets                                                                #
# --------------------------------------------------------------------- #

# Tensor-core MAC rates per SM per cycle.  At 108 SMs x 1005 MHz these give
# the paper's measured peaks: 64 * 2 * 108 * 1.005e9 = 13.9 TFLOP/s (FP64)
# and 1024 * 2 * 108 * 1.005e9 = 222.3 TFLOP/s (FP16->32).
_A100_RATES = {
    "fp64": 64.0,
    "fp16_fp32": 1024.0,
    "bf16_fp32": 1024.0,
    "fp32": 90.0,  # ~19.5 TF fp32 via TF32-style paths; extension only
}

A100 = GpuSpec(
    name="a100",
    num_sms=108,
    clock_hz=1.005e9,
    macs_per_sm_per_cycle=dict(_A100_RATES),
    dram_bandwidth=1.555e12,  # A100-40GB HBM2e
    l2_bytes=40 * 1024 * 1024,
    l2_line_bytes=128,
    occupancy=1,
    launch_latency_s=2.0e-6,
)

# H100-SXM-class part under the same locked-clock convention the paper
# applies to the A100 (clock pinned below boost for stability): 132 SMs,
# 4th-gen tensor cores retiring twice the A100's MACs/SM/cycle per
# precision (DMMA 128, HMMA 2048), HBM3, 50 MB L2.  Locked peaks:
# 59.3 FP64 / 948.6 FP16->32 TFLOP/s at 1.755 GHz.
H100_SXM = GpuSpec(
    name="h100_sxm",
    num_sms=132,
    clock_hz=1.755e9,
    macs_per_sm_per_cycle={
        "fp64": 128.0,
        "fp16_fp32": 2048.0,
        "bf16_fp32": 2048.0,
        "fp32": 512.0,  # TF32-style path
    },
    dram_bandwidth=3.35e12,  # HBM3
    l2_bytes=50 * 1024 * 1024,
    l2_line_bytes=128,
    occupancy=1,
    launch_latency_s=2.0e-6,
    sm_max_bandwidth=45.0e9,
)

# V100-SXM2-class part: 80 SMs locked at the 1.38 GHz base clock,
# 1st-gen tensor cores (HMMA 512 MACs/SM/cycle), FP64 through the FMA
# pipes (32 MACs/SM/cycle), HBM2, 6 MB L2.  Deliberately has **no BF16
# entry** — the architecture predates bfloat16, and the registry treats a
# missing rate as "precision unsupported" (mac_rate raises).
V100_SXM2 = GpuSpec(
    name="v100_sxm2",
    num_sms=80,
    clock_hz=1.38e9,
    macs_per_sm_per_cycle={
        "fp64": 32.0,
        "fp16_fp32": 512.0,
        "fp32": 64.0,
    },
    dram_bandwidth=0.9e12,  # HBM2
    l2_bytes=6 * 1024 * 1024,
    l2_line_bytes=128,
    occupancy=1,
    launch_latency_s=2.0e-6,
    sm_max_bandwidth=20.0e9,
)

# RTX-3090-class consumer part: 82 SMs locked at the 1.395 GHz base clock,
# GDDR6X instead of HBM, tiny 6 MB L2, FP64 deliberately crippled to
# 1:64 of FP32 (2 MACs/SM/cycle) and FP16-with-FP32-accumulate tensor
# throughput halved as on GeForce parts (256 MACs/SM/cycle).  Smaller
# register/SMEM footprints per CTA let two CTAs co-reside per SM
# (occupancy=2), making this the registry's uneven-occupancy point:
# total_cta_slots = 164 on 82 SMs.
RTX3090 = GpuSpec(
    name="rtx3090",
    num_sms=82,
    clock_hz=1.395e9,
    macs_per_sm_per_cycle={
        "fp64": 2.0,
        "fp16_fp32": 256.0,
        "bf16_fp32": 256.0,
        "fp32": 128.0,  # TF32-style path
    },
    dram_bandwidth=0.936e12,  # GDDR6X
    l2_bytes=6 * 1024 * 1024,
    l2_line_bytes=128,
    occupancy=2,
    launch_latency_s=2.0e-6,
    sm_max_bandwidth=25.0e9,
)

HYPOTHETICAL_4SM = GpuSpec(
    name="hypothetical_4sm",
    num_sms=4,
    clock_hz=1.0e9,
    macs_per_sm_per_cycle=dict(_A100_RATES),
    # Scale bandwidth and L2 with width so the 4-SM device has the same
    # balance point as the A100 (the figures reason about utilization, not
    # absolute bandwidth).
    dram_bandwidth=1.555e12 * 4 / 108,
    l2_bytes=4 * 1024 * 1024,
    l2_line_bytes=128,
    occupancy=1,
    launch_latency_s=2.0e-6,
)

GPU_PRESETS: "dict[str, GpuSpec]" = {
    g.name: g
    for g in (A100, H100_SXM, V100_SXM2, RTX3090, HYPOTHETICAL_4SM)
}

#: The registry's default device — the paper's testbed.  Every layer that
#: needs a GPU and was given none resolves this name through the registry
#: (no module imports the A100 constant as a default anymore), so swapping
#: the fleet-wide default is a one-line change here.
DEFAULT_GPU_NAME = "a100"


def available_gpus() -> "tuple[str, ...]":
    """Sorted names of every registered preset."""
    return tuple(sorted(GPU_PRESETS))


def get_gpu(name: str) -> GpuSpec:
    """Look up a GPU preset by name.

    Raises :class:`~repro.errors.ConfigurationError` naming every
    registered preset on an unknown name.
    """
    try:
        return GPU_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            "unknown GPU %r; available presets: %s (or pass a path to a "
            "custom spec JSON — see docs/HARDWARE.md)"
            % (name, ", ".join(available_gpus()))
        ) from None
    except TypeError:
        raise ConfigurationError(
            "GPU name must be a string, got %r" % (name,)
        ) from None


def default_gpu() -> GpuSpec:
    """The registry's default device (:data:`DEFAULT_GPU_NAME`)."""
    return get_gpu(DEFAULT_GPU_NAME)


def register_gpu(spec: GpuSpec, overwrite: bool = False) -> GpuSpec:
    """Add a spec to the registry under ``spec.name``.

    Registered names become valid everywhere a ``--gpu``/``gpu`` name is
    accepted (CLI, harness, cross-hardware sweeps).  Re-registering an
    existing name raises unless ``overwrite=True`` — silently shadowing
    the paper's ``a100`` would invalidate every committed number.
    """
    if not isinstance(spec, GpuSpec):
        raise ConfigurationError(
            "register_gpu needs a GpuSpec, got %r" % (spec,)
        )
    if spec.name in GPU_PRESETS and not overwrite:
        raise ConfigurationError(
            "GPU %r is already registered; pass overwrite=True to replace"
            % spec.name
        )
    GPU_PRESETS[spec.name] = spec
    return spec


def resolve_gpu(ref: "str | GpuSpec") -> GpuSpec:
    """Resolve a ``--gpu`` reference: preset name, spec JSON path, or spec.

    The rule every CLI flag and harness entry point shares: a
    :class:`GpuSpec` passes through; a string naming a registered preset
    resolves from the registry; a string that looks like a file path
    (ends in ``.json``, contains a path separator, or exists on disk)
    loads through :meth:`GpuSpec.from_json_file` with full validation.
    """
    if isinstance(ref, GpuSpec):
        return ref
    if not isinstance(ref, str):
        raise ConfigurationError(
            "GPU reference must be a preset name, spec-JSON path, or "
            "GpuSpec; got %r" % (ref,)
        )
    if ref in GPU_PRESETS:
        return GPU_PRESETS[ref]
    looks_like_path = (
        ref.endswith(".json") or os.sep in ref or os.path.exists(ref)
    )
    if looks_like_path:
        return GpuSpec.from_json_file(ref)
    return get_gpu(ref)  # raises, listing the presets
