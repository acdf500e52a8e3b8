"""Closed-form estimators for workflow storage footprints and training/NAS
budgets. All file/byte arithmetic is exact 64-bit integer math; byte
figures display in SI units (1 TB = 10^12 bytes) unless binary units are
requested."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

_INT64_MAX = 2**63 - 1

_SI_UNITS = ["B", "kB", "MB", "GB", "TB", "PB", "EB"]
_BINARY_UNITS = ["B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"]


# The least value of each spec field; every field must also be finite.
_LEAST = {"n_structures": 1, "settings_per_structure": 1, "files_per_run": 1,
          "bytes_per_run": 1, "n_steps": 1, "t_batch": 0, "t_grad": 0,
          "n_architectures": 0, "hours_per_architecture": 0, "price_per_gpu_hour": 0}


def check_field(name: str, value) -> None:
    """Raise ValueError unless value is finite and at least the spec field
    ``name``'s least value, and an int converts to a float, as the estimates
    that multiply a count by a time need. An int is compared as it is, never
    as a float, and one too large for a float is not printed."""
    least = _LEAST[name]
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must convert to a float, got an integer of "
                             f"{value.bit_length()} bits") from None
    if not least <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= {least}, got {value}")


class _Checked:
    """A dataclass whose every field passes check_field."""

    def __post_init__(self):
        for f in fields(self):
            check_field(f.name, getattr(self, f.name))


@dataclass
class WorkflowSpec(_Checked):
    n_structures: int
    settings_per_structure: int
    files_per_run: int
    bytes_per_run: int


@dataclass
class TrainingSpec(_Checked):
    n_steps: int
    t_batch: float  # seconds per step spent batching data
    t_grad: float   # seconds per step spent on the gradient update


@dataclass
class NasSpec(_Checked):
    n_architectures: int
    hours_per_architecture: float
    price_per_gpu_hour: float


class WorkflowEstimate(NamedTuple):
    runs: int
    files: int
    bytes: int


class NasBudget(NamedTuple):
    gpu_hours: float
    cost: float


def _checked_mul(a: int, b: int, what: str) -> int:
    out = a * b
    if out > _INT64_MAX:
        raise OverflowError(f"{what} ({out}) exceeds the 64-bit integer range")
    return out


def workflow_estimate(w: WorkflowSpec) -> WorkflowEstimate:
    """Total runs, output files, and bytes for a high-throughput workflow."""
    runs = _checked_mul(w.n_structures, w.settings_per_structure, "run count")
    files = _checked_mul(runs, w.files_per_run, "file count")
    total_bytes = _checked_mul(runs, w.bytes_per_run, "byte count")
    return WorkflowEstimate(runs=runs, files=files, bytes=total_bytes)


def _checked_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"{what} overflows the floating-point range ({value})")
    return value


def training_time(t: TrainingSpec) -> float:
    """Wall seconds: steps times (batching + gradient-update) time."""
    return _checked_finite(t.n_steps * (t.t_batch + t.t_grad), "training time")


def nas_budget(n: NasSpec) -> NasBudget:
    """GPU-hours and cost of training every candidate architecture."""
    gpu_hours = _checked_finite(n.n_architectures * n.hours_per_architecture, "GPU hours")
    cost = _checked_finite(gpu_hours * n.price_per_gpu_hour, "NAS cost")
    return NasBudget(gpu_hours=gpu_hours, cost=cost)


def speedup(t_slow: float, t_fast: float) -> float:
    if t_fast <= 0:
        raise ValueError(f"t_fast must be positive, got {t_fast}")
    return t_slow / t_fast


def format_bytes(n: int, binary: bool = False) -> str:
    """Human-readable byte count: SI decimal by default, binary on request."""
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    base = 1024 if binary else 1000
    units = _BINARY_UNITS if binary else _SI_UNITS
    value = float(n)
    for unit in units[:-1]:
        if value < base:
            return _trim(value, unit)
        value /= base
    return _trim(value, units[-1])


def _trim(value: float, unit: str) -> str:
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{text} {unit}"
