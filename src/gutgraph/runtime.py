"""What every command needs before it dispatches: the run configuration,
the allocator policy, the divergence error and atomic file writes.

This module imports no other gutgraph module, so ``gutgraph.cli`` can
parse, check and echo a configuration, and ``synth`` and ``preprocess``
can write their outputs, without loading the model stack.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import sys
import tempfile
from dataclasses import dataclass

# (description, test of accepted values) per annotated field type, keyed
# by the annotation's string (``from __future__ import annotations``);
# bool is an int subclass in Python, so it is refused where a number is
# expected, and a real-valued field takes only numbers that are finite as
# floats (not NaN, an infinity, or an int beyond the float range)
_FIELD_TYPES = {
    "int": ("an int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number",
              lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max),
    "bool": ("a bool", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}

# the least accepted value of each field bounded from below alone
_LEAST_VALUES = {"embed_dim": 1, "gcn_layers": 1, "bins": 1, "heads": 1,
                 "epochs": 0, "learning_rate": 0, "seed": 0, "folds": 2,
                 "eval_seeds": 1, "classifier_steps": 0}


@dataclass
class TrainConfig:
    """Everything a run needs; serialized verbatim into checkpoints and
    echoed by the CLI."""

    embed_dim: int = 256
    gcn_layers: int = 3
    bins: int = 16
    heads: int = 4
    threshold: float = 0.6
    epochs: int = 1000
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0
    folds: int = 5
    eval_seeds: int = 5
    classifier_steps: int = 300
    histogram_weighting: str = "magnitude"
    fresh_corruption: bool = True
    use_attention: bool = True
    two_stage_summary: bool = True
    use_adversarial: bool = True

    def __post_init__(self):
        # JSON and checkpoints can carry any type: check types before ranges
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            description, accepts = _FIELD_TYPES[f.type]
            if not accepts(value):
                raise ValueError(f"{f.name} must be {description}, got {value!r}")
        for name, least in _LEAST_VALUES.items():
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.histogram_weighting not in ("magnitude", "count"):
            raise ValueError(f"unknown histogram_weighting {self.histogram_weighting!r}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


# (glibc mallopt parameter, value): M_MMAP_THRESHOLD 8 MiB, M_TRIM_THRESHOLD 64 MiB
_ALLOCATOR_POLICY = ((-3, 8 << 20), (-1, 64 << 20))


def pin_allocator() -> bool:
    """Fix the C allocator's thresholds for the whole run; returns whether
    they were applied.

    Blocks of 8 MiB and more are mapped on their own, and the heap is
    handed back to the system only when 64 MiB lie free at its top. glibc
    otherwise moves both thresholds as blocks are freed: at N=120 the trim
    threshold settles near 1 MiB, so each epoch's freed tape and gradients
    are returned to the system and faulted in again by the next epoch.
    8 MiB is where glibc's own rule settles at N=960, once the first N x N
    matrix is freed, and 64 MiB keeps a whole epoch's freed tape (30 MiB
    at N=960) in the heap. Where the C library has no ``mallopt``
    (macOS, Windows), nothing happens."""
    try:
        # the loaded program's symbols, the C library's among them;
        # Windows refuses the null name with TypeError
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success
    return all([mallopt(param, value) == 1 for param, value in _ALLOCATOR_POLICY])


class TrainingDivergedError(RuntimeError):
    """Training left the finite range at ``epoch``, in the joint loss or
    in the gradient norm of that epoch's step; carries the finite loss
    trace recorded up to then (through ``epoch`` when the gradient norm
    diverged, since that epoch's loss was finite)."""

    def __init__(self, epoch: int, trace: list[float], what: str = "joint loss"):
        super().__init__(f"non-finite {what} at epoch {epoch}")
        self.epoch = epoch
        self.trace = trace


def atomic_write_bytes(path: str, blob: bytes) -> None:
    """Write via a temp file plus rename so failures never leave a
    partial artifact at the destination. The file gets mode 0o666 less
    the umask, as from ``open(path, "w")``; ``mkstemp`` alone makes it
    0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)  # os.umask only reads the mask by replacing it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
