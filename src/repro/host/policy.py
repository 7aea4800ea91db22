"""Submission policy: how a driver talks to its controller's rings.

One frozen value object gathers every knob of the submission and
completion fast path — doorbell mode, doorbell batching, CQE/IRQ
coalescing, and the engine-side DMA model — so scheme runners, the
experiment grid, and the CLI all spell them the same way instead of
growing ad-hoc per-rig keyword arguments.

The default policy reproduces the classic interrupt-per-CQE,
MMIO-per-command NVMe path byte-for-byte: a world built with
``DEFAULT_POLICY`` (or no policy at all) schedules exactly the same
event sequence as one built before this API existed, which is what
keeps the committed bench baselines and the determinism CI job valid.

Doorbell modes
--------------
``immediate``
    One posted MMIO write per submitted command (the textbook driver).
``shadow``
    NVMe shadow-doorbell convention: the driver publishes the new tail
    in shared memory and only pays the MMIO when the device has gone
    idle and re-armed its wakeup (``SubmissionQueue.db_armed``).
``batched``
    The driver accumulates submissions and rings once per
    ``batch_depth`` commands; a full ring or the deterministic
    ``batch_timeout_ns`` deadline flushes early so shallow queues never
    stall.

CQE coalescing (``coalesce_threshold``/``coalesce_timeout_ns``) is the
NVMe interrupt-coalescing feature: the device raises MSI-X only every
N completions or when the aggregation timer fires, whichever is first.

The DMA model (``dma``) picks the engine's step-⑤ routing machinery
per namespace: ``register`` is the cut-through per-TLP trigger FSM,
``descriptor`` streams descriptors through a ring FIFO (LitePCIe
style) with a lower per-descriptor cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..sim import SimulationError

__all__ = [
    "DOORBELL_MODES",
    "DMA_MODELS",
    "SubmissionPolicy",
    "DEFAULT_POLICY",
    "POLICY_PRESETS",
    "parse_policy",
    "resolve_policy",
]

DOORBELL_MODES = ("immediate", "shadow", "batched")
#: engine step-⑤ machinery variants (see
#: :class:`~repro.core.dma_routing.DescriptorRingDMA`)
DMA_MODELS = ("register", "descriptor")


@dataclass(frozen=True)
class SubmissionPolicy:
    """How submissions reach the device and completions come back."""

    #: one of :data:`DOORBELL_MODES`
    doorbell: str = "immediate"
    #: batched mode: MMIO ring once per this many submissions
    batch_depth: int = 8
    #: batched mode: deterministic flush deadline for a partial batch
    batch_timeout_ns: int = 20_000
    #: device raises MSI-X every N CQEs (1 = interrupt per completion)
    coalesce_threshold: int = 1
    #: aggregation timer bounding IRQ delay when under threshold
    coalesce_timeout_ns: int = 0
    #: engine DMA routing model, one of :data:`DMA_MODELS`
    dma: str = "register"

    def __post_init__(self) -> None:
        if self.doorbell not in DOORBELL_MODES:
            raise SimulationError(
                f"doorbell mode {self.doorbell!r} not one of {DOORBELL_MODES}"
            )
        if self.dma not in DMA_MODELS:
            raise SimulationError(
                f"dma model {self.dma!r} not one of {DMA_MODELS}"
            )
        if self.batch_depth < 1:
            raise SimulationError("batch_depth must be >= 1")
        if self.batch_timeout_ns < 0 or self.coalesce_timeout_ns < 0:
            raise SimulationError("policy timeouts must be >= 0")
        if self.coalesce_threshold < 1:
            raise SimulationError("coalesce_threshold must be >= 1")
        if self.coalesce_threshold > 1 and self.coalesce_timeout_ns <= 0:
            # a threshold with no timer would strand the last CQEs of a
            # shallow queue forever; NVMe controllers always pair them
            raise SimulationError(
                "coalesce_threshold > 1 requires coalesce_timeout_ns > 0"
            )

    @property
    def coalescing(self) -> bool:
        return self.coalesce_threshold > 1 or self.coalesce_timeout_ns > 0

    @property
    def is_default(self) -> bool:
        return self == DEFAULT_POLICY

    def spell(self) -> str:
        """The canonical ``--policy`` string parsing back to this value."""
        parts = [f"doorbell={self.doorbell}"]
        if self.doorbell == "batched":
            parts.append(f"batch={self.batch_depth}")
            parts.append(f"batch_timeout_ns={self.batch_timeout_ns}")
        if self.coalescing:
            parts.append(f"coalesce={self.coalesce_threshold}")
            parts.append(f"coalesce_timeout_ns={self.coalesce_timeout_ns}")
        parts.append(f"dma={self.dma}")
        return ",".join(parts)


DEFAULT_POLICY = SubmissionPolicy()

#: named spellings for the CLI / RunSpec string form
POLICY_PRESETS: dict[str, SubmissionPolicy] = {
    "default": DEFAULT_POLICY,
    "shadow": SubmissionPolicy(doorbell="shadow"),
    "batched": SubmissionPolicy(doorbell="batched"),
    "coalesced": SubmissionPolicy(coalesce_threshold=4,
                                  coalesce_timeout_ns=8_000),
    # everything on: the high-iodepth throughput configuration
    "throughput": SubmissionPolicy(doorbell="shadow", coalesce_threshold=4,
                                   coalesce_timeout_ns=8_000,
                                   dma="descriptor"),
}

_INT_KEYS = {
    "batch": "batch_depth",
    "batch_depth": "batch_depth",
    "batch_timeout_ns": "batch_timeout_ns",
    "coalesce": "coalesce_threshold",
    "coalesce_threshold": "coalesce_threshold",
    "coalesce_timeout_ns": "coalesce_timeout_ns",
}
_STR_KEYS = {"doorbell": "doorbell", "dma": "dma"}


def parse_policy(text: str) -> SubmissionPolicy:
    """Parse a ``--policy`` string.

    Accepts a preset name (``"throughput"``), a bare doorbell mode
    (``"batched"``, ``"batched:16"`` for the batch depth), or a comma
    list of ``key=value`` fields over the dataclass knobs, e.g.
    ``"doorbell=shadow,coalesce=4,coalesce_timeout_ns=8000,dma=descriptor"``.
    """
    text = text.strip()
    if not text:
        return DEFAULT_POLICY
    preset = POLICY_PRESETS.get(text)
    if preset is not None:
        return preset
    if ":" in text and "=" not in text:
        mode, _, depth = text.partition(":")
        if mode not in DOORBELL_MODES:
            raise ValueError(
                f"unknown doorbell mode {mode!r} in policy {text!r}"
            )
        try:
            return SubmissionPolicy(doorbell=mode, batch_depth=int(depth))
        except ValueError:
            raise ValueError(f"bad batch depth in policy {text!r}") from None
    if "=" not in text:
        if text in DOORBELL_MODES:
            return SubmissionPolicy(doorbell=text)
        known = sorted({*POLICY_PRESETS, *DOORBELL_MODES})
        raise ValueError(f"unknown policy {text!r} (known: {', '.join(known)})")
    fields: dict[str, object] = {}
    for token in text.split(","):
        key, sep, value = token.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise ValueError(f"bad policy field {token!r} (want key=value)")
        if key in _STR_KEYS:
            fields[_STR_KEYS[key]] = value
        elif key in _INT_KEYS:
            try:
                fields[_INT_KEYS[key]] = int(value)
            except ValueError:
                raise ValueError(
                    f"policy field {key}={value!r} is not an integer"
                ) from None
        else:
            known = sorted({*_STR_KEYS, *_INT_KEYS})
            raise ValueError(
                f"unknown policy field {key!r} (known: {', '.join(known)})"
            )
    try:
        return SubmissionPolicy(**fields)  # type: ignore[arg-type]
    except SimulationError as exc:
        raise ValueError(str(exc)) from None


def resolve_policy(
    policy: Union[None, str, SubmissionPolicy],
) -> Optional[SubmissionPolicy]:
    """``None``/policy/string -> policy (``None`` stays ``None``)."""
    if policy is None or isinstance(policy, SubmissionPolicy):
        return policy
    if isinstance(policy, str):
        return parse_policy(policy)
    raise TypeError(
        f"policy must be a SubmissionPolicy, a string, or None; got {policy!r}"
    )

