"""Attack outcome decision: response check, protocol check, then the model.

The checks run cheapest-first. No responses at all means the replay went
nowhere (FAILED). A standard security protocol in the attack capture
means replay protection is already guaranteed (FAILED). Otherwise the
first few attack responses are classified against the trained novelty
model: if every one is irregular the device rejected the replay, and a
single regular response means the replayed commands were accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .capture import PacketRecord
from .features import featurize
from .models import Label, NoveltyModel, classify
from .protocols import detect_standard_security_protocol
from .replay import ResponseQueue

__all__ = [
    "Outcome",
    "Reason",
    "DetectionConfig",
    "Verdict",
    "NoModelError",
    "decide",
]

DEFAULT_RESPONSE_WINDOW = 3


class Outcome(Enum):
    SUCCESSFUL = "SUCCESSFUL"
    FAILED = "FAILED"


class Reason(Enum):
    NO_RESPONSE = "NoResponse"
    STANDARD_PROTOCOL = "StandardProtocol"
    ALL_IRREGULAR = "AllIrregular"
    REGULAR_FOUND = "RegularFound"


class NoModelError(ValueError):
    """The model stage was reached, but no novelty model was trained."""


_FAILED_REASONS = {Reason.NO_RESPONSE, Reason.STANDARD_PROTOCOL, Reason.ALL_IRREGULAR}


@dataclass(frozen=True)
class DetectionConfig:
    """response_window is how many leading queue entries the model sees."""

    response_window: int = DEFAULT_RESPONSE_WINDOW

    def __post_init__(self):
        if self.response_window < 1:
            raise ValueError("response_window must be >= 1")


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    reason: Reason
    labels: tuple[Label, ...]

    def __post_init__(self):
        failed = self.reason in _FAILED_REASONS
        if failed != (self.outcome == Outcome.FAILED):
            raise ValueError(f"reason {self.reason} contradicts outcome {self.outcome}")
        if self.reason in (Reason.NO_RESPONSE, Reason.STANDARD_PROTOCOL) and self.labels:
            raise ValueError(f"{self.reason} verdicts carry no model labels")
        if self.reason == Reason.ALL_IRREGULAR and any(
            label != Label.IRREGULAR for label in self.labels
        ):
            raise ValueError("AllIrregular verdict with a regular label")
        if self.reason == Reason.REGULAR_FOUND and not any(
            label == Label.REGULAR for label in self.labels
        ):
            raise ValueError("RegularFound verdict without a regular label")

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "reason": self.reason.value,
            "labels": [label.value for label in self.labels],
        }


def decide(
    queue: ResponseQueue,
    attack_records: Sequence[PacketRecord],
    model: NoveltyModel | None,
    config: DetectionConfig | None = None,
) -> Verdict:
    """Classify one attack run as SUCCESSFUL or FAILED.

    model may be None only when one of the two cheap checks decides (a
    silent device yields no training responses to build a model from);
    reaching the model stage without a model is an error.
    """
    config = config or DetectionConfig()
    if not queue:
        return Verdict(Outcome.FAILED, Reason.NO_RESPONSE, ())
    if detect_standard_security_protocol(attack_records):
        return Verdict(Outcome.FAILED, Reason.STANDARD_PROTOCOL, ())
    if model is None:
        raise NoModelError(
            "attack responses need model classification but no novelty model "
            "was trained (no training responses?)"
        )
    window = queue.entries[: config.response_window]
    labels = tuple([classify(model, featurize(entry.payload)) for entry in window])
    if all(label == Label.IRREGULAR for label in labels):
        return Verdict(Outcome.FAILED, Reason.ALL_IRREGULAR, labels)
    return Verdict(Outcome.SUCCESSFUL, Reason.REGULAR_FOUND, labels)
