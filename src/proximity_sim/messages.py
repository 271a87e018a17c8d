"""Alert and scored-contact types shared between devices and the authority servers.

A device uploads `ScoredContact`s; the dispatch server answers with the
ranked contacts it notified and those it waitlisted, by envelope and
score, so no server result carries a plaintext contact.  An alert's
directions follow from its level alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .crypto import Envelope

__all__ = [
    "AlertLevel",
    "AlertMessage",
    "ScoredContact",
    "RED_DIRECTIONS",
    "YELLOW_DIRECTIONS",
]

RED_DIRECTIONS = (
    "You were in close contact with a confirmed case. "
    "Get tested and start a voluntary quarantine now."
)
YELLOW_DIRECTIONS = (
    "A close contact of yours received an exposure alert. "
    "Take precautions; no medical examination is required unless "
    "a direct alert follows."
)


class AlertLevel(Enum):
    RED = "red"
    YELLOW = "yellow"


@dataclass(frozen=True)
class AlertMessage:
    """Notification as delivered to a device; never identifies the sender."""

    level: AlertLevel
    origin_tag: str

    @property
    def directions(self) -> str:
        return RED_DIRECTIONS if self.level is AlertLevel.RED else YELLOW_DIRECTIONS


@dataclass(frozen=True)
class ScoredContact:
    """One distinct encrypted peer with its interaction-strength score."""

    envelope: Envelope
    score: float
