"""Replay-attack vulnerability assessment for networked devices.

Learns what legitimate responses look like from a small capture of a
paired app commanding a device, replays the captured command flows back
at the device, and judges from the live responses whether the replay
took effect. Ships a set of simulated devices so the whole loop can run
against real sockets without touching hardware.

The package root holds the names the library loop needs; everything else
is imported from its submodule (``replaycheck.capture``,
``replaycheck.models``, ``replaycheck.replay`` and so on).
"""

from .capture import Endpoint, SessionConfig
from .pipeline import (
    PipelineSettings,
    assess_device,
    attack_from_capture,
    train_from_capture,
)
from .simdevices import Behavior, default_profile, spawn_device
from .verdict import decide

__all__ = [
    "Behavior",
    "Endpoint",
    "PipelineSettings",
    "SessionConfig",
    "assess_device",
    "attack_from_capture",
    "decide",
    "default_profile",
    "spawn_device",
    "train_from_capture",
    "__version__",
]

__version__ = "0.1.0"
