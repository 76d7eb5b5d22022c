"""Commands that flow through a group's Paxos log."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

CMD_NOOP = "noop"
CMD_CONFIG = "config"
CMD_BATCH = "batch"
CMD_APP = "app"
CMD_READ = "read"


@dataclass(frozen=True)
class ConfigChange:
    """Single-member reconfiguration payload.

    Restricting changes to one member per command keeps consecutive
    configurations majority-intersecting, which is what makes leader
    change safe without joint consensus.
    """

    action: str  # "add" or "remove"
    member: str

    def __post_init__(self) -> None:
        if self.action not in ("add", "remove"):
            raise ValueError(f"bad config action: {self.action}")


@dataclass(frozen=True, slots=True)
class Command:
    """A log entry value.

    ``dedup`` is an optional (client_id, seq, low) token, ``low`` the
    client's acknowledgement watermark: the state machine layer uses it
    to make retried proposals exactly-once.
    """

    kind: str
    payload: Any = None
    dedup: tuple[str, int, int] | None = None

    @staticmethod
    def noop() -> "Command":
        return Command(kind=CMD_NOOP)

    @staticmethod
    def config(action: str, member: str) -> "Command":
        return Command(kind=CMD_CONFIG, payload=ConfigChange(action, member))

    @staticmethod
    def app(payload: Any, dedup: tuple[str, int, int] | None = None) -> "Command":
        return Command(kind=CMD_APP, payload=payload, dedup=dedup)
