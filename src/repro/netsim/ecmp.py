"""Equal-Cost MultiPath (ECMP) flow hashing.

The measured ToRs spread traffic over four uplinks with flow-level ECMP
using consistent hashing (Sec 6.1).  Flow-level hashing avoids TCP
reordering but cannot balance unequal flows — the source of the
small-timescale imbalance Fig 7 quantifies.  We implement:

* ``flow`` mode — consistent hash of the 5-tuple (production behaviour),
* ``packet`` mode — round-robin spraying (the idealised comparison the
  paper mentions, used by the load-balancing ablation benchmark).
"""

from __future__ import annotations

import hashlib
import itertools

from repro.errors import ConfigError
from repro.netsim.packet import FiveTuple


def _stable_hash(flow: FiveTuple, salt: int) -> int:
    """Deterministic 64-bit hash of a flow (Python's ``hash`` is salted
    per process, which would break reproducibility)."""
    key = (
        f"{flow.src_host}|{flow.dst_host}|{flow.src_port}|"
        f"{flow.dst_port}|{flow.protocol}|{salt}"
    ).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


class EcmpHasher:
    """Chooses an uplink index for each packet."""

    def __init__(self, n_uplinks: int, mode: str = "flow", salt: int = 0) -> None:
        if n_uplinks <= 0:
            raise ConfigError("need at least one uplink")
        if mode not in ("flow", "packet"):
            raise ConfigError(f"unknown ECMP mode {mode!r}")
        self.n_uplinks = n_uplinks
        self.salt = salt
        self._packet_mode = mode == "packet"
        self._round_robin = itertools.count()
        self._flow_cache: dict[FiveTuple, int] = {}

    def choose(self, flow: FiveTuple) -> int:
        """Uplink index for a packet of ``flow``.

        In flow mode the choice is a pure function of the 5-tuple, so all
        packets of a flow share a path (consistent hashing); the blake2b
        digest is memoised per flow, since every packet of a flow would
        otherwise recompute the identical hash.  In packet mode
        successive packets rotate round-robin.
        """
        if self._packet_mode:
            return next(self._round_robin) % self.n_uplinks
        try:
            return self._flow_cache[flow]
        except KeyError:
            uplink = _stable_hash(flow, self.salt) % self.n_uplinks
            self._flow_cache[flow] = uplink
            return uplink
