"""Counter surface: the boundary between the switch ASIC and the sampler.

The high-resolution framework (:mod:`repro.core`) must not reach into
simulator internals; it reads counters the way the paper's CPU polling
loop does — through named read operations with ASIC-defined semantics.
``SwitchCounterSurface`` is that register file.
"""

from __future__ import annotations

from repro.errors import CounterError
from repro.netsim.port import Port
from repro.netsim.switch import TorSwitch


class SwitchCounterSurface:
    """Read-only (plus read-and-reset watermark) view of a ToR's counters."""

    def __init__(self, switch: TorSwitch) -> None:
        self._switch = switch
        self._ports: dict[str, Port] = {port.name: port for port in switch.all_ports}

    # -- discovery ------------------------------------------------------------

    @property
    def port_names(self) -> list[str]:
        return list(self._ports)

    def port_rate_bps(self, port_name: str) -> float:
        return self._port(port_name).rate_bps

    def _port(self, port_name: str) -> Port:
        try:
            return self._ports[port_name]
        except KeyError:
            raise CounterError(f"no such port {port_name!r}") from None

    # -- cumulative counters ----------------------------------------------------

    def read_tx_bytes(self, port_name: str) -> int:
        """Cumulative bytes transmitted out of the switch on this port."""
        return self._port(port_name).counters.tx_bytes

    def read_rx_bytes(self, port_name: str) -> int:
        """Cumulative bytes received into the switch on this port."""
        return self._port(port_name).counters.rx_bytes

    def read_tx_drops(self, port_name: str) -> int:
        """Cumulative egress congestion discards on this port."""
        return self._port(port_name).counters.tx_drops

    def read_tx_size_histogram(self, port_name: str) -> tuple[int, ...]:
        """Cumulative per-bin packet counts (egress direction)."""
        return tuple(self._port(port_name).counters.tx_size_hist)

    # -- buffer watermark ---------------------------------------------------------

    def read_peak_buffer_and_reset(self) -> int:
        """Peak shared-buffer occupancy since last read (read-and-reset)."""
        return self._switch.shared_buffer.peak_occupancy_read_and_reset()

    @property
    def buffer_capacity_bytes(self) -> int:
        return self._switch.shared_buffer.policy.capacity_bytes
