"""Fault-injecting window sources.

Wraps any :class:`~repro.core.campaign.WindowSource` so chaos campaigns
need no changes to the underlying fleet model: window failures surface as
:class:`~repro.errors.CollectionError` (what a real collection RPC
failure looks like to the campaign runner) and surviving traces carry the
plan's trace-level degradations (sample loss, counter wraparound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.campaign import CampaignWindow, WindowSource
from repro.core.samples import CounterTrace
from repro.errors import CollectionError
from repro.faults.injector import FaultInjector


def window_site(window: CampaignWindow) -> str:
    """Stable injection-site name for one campaign window."""
    return f"{window.rack_id}|{window.hour}|{window.port_name}"


@dataclass(slots=True)
class FaultyWindowSource:
    """A window source with a fault injector in the collection path.

    Attempt numbers are tracked per window so transient faults clear on
    retry; trace degradation is keyed by window (not attempt), so a
    retried or resumed window yields byte-identical traces.
    """

    inner: WindowSource
    injector: FaultInjector
    _attempts: dict[str, int] = field(default_factory=dict)

    def sample_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        site = window_site(window)
        attempt = self._attempts.get(site, 0)
        self._attempts[site] = attempt + 1
        if self.injector.should_fail_window(site, attempt):
            raise CollectionError(
                f"injected collection failure for window {site} (attempt {attempt})"
            )
        traces = self.inner.sample_window(window)
        return {
            name: self.injector.degrade_trace(trace, f"{site}|{name}")
            for name, trace in traces.items()
        }
