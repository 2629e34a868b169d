"""Pinned outputs of short campaigns on both networks.

Speed work (memoized QRP tables, hash-once routing, share caches) must
leave every measurement bit-identical.  These pins were taken before any
such memo existed, so a memo that changes who sees which query -- and
therefore what the crawler records -- fails here.
"""

import pytest

from repro.core.measure.campaign import (CampaignConfig, default_profile,
                                         run_limewire_campaign,
                                         run_openft_campaign)

RUNNERS = {"limewire": run_limewire_campaign, "openft": run_openft_campaign}

#: (network, duration_days) -> (store content digest, events processed)
GOLDEN = {
    ("limewire", 0.05): (
        "80d3047dd3b8571acd99e4148e7831a16d53773cd416b380a7c34a8f066eaecd",
        2508),
    # long enough for churn re-syncs and latent infections to re-advertise
    ("limewire", 0.25): (
        "00971af92055fdbd9798bb37e75d0dc17ec7413d57bf2ac4a19a53b22a68ede6",
        9414),
    ("openft", 0.05): (
        "f38e893e7ad5911c0ff16b3a49b3e9a02282d867312dd570cd40946d2b97f7ba",
        6080),
}


@pytest.mark.parametrize("network,duration_days", sorted(GOLDEN))
def test_campaign_matches_pinned_output(network, duration_days):
    result = RUNNERS[network](
        CampaignConfig(seed=2, duration_days=duration_days),
        profile=default_profile(network, 0.35))
    assert (result.store.content_digest(),
            result.sim.events_processed) == GOLDEN[network, duration_days]
