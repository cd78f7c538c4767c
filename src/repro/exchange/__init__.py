"""S7 — ad exchange: campaigns, second-price auctions, deferred billing."""

from .auction import AuctionConfig, run_auctions
from .campaign import ANY, Campaign, CampaignPoolConfig, build_campaigns
from .marketplace import Exchange, Sale

__all__ = [
    "Campaign",
    "CampaignPoolConfig",
    "build_campaigns",
    "ANY",
    "AuctionConfig",
    "run_auctions",
    "Exchange",
    "Sale",
]
