"""Second-price (Vickrey) auctions.

Each displayable slot — current or predicted — is sold in a sealed-bid
second-price auction among the campaigns targeting it: the highest
bidder wins and pays the second-highest bid (or the reserve). Per-bid
multiplicative jitter models the bid-landscape noise real exchanges see,
so clearing prices vary across otherwise identical slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class AuctionConfig:
    """Mechanics of a single auction."""

    reserve_price: float = 0.1
    bid_jitter_sigma: float = 0.15
    max_bidders: int = 24

    def __post_init__(self) -> None:
        if self.reserve_price < 0:
            raise ValueError("reserve_price must be non-negative")
        if self.max_bidders < 1:
            raise ValueError("max_bidders must be >= 1")


def run_auctions(bids: np.ndarray, eligible: np.ndarray, count: int,
                 config: AuctionConfig,
                 rng: np.random.Generator) -> list[tuple[int, float] | None]:
    """Run ``count`` independent second-price auctions over ``eligible``.

    ``bids`` holds every campaign's base bid and ``eligible`` the rows
    of the campaigns that target the slots. Each auction samples at
    most ``max_bidders`` of them (real exchanges shard demand; one
    ``rng.choice`` per auction, drawn only when the pool is larger),
    then one lognormal matrix jitters every participant's bid. Jittered
    bids below the reserve are dropped; the highest bid wins and pays
    the second-highest, floored at the reserve, or the reserve alone
    when it is the only bid left.

    Returns one ``(winner row, price)`` per auction, or ``None`` when no
    bid clears the reserve. The winner is *not* charged here — the
    caller settles payment, because in prefetch mode payment is
    contingent on display.
    """
    if count <= 0:
        return []
    n = eligible.size
    if n == 0:
        return [None] * count
    if n > config.max_bidders:
        picks = np.empty((count, config.max_bidders), dtype=np.intp)
        for auction in range(count):
            picks[auction] = rng.choice(n, size=config.max_bidders,
                                        replace=False)
        bidders = eligible[picks]
    else:
        bidders = eligible[None, :].repeat(count, axis=0)
    jittered = bids[bidders] * rng.lognormal(
        0.0, config.bid_jitter_sigma, size=bidders.shape)
    jittered[jittered < config.reserve_price] = -np.inf
    # Per auction the columns of its two highest bids, lowest first; a
    # lone bidder has no second bid, and -inf floors to the reserve.
    top = np.argsort(jittered, axis=1)[:, -2:].tolist()
    reserve = config.reserve_price
    results: list[tuple[int, float] | None] = []
    for cols, rows, values in zip(top, bidders.tolist(), jittered.tolist()):
        if values[cols[-1]] == -np.inf:
            results.append(None)
            continue
        second = values[cols[0]] if len(cols) == 2 else -np.inf
        results.append((rows[cols[-1]], max(second, reserve)))
    return results
