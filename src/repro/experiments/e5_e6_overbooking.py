"""E5 + E6 — the overbooking trade-off (paper's twin figures).

Sweeping the replication factor ``k`` (fixed-k random replication, no
rescue safety net, so the effect of k alone is visible):

* E5: SLA violation rate falls roughly geometrically with k;
* E6: revenue loss (duplicates + voids) rises with k.

The final row runs the paper's full model (staggered + rescue), which
should sit below the sweep on *both* axes — that dominance is the
paper's thesis.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.metrics.outcomes import Comparison
from repro.metrics.summary import fmt_pct, format_table

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.harness import World
    from repro.runner import WorldSource

DEFAULT_KS = (1, 2, 3, 4, 6)

#: Sweeps kept for reuse (``run all`` runs E5 and then E6 on one source).
SWEEP_CACHE_SIZE = 4

_SWEEP_CACHE: OrderedDict[tuple, tuple["World | None", "OverbookingSweep"]] = (
    OrderedDict())


@dataclass(frozen=True, slots=True)
class KPoint:
    """Outcome of one replication level."""

    label: str
    k: float                     # realized mean replication
    sla_violation_rate: float
    revenue_loss: float
    duplicates_per_sale: float
    energy_savings: float


@dataclass(frozen=True, slots=True)
class OverbookingSweep:
    """The joint E5/E6 figure data."""

    points: list[KPoint]         # fixed-k sweep, ascending k
    full_model: KPoint           # staggered + rescue

    def render(self) -> str:
        rows = [
            (p.label, f"{p.k:.2f}", fmt_pct(p.sla_violation_rate),
             fmt_pct(p.revenue_loss), f"{p.duplicates_per_sale:.3f}",
             fmt_pct(p.energy_savings))
            for p in self.points + [self.full_model]
        ]
        return format_table(
            ["policy", "mean k", "SLA violation", "revenue loss",
             "dups/sale", "energy savings"],
            rows,
            title="E5/E6: replication factor vs SLA violation and "
                  "revenue loss")


def _point(label: str, comparison: Comparison) -> KPoint:
    p = comparison.prefetch
    dups = (p.revenue.duplicate_impressions / p.sla.n_sales
            if p.sla.n_sales else 0.0)
    return KPoint(
        label=label,
        k=p.mean_replication if p.mean_replication else 1.0,
        sla_violation_rate=comparison.sla_violation_rate,
        revenue_loss=comparison.revenue_loss,
        duplicates_per_sale=dups,
        energy_savings=comparison.energy_savings,
    )


def run_e5_e6(config: ExperimentConfig | None = None,
              ks: tuple[int, ...] = DEFAULT_KS, *,
              source: "WorldSource | None" = None) -> OverbookingSweep:
    """Run the k sweep plus the full model (cached per world+config+ks).

    The cache key holds the whole config, ``ks``, the semantic shard
    knobs and the world the sweep runs on: a source's pinned world,
    matched by identity, or else its app catalog, from which (with the
    config) an unpinned source builds the same world every time.
    Results are invariant under the execution knobs (parallelism,
    backend), so the key deliberately ignores them. The cache keeps the
    :data:`SWEEP_CACHE_SIZE` most recently used sweeps.
    """
    from repro.runner import Runner, WorldSource, default_exec_options

    config = config or ExperimentConfig()
    source = source or WorldSource()
    options = default_exec_options()
    pinned = source.world
    world_token = (id(pinned) if pinned is not None
                   else tuple(app.app_id for app in source.apps))
    cache_key = (config, tuple(ks), options.shards, options.max_shards,
                 world_token)
    cached = _SWEEP_CACHE.get(cache_key)
    if cached is not None:
        _SWEEP_CACHE.move_to_end(cache_key)
        return cached[1]

    def headline(variant):
        return Runner(variant, source=source).run("headline").comparison

    points = []
    for k in ks:
        variant = config.variant(
            policy="random-k",
            policy_kwargs={"k": k},
            max_replicas=max(k, 1),
            rescue_batch=0,           # isolate static replication
        )
        points.append(_point(f"random-{k}", headline(variant)))
    full = headline(config.variant(policy="staggered"))
    sweep = OverbookingSweep(points=points,
                             full_model=_point("staggered+rescue", full))
    # The entry holds the pinned world so its id is not reused while
    # the entry lives.
    _SWEEP_CACHE[cache_key] = (pinned, sweep)
    _SWEEP_CACHE.move_to_end(cache_key)
    while len(_SWEEP_CACHE) > SWEEP_CACHE_SIZE:
        _SWEEP_CACHE.popitem(last=False)
    return sweep
