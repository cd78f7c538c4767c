"""Miniature-scale runs of the sweep experiments.

The benchmarks exercise these at full bench scale; here we only verify
the runners' mechanics (structure, caching, labels) on a tiny world.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.e5_e6_overbooking import run_e5_e6
from repro.experiments.e9_headline import run_e9
from repro.experiments.x2_fast_dormancy import run_x2


def test_e9_headline_structure(tiny_config):
    table = run_e9(tiny_config)
    assert {row.system for row in table.rows} == {
        "naive-prefetch", "overbooking", "oracle"}
    assert table.realtime_ad_joules_per_user_day > 0
    system = table.row_for("overbooking")
    assert system.energy_savings > 0.3
    with pytest.raises(KeyError):
        table.row_for("nope")
    rendered = table.render()
    assert "realtime" in rendered and "overbooking" in rendered


def test_e5_e6_sweep_structure_and_cache(tiny_config):
    first = run_e5_e6(tiny_config, ks=(1, 2))
    assert [p.label for p in first.points] == ["random-1", "random-2"]
    assert first.full_model.label == "staggered+rescue"
    # k=1 random replication must violate far more than the full model.
    assert (first.points[0].sla_violation_rate
            > 3 * first.full_model.sla_violation_rate)
    # Second call with identical arguments returns the cached object.
    second = run_e5_e6(tiny_config, ks=(1, 2))
    assert second is first


@pytest.mark.parametrize("change", [
    pytest.param({"train_days": 3}, id="train_days"),
    pytest.param({"predictor": "oracle"}, id="predictor"),
    pytest.param({"faults": "plan"}, id="faults"),
    pytest.param({"n_campaigns": 120}, id="n_campaigns"),
    pytest.param({"shards": 3}, id="shards"),
    pytest.param({"max_shards": 1}, id="max_shards"),
])
def test_e5_e6_cache_misses_on_any_input_change(change):
    from repro.experiments.e13_faults import plan_for
    from repro.runner import ExecOptions, set_default_exec_options

    config = ExperimentConfig(n_users=12, n_days=4, train_days=2, seed=41)
    first = run_e5_e6(config, ks=(1,))
    knobs = {k: v for k, v in change.items()
             if k in ("shards", "max_shards")}
    fields = {k: (plan_for(0.2, config) if v == "plan" else v)
              for k, v in change.items() if k not in knobs}
    set_default_exec_options(ExecOptions(**knobs))
    assert run_e5_e6(config.variant(**fields), ks=(1,)) is not first


def test_x2_grid_structure(tiny_config):
    study = run_x2(tiny_config)
    assert len(study.cells) == 4
    assert study.cell("realtime", "3g").savings_vs_baseline == 0.0
    assert study.cell("prefetch", "3g-fd").ad_j_per_user_day < (
        study.cell("realtime", "3g").ad_j_per_user_day)
    with pytest.raises(KeyError):
        study.cell("nope", "3g")
    assert "fast dormancy" in study.render()


def test_e12_radio_activity_structure(tiny_config):
    from repro.experiments.e12_radio_activity import run_e12

    figure = run_e12(tiny_config)
    assert figure.realtime_wakeups_per_user_day > 0
    assert (figure.prefetch_wakeups_per_user_day
            <= figure.realtime_wakeups_per_user_day)
    # Residency shares are fractions of the horizon, idle excluded.
    for shares in (figure.realtime_residency, figure.prefetch_residency):
        assert "idle" not in shares
        assert all(0.0 <= v <= 1.0 for v in shares.values())
    assert "wakeups" in figure.render()
