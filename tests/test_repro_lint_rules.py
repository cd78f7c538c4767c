"""Unit tests for the repro-lint rule families on synthetic snippets.

Each rule family gets positive cases (the hazard is reported) and
negative cases (the disciplined idiom passes), plus suppression-comment
handling. Snippets are analyzed in-memory via
:func:`repro.analysis.analyze_source` with paths chosen to exercise the
path-sensitive rules (``repro/sim/rng.py`` construction amnesty,
``repro/metrics/`` accumulator scoping).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_source
from repro.analysis.context import FileContext
from repro.analysis.rules.rng_streams import stream_name_template
from repro.analysis.rules.units import unit_of

SIM_PATH = "src/repro/sim/processes.py"


def lint(source: str, path: str = SIM_PATH):
    return analyze_source(textwrap.dedent(source), path)


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


# ---------------------------------------------------------------------
# RPR001 — determinism hazards
# ---------------------------------------------------------------------


class TestDeterminism:
    def test_stdlib_global_random_flagged(self):
        findings = lint("""
            import random

            def jitter() -> float:
                return random.random()
            """)
        assert rules_of(findings) == {"RPR001"}
        assert "global RNG" in findings[0].message

    def test_from_import_random_resolved(self):
        findings = lint("""
            from random import uniform

            def jitter() -> float:
                return uniform(0, 1)
            """)
        assert rules_of(findings) == {"RPR001"}

    def test_wall_clock_flagged(self):
        findings = lint("""
            import time

            def stamp() -> float:
                return time.time()
            """)
        assert rules_of(findings) == {"RPR001"}

    def test_datetime_now_flagged_through_from_import(self):
        findings = lint("""
            from datetime import datetime

            def stamp():
                return datetime.now()
            """)
        assert rules_of(findings) == {"RPR001"}

    def test_perf_counter_allowed(self):
        assert lint("""
            import time

            def elapsed() -> float:
                started = time.perf_counter()
                return time.perf_counter() - started
            """) == []

    def test_perf_counter_flagged_inside_obs(self):
        # Observability code must carry simulated time only; even the
        # monotonic allowlist is confined to repro/obs/profile.py.
        findings = lint("""
            import time

            def stamp() -> float:
                return time.perf_counter()
            """, path="src/repro/obs/trace.py")
        assert rules_of(findings) == {"RPR001"}
        assert "repro/obs/profile.py" in findings[0].message

    def test_perf_counter_allowed_in_obs_profile(self):
        assert lint("""
            import time

            def elapsed() -> float:
                started = time.perf_counter()
                return time.perf_counter() - started
            """, path="src/repro/obs/profile.py") == []

    def test_process_time_allowed_in_obs_resources(self):
        # Resource telemetry (CPU seconds, peak RSS) is the second and
        # last repro.obs module allowed to read a clock.
        assert lint("""
            import time

            def cpu_time_s() -> float:
                return time.process_time()
            """, path="src/repro/obs/resources.py") == []

    def test_clock_still_flagged_in_obs_ledger(self):
        # The allowlist names profile.py and resources.py exactly; any
        # other repro.obs module reading a clock fails lint.
        findings = lint("""
            import time

            def stamp() -> float:
                return time.perf_counter()
            """, path="src/repro/obs/ledger.py")
        assert rules_of(findings) == {"RPR001"}
        assert "repro/obs/resources.py" in findings[0].message

    def test_threaded_generator_draw_allowed(self):
        assert lint("""
            import numpy as np

            def draw(rng: np.random.Generator) -> float:
                return float(rng.random())
            """) == []

    def test_for_over_set_flagged(self):
        findings = lint("""
            def total(users):
                acc = 0.0
                for uid in set(users):
                    acc += len(uid)
                return acc
            """)
        assert rules_of(findings) == {"RPR001"}
        assert "PYTHONHASHSEED" in findings[0].message

    def test_sum_over_set_literal_flagged(self):
        findings = lint("""
            def total(a, b, c):
                return sum({a, b, c})
            """)
        assert rules_of(findings) == {"RPR001"}

    def test_sorted_set_allowed(self):
        assert lint("""
            def total(users):
                acc = 0.0
                for uid in sorted(set(users)):
                    acc += len(uid)
                return acc
            """) == []

    def test_dict_iteration_allowed(self):
        # dicts iterate in insertion order (py3.7+): deterministic.
        assert lint("""
            def total(table):
                return sum(table.values())
            """) == []


# ---------------------------------------------------------------------
# RPR002 — RNG stream discipline
# ---------------------------------------------------------------------


class TestRngStreams:
    def test_default_rng_outside_rng_home_flagged(self):
        findings = lint("""
            import numpy as np

            def make():
                return np.random.default_rng(7)
            """)
        assert rules_of(findings) == {"RPR002"}

    def test_default_rng_without_import_still_flagged(self):
        # An un-imported ``np`` is a NameError at runtime, but the
        # hazard must not hide behind the missing import.
        findings = lint("""
            def make():
                return np.random.default_rng(7)
            """)
        assert rules_of(findings) == {"RPR002"}

    def test_legacy_randomstate_flagged(self):
        findings = lint("""
            import numpy as np

            def make():
                return np.random.RandomState(7)
            """)
        assert rules_of(findings) == {"RPR002"}

    def test_construction_allowed_in_rng_home(self):
        assert lint("""
            import numpy as np

            def make(seed) -> np.random.Generator:
                return np.random.Generator(np.random.PCG64(seed))
            """, path="src/repro/sim/rng.py") == []

    def test_literal_stream_name_allowed(self):
        assert lint("""
            def build(registry):
                return registry.stream("traces")
            """) == []

    def test_tag_concatenation_allowed(self):
        assert lint("""
            def build(registry, rng_tag: str):
                return registry.fresh("campaigns" + rng_tag)
            """) == []

    def test_fstring_stream_name_allowed(self):
        assert lint("""
            def build(registry, shard: int):
                return registry.stream(f"exchange#{shard}")
            """) == []

    def test_computed_stream_name_flagged(self):
        findings = lint("""
            def build(registry, names):
                return registry.stream(names.pop())
            """)
        assert rules_of(findings) == {"RPR002"}
        assert "statically resolvable" in findings[0].message

    def test_stream_call_arity_flagged(self):
        findings = lint("""
            def build(registry):
                return registry.stream("a", "b")
            """)
        assert rules_of(findings) == {"RPR002"}

    def test_stream_name_template_rendering(self):
        import ast

        def template_of(expr: str):
            return stream_name_template(ast.parse(expr, mode="eval").body)

        assert template_of("'traces'") == "traces"
        assert template_of("'campaigns' + rng_tag") == "campaigns{rng_tag}"
        assert template_of("f'user-{uid}'") == "user-{uid}"
        assert template_of("names.pop()") is None

    def test_module_constants_fold_into_templates(self):
        """The repro.faults idiom: stream prefixes named once at module
        level must resolve to their literal values in the manifest."""
        import ast

        from repro.analysis.rules.rng_streams import module_constants

        tree = ast.parse(textwrap.dedent("""
            STREAM_LOSS = "faults.loss"
            STREAM_OUTAGE: str = "faults.outage"
            REBOUND = "first"
            REBOUND = "second"
            NOT_STR = 7

            def build(registry, uid):
                return registry.fresh(f"{STREAM_LOSS}:{uid}")
            """))
        constants = module_constants(tree)
        assert constants == {"STREAM_LOSS": "faults.loss",
                             "STREAM_OUTAGE": "faults.outage"}

        def template_of(expr: str):
            return stream_name_template(ast.parse(expr, mode="eval").body,
                                        constants)

        assert template_of("f'{STREAM_LOSS}:{uid}'") == "faults.loss:{uid}"
        assert template_of("STREAM_OUTAGE") == "faults.outage"
        assert template_of("f'{REBOUND}:{uid}'") == "{REBOUND}:{uid}"
        assert template_of("f'{unknown}'") == "{unknown}"

    def test_constant_folded_stream_call_passes_lint(self):
        assert lint("""
            PREFIX = "faults.loss"

            def build(registry, uid):
                return registry.fresh(f"{PREFIX}:{uid}")
            """) == []


# ---------------------------------------------------------------------
# RPR005 — nondeterministic numpy entry points
# ---------------------------------------------------------------------


class TestNumpyEntropy:
    def test_numpy_global_state_flagged(self):
        findings = lint("""
            import numpy as np

            def noise():
                np.random.seed(0)
                return np.random.rand(4)
            """)
        assert len(findings) == 2
        assert rules_of(findings) == {"RPR005"}
        assert "hidden global RandomState" in findings[0].message

    def test_unseeded_default_rng_flagged_even_in_rng_home(self):
        # RPR002 grants repro/sim/rng.py construction amnesty; RPR005
        # does not — the registry itself must seed everything it builds.
        findings = lint("""
            import numpy as np

            def make():
                return np.random.default_rng()
            """, path="src/repro/sim/rng.py")
        assert rules_of(findings) == {"RPR005"}
        assert "explicit seed" in findings[0].message

    def test_none_seed_is_unseeded(self):
        findings = lint("""
            import numpy as np

            def make():
                return np.random.default_rng(seed=None)
            """, path="src/repro/sim/rng.py")
        assert rules_of(findings) == {"RPR005"}

    def test_unseeded_seedsequence_flagged(self):
        findings = lint("""
            import numpy as np

            def make():
                return np.random.SeedSequence()
            """, path="src/repro/sim/rng.py")
        assert rules_of(findings) == {"RPR005"}

    def test_seeded_construction_in_rng_home_passes(self):
        assert lint("""
            import numpy as np

            def make(seed: int) -> np.random.Generator:
                return np.random.Generator(np.random.PCG64(seed))
            """, path="src/repro/sim/rng.py") == []

    def test_unseeded_outside_home_gets_both_rules(self):
        # Outside the home module the same call is two violations:
        # construction out of place (RPR002) and entropy seeding (RPR005).
        findings = lint("""
            import numpy as np

            def make():
                return np.random.default_rng()
            """)
        assert rules_of(findings) == {"RPR002", "RPR005"}

    def test_system_random_always_flagged(self):
        findings = lint("""
            import random

            def token():
                return random.SystemRandom().random()
            """, path="src/repro/sim/rng.py")
        assert rules_of(findings) == {"RPR005"}
        assert "OS-entropy" in findings[0].message

    def test_threaded_generator_draw_passes(self):
        assert lint("""
            import numpy as np

            def draw(rng: np.random.Generator, n: int):
                return rng.poisson(2.0, n)
            """) == []

    def test_kwargs_splat_gets_benefit_of_the_doubt(self):
        assert lint("""
            import numpy as np

            def make(**kwargs):
                return np.random.default_rng(**kwargs)
            """, path="src/repro/sim/rng.py") == []


# ---------------------------------------------------------------------
# RPR003 — unit discipline
# ---------------------------------------------------------------------


class TestUnits:
    def test_cross_dimension_add_flagged(self):
        findings = lint("""
            def total(tail_j: float, epoch_s: float) -> float:
                return tail_j + epoch_s
            """)
        assert rules_of(findings) == {"RPR003"}
        assert "mixes dimensions" in findings[0].message

    def test_scale_mismatch_flagged(self):
        findings = lint("""
            def total(latency_s: float, timeout_ms: float) -> float:
                return latency_s - timeout_ms
            """)
        assert rules_of(findings) == {"RPR003"}
        assert "scales" in findings[0].message

    def test_comparison_mismatch_flagged(self):
        findings = lint("""
            def late(deadline_s: float, energy_j: float) -> bool:
                return deadline_s > energy_j
            """)
        assert rules_of(findings) == {"RPR003"}

    def test_keyword_mismatch_flagged(self):
        findings = lint("""
            def build(report, duration_ms):
                return report(ad_joules=duration_ms)
            """)
        assert rules_of(findings) == {"RPR003"}
        assert "keyword" in findings[0].message

    def test_same_unit_arithmetic_allowed(self):
        assert lint("""
            def total(ad_joules: float, app_joules: float) -> float:
                return ad_joules + app_joules
            """) == []

    def test_multiplication_combines_dimensions_allowed(self):
        assert lint("""
            def rate(energy_j: float, window_s: float) -> float:
                return energy_j / window_s
            """) == []

    def test_count_prefix_exempt(self):
        assert lint("""
            def horizon(n_days: int, train_days: int) -> int:
                return n_days - train_days
            """) == []

    def test_unit_named_function_literal_return_flagged(self):
        findings = lint("""
            def tail_energy_j() -> float:
                return 12.5
            """)
        assert rules_of(findings) == {"RPR003"}
        assert "bare literal" in findings[0].message

    def test_unit_named_function_zero_default_allowed(self):
        assert lint("""
            def tail_energy_j(samples) -> float:
                if not samples:
                    return 0.0
                return sum(samples)
            """) == []

    def test_unit_of_helper(self):
        assert unit_of("ad_joules") == ("joules", "energy", 1.0)
        assert unit_of("epoch_s") == ("s", "time", 1.0)
        assert unit_of("n_days") is None
        assert unit_of("plain") is None


# ---------------------------------------------------------------------
# RPR004 — merge associativity
# ---------------------------------------------------------------------

METRICS_PATH = "src/repro/metrics/accumulators.py"


class TestMerges:
    def test_accumulator_without_merge_flagged(self):
        findings = lint("""
            class BrokenAccumulator:
                total: float = 0.0
            """, path=METRICS_PATH)
        assert rules_of(findings) == {"RPR004"}
        assert "no merge()" in findings[0].message

    def test_mutating_merge_flagged(self):
        findings = lint("""
            class SneakyAccumulator:
                def __init__(self):
                    self.total = 0.0

                def merge(self, other):
                    self.total += other.total
            """, path=METRICS_PATH)
        assert rules_of(findings) == {"RPR004"}
        assert "never returns" in findings[0].message

    def test_pure_merge_allowed(self):
        assert lint("""
            class GoodAccumulator:
                def __init__(self, total: float = 0.0):
                    self.total = total

                def merge(self, other):
                    return GoodAccumulator(self.total + other.total)
            """, path=METRICS_PATH) == []

    def test_set_reduction_in_metrics_flagged(self):
        findings = lint("""
            def total(values):
                return sum(set(values))
            """, path=METRICS_PATH)
        # RPR001 flags the hashseed hazard; RPR004 flags it again as a
        # float-associativity hazard specific to metrics code.
        assert rules_of(findings) == {"RPR001", "RPR004"}

    def test_rule_scoped_to_mergeable_packages(self):
        assert lint("""
            class ElsewhereAccumulator:
                total: float = 0.0
            """, path="src/repro/client/cache.py") == []

    def test_mutating_merge_flagged_in_obs_tree(self):
        # Any class defining merge — accumulator-named or not — must
        # return a value when it lives in a mergeable tree.
        findings = lint("""
            class Snapshot:
                def __init__(self):
                    self.counters = {}

                def merge(self, other):
                    self.counters.update(other.counters)
            """, path="src/repro/obs/metrics.py")
        assert rules_of(findings) == {"RPR004"}
        assert "never returns" in findings[0].message

    def test_non_accumulator_without_merge_allowed(self):
        # Only *Accumulator names are obliged to define merge; helper
        # classes in the mergeable trees may simply have none.
        assert lint("""
            class TraceEvent:
                ts: float = 0.0
            """, path="src/repro/obs/trace.py") == []

    def test_pure_snapshot_merge_allowed_in_obs_tree(self):
        assert lint("""
            class Snapshot:
                def __init__(self, counters=None):
                    self.counters = counters or {}

                def merge(self, other):
                    merged = dict(self.counters)
                    merged.update(other.counters)
                    return Snapshot(merged)
            """, path="src/repro/obs/metrics.py") == []


# ---------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------


class TestSuppression:
    def test_line_suppression(self):
        findings = lint("""
            import time

            def stamp() -> float:
                return time.time()  # repro-lint: disable=RPR001
            """)
        assert findings == []

    def test_line_suppression_wrong_rule_keeps_finding(self):
        findings = lint("""
            import time

            def stamp() -> float:
                return time.time()  # repro-lint: disable=RPR002
            """)
        assert rules_of(findings) == {"RPR001"}

    def test_multi_rule_suppression(self):
        findings = lint("""
            import time

            def stamp() -> float:
                return time.time()  # repro-lint: disable=RPR002,RPR001
            """)
        assert findings == []

    def test_disable_all_on_line(self):
        findings = lint("""
            import time

            def stamp() -> float:
                return time.time()  # repro-lint: disable=all
            """)
        assert findings == []

    def test_file_level_suppression(self):
        findings = lint("""
            # repro-lint: disable-file=RPR001
            import time

            def stamp() -> float:
                return time.time()
            """)
        assert findings == []

    def test_suppression_must_sit_on_the_finding_line(self):
        findings = lint("""
            import time

            # repro-lint: disable=RPR001
            def stamp() -> float:
                return time.time()
            """)
        assert rules_of(findings) == {"RPR001"}


# ---------------------------------------------------------------------
# Context plumbing
# ---------------------------------------------------------------------


class TestContext:
    def test_module_parts(self):
        ctx = FileContext("x = 1\n", "src/repro/sim/rng.py")
        assert ctx.module == "repro.sim.rng"
        assert not ctx.is_test

    def test_test_detection(self):
        ctx = FileContext("x = 1\n", "tests/test_cli.py")
        assert ctx.is_test

    def test_alias_resolution(self):
        ctx = FileContext("import numpy.random as npr\n",
                          "src/repro/sim/a.py")
        import ast
        call = ast.parse("npr.default_rng()", mode="eval").body
        assert ctx.dotted_name(call.func) == "numpy.random.default_rng"

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            analyze_source("def broken(:\n", "src/repro/x.py")


# ---------------------------------------------------------------------
# Interprocedural rules (RPR006, RPR008) - injected-violation drills
# ---------------------------------------------------------------------


from repro.analysis.session import analyze_project_sources  # noqa: E402

HARNESS = "src/repro/experiments/harness.py"


def project_lint(files: dict[str, str], select: list[str] | None = None):
    dedented = {path: textwrap.dedent(source)
                for path, source in files.items()}
    return analyze_project_sources(dedented, select=select)


class TestShardPurity:
    def test_global_mutation_reachable_from_shard_flagged(self):
        findings = project_lint({HARNESS: """
            _CACHE = {}

            def remember(key):
                _CACHE[key] = True
                return key

            def execute_shard(job):
                return remember(job)
            """}, select=["RPR006"])
        assert rules_of(findings) == {"RPR006"}
        assert "shard-reachable via" in findings[0].message
        assert "_CACHE" in findings[0].message

    def test_same_mutation_outside_shard_closure_is_clean(self):
        findings = project_lint({"src/repro/runner.py": """
            _CACHE = {}

            def remember(key):
                _CACHE[key] = True
                return key
            """}, select=["RPR006"])
        assert findings == []

    def test_environ_write_flagged(self):
        findings = project_lint({HARNESS: """
            import os

            def execute_shard(job):
                os.environ["SHARD"] = str(job)
                return job
            """}, select=["RPR006"])
        assert rules_of(findings) == {"RPR006"}
        assert "os.environ" in findings[0].message

    def test_global_statement_write_flagged(self):
        findings = project_lint({HARNESS: """
            _LAST = None

            def execute_shard(job):
                global _LAST
                _LAST = job
                return job
            """}, select=["RPR006"])
        assert rules_of(findings) == {"RPR006"}

    def test_open_outside_with_flagged_inside_with_clean(self):
        dirty = project_lint({HARNESS: """
            def execute_shard(job):
                handle = open(job)
                return handle
            """}, select=["RPR006"])
        assert rules_of(dirty) == {"RPR006"}
        clean = project_lint({HARNESS: """
            def execute_shard(job):
                with open(job) as handle:
                    return handle.read()
            """}, select=["RPR006"])
        assert clean == []

    def test_thread_spawn_flagged(self):
        findings = project_lint({HARNESS: """
            import threading

            def execute_shard(job):
                worker = threading.Thread(target=print)
                return worker
            """}, select=["RPR006"])
        assert rules_of(findings) == {"RPR006"}

    def test_cross_module_reachability(self):
        findings = project_lint({
            HARNESS: """
                from repro.sim.state import tick

                def execute_shard(job):
                    return tick(job)
                """,
            "src/repro/sim/state.py": """
                _TICKS = []

                def tick(job):
                    _TICKS.append(job)
                    return len(_TICKS)
                """,
        }, select=["RPR006"])
        assert rules_of(findings) == {"RPR006"}
        assert findings[0].path == "src/repro/sim/state.py"

    def test_suppression_with_justification_waives(self):
        findings = project_lint({HARNESS: """
            _CACHE = {}

            def execute_shard(job):
                # justified: per-process memo, rebuilt on re-execution
                _CACHE[job] = True  # repro-lint: disable=RPR006
                return job
            """}, select=["RPR006"])
        assert findings == []

    def test_mutable_class_default_on_shard_class(self):
        findings = project_lint({HARNESS: """
            class Tracker:
                seen = {}

                def note(self, item):
                    return item

            def execute_shard(job):
                tracker = Tracker()
                return tracker.note(job)
            """}, select=["RPR006"])
        assert rules_of(findings) == {"RPR006"}
        assert "mutable class-level default" in findings[0].message


class TestUnitFlow:
    def test_cross_module_argument_mismatch(self):
        findings = project_lint({
            "src/repro/sim/clock.py": """
                def wait(timeout_ms):
                    return timeout_ms
                """,
            "src/repro/sim/loop.py": """
                from repro.sim.clock import wait

                def step(delay_s):
                    return wait(delay_s)
                """,
        }, select=["RPR008"])
        assert rules_of(findings) == {"RPR008"}
        assert findings[0].path == "src/repro/sim/loop.py"
        assert "timeout_ms" in findings[0].message

    def test_matching_units_are_clean(self):
        findings = project_lint({
            "src/repro/sim/clock.py": """
                def wait(timeout_ms):
                    return timeout_ms
                """,
            "src/repro/sim/loop.py": """
                from repro.sim.clock import wait

                def step(delay_ms):
                    return wait(delay_ms)
                """,
        }, select=["RPR008"])
        assert findings == []

    def test_assignment_rebinding_mismatch(self):
        findings = project_lint({"src/repro/sim/clock.py": """
            def shift(delay_s):
                delay_ms = delay_s
                return delay_ms
            """}, select=["RPR008"])
        assert rules_of(findings) == {"RPR008"}

    def test_explicit_conversion_is_clean(self):
        findings = project_lint({"src/repro/sim/clock.py": """
            def shift(delay_s):
                delay_ms = delay_s * 1000.0
                return delay_ms
            """}, select=["RPR008"])
        assert findings == []

    def test_return_promise_mismatch(self):
        findings = project_lint({"src/repro/sim/clock.py": """
            def elapsed_ms(start_s):
                return start_s
            """}, select=["RPR008"])
        assert rules_of(findings) == {"RPR008"}
        assert "promises _ms" in findings[0].message

    def test_unit_promising_call_result_mismatch(self):
        findings = project_lint({"src/repro/sim/clock.py": """
            def window_s():
                return 3.0

            def schedule():
                window_ms = window_s()
                return window_ms
            """}, select=["RPR008"])
        assert rules_of(findings) == {"RPR008"}

    def test_method_receiver_offset(self):
        findings = project_lint({"src/repro/sim/clock.py": """
            class Timer:
                def wait(self, timeout_ms):
                    return timeout_ms

                def step(self, delay_s):
                    return self.wait(delay_s)
            """}, select=["RPR008"])
        assert rules_of(findings) == {"RPR008"}

    def test_ambiguous_callee_stays_silent(self):
        # Two classes define wait(); CHA cannot pick one, so no finding.
        findings = project_lint({"src/repro/sim/clock.py": """
            class A:
                def wait(self, timeout_ms):
                    return timeout_ms

            class B:
                def wait(self, timeout_s):
                    return timeout_s

            def step(timer, delay_s):
                return timer.wait(delay_s)
            """}, select=["RPR008"])
        assert findings == []


class TestSuppressionSpans:
    def test_comment_anywhere_on_multiline_statement(self):
        findings = lint("""
            import time

            def stamp() -> float:
                return (
                    time.time()
                )  # repro-lint: disable=RPR001
            """)
        assert findings == []

    def test_comment_on_decorator_line_covers_def(self):
        findings = lint("""
            def validated(cls):
                return cls

            @validated  # repro-lint: disable=RPR004
            class LatencyAccumulator:
                pass
            """, path="src/repro/metrics/latency.py")
        assert "RPR004" not in rules_of(findings)

    def test_comment_inside_body_does_not_blanket_the_def(self):
        findings = lint("""
            import time

            def stamp() -> float:
                x = 1  # repro-lint: disable=RPR001
                return time.time()
            """)
        assert rules_of(findings) == {"RPR001"}
