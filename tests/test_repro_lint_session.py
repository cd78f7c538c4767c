"""Interprocedural session: module graph, call graph, on-disk run.

Covers the project-wide half of ``repro-lint``: symbol resolution
across import aliases and ``__init__.py`` re-exports, shard
reachability, suppression of project findings on an on-disk run, and
the gitignore-aware file walker.
"""

from __future__ import annotations

import textwrap

from repro.analysis.callgraph import CallGraph, ProjectContext
from repro.analysis.engine import GitIgnore, iter_python_files, run_analysis
from repro.analysis.modgraph import ModuleGraph, build_summary
from repro.analysis.context import FileContext
from repro.analysis.session import AnalysisSession


def graph_of(files: dict[str, str]) -> ModuleGraph:
    summaries = [
        build_summary(FileContext(textwrap.dedent(source), path))
        for path, source in files.items()
    ]
    return ModuleGraph.from_summaries(summaries)


# ---------------------------------------------------------------------
# Symbol resolution (context + modgraph edge cases)
# ---------------------------------------------------------------------


class TestSymbolResolution:
    def test_plain_definition(self):
        graph = graph_of({"src/repro/sim/rng.py": """
            class RngRegistry:
                def stream(self, name):
                    return name
            """})
        assert (graph.resolve("repro.sim.rng.RngRegistry")
                == "repro.sim.rng.RngRegistry")
        assert (graph.resolve("repro.sim.rng.RngRegistry.stream")
                == "repro.sim.rng.RngRegistry.stream")

    def test_import_module_alias(self):
        graph = graph_of({
            "src/repro/sim/rng.py": "class RngRegistry:\n    pass\n",
            "src/repro/sim/loop.py": """
                import repro.sim.rng as rng_mod

                def run():
                    return rng_mod.RngRegistry()
                """,
        })
        assert (graph.resolve("repro.sim.loop.rng_mod.RngRegistry")
                == "repro.sim.rng.RngRegistry")

    def test_from_import_as_alias(self):
        graph = graph_of({
            "src/repro/sim/rng.py": "class RngRegistry:\n    pass\n",
            "src/repro/sim/loop.py":
                "from repro.sim.rng import RngRegistry as Registry\n",
        })
        assert (graph.resolve("repro.sim.loop.Registry")
                == "repro.sim.rng.RngRegistry")

    def test_reexport_through_init(self):
        graph = graph_of({
            "src/repro/sim/__init__.py": "from .rng import RngRegistry\n",
            "src/repro/sim/rng.py": "class RngRegistry:\n    pass\n",
        })
        assert (graph.resolve("repro.sim.RngRegistry")
                == "repro.sim.rng.RngRegistry")

    def test_relative_import_absolutized(self):
        graph = graph_of({
            "src/repro/experiments/config.py": "class Config:\n    pass\n",
            "src/repro/experiments/harness.py": """
                from .config import Config

                def load():
                    return Config()
                """,
        })
        assert (graph.resolve("repro.experiments.harness.Config")
                == "repro.experiments.config.Config")

    def test_method_resolution_walks_bases(self):
        graph = graph_of({
            "src/repro/sim/base.py": """
                class Base:
                    def merge(self, other):
                        return other
                """,
            "src/repro/sim/child.py": """
                from repro.sim.base import Base

                class Child(Base):
                    pass
                """,
        })
        assert (graph.resolve_method("repro.sim.child.Child", "merge")
                == "repro.sim.base.Base.merge")

    def test_reexport_cycle_terminates(self):
        graph = graph_of({
            "src/repro/a/__init__.py": "from repro.b import thing\n",
            "src/repro/b/__init__.py": "from repro.a import thing\n",
        })
        assert graph.resolve("repro.a.thing") is None

    def test_unknown_symbol_is_none(self):
        graph = graph_of({"src/repro/sim/rng.py": "X = 1\n"})
        assert graph.resolve("repro.sim.rng.Missing") is None
        assert graph.resolve("numpy.random.default_rng") is None


# ---------------------------------------------------------------------
# Call graph + reachability
# ---------------------------------------------------------------------


class TestCallGraph:
    def test_reachability_closure(self):
        graph = graph_of({
            "src/repro/experiments/harness.py": """
                from repro.sim.state import tick

                def execute_shard(job):
                    return tick(job)
                """,
            "src/repro/sim/state.py": """
                def tick(job):
                    return inner(job)

                def inner(job):
                    return job

                def unrelated(job):
                    return job
                """,
        })
        project = ProjectContext.build(graph)
        assert "repro.sim.state.tick" in project.reachable
        assert "repro.sim.state.inner" in project.reachable
        assert "repro.sim.state.unrelated" not in project.reachable

    def test_class_entry_point_expands_methods(self):
        graph = graph_of({
            "src/repro/experiments/harness.py": """
                class ShardJob:
                    def digest(self):
                        return helper()

                def helper():
                    return 1
                """,
        })
        project = ProjectContext.build(graph)
        assert "repro.experiments.harness.helper" in project.reachable

    def test_chain_renders_provenance(self):
        graph = graph_of({
            "src/repro/experiments/harness.py": """
                def execute_shard(job):
                    return helper(job)

                def helper(job):
                    return job
                """,
        })
        callgraph = CallGraph(graph)
        _reach, parents = callgraph.reachable(
            ("repro.experiments.harness.execute_shard",))
        chain = callgraph.chain("repro.experiments.harness.helper", parents)
        assert chain == "harness.helper <- harness.execute_shard"


# ---------------------------------------------------------------------
# On-disk run: project-rule suppression through the merge
# ---------------------------------------------------------------------


class TestOnDiskRun:
    def test_waivers_suppress_project_findings(self, tmp_path, monkeypatch):
        pkg = tmp_path / "src" / "repro"
        (pkg / "experiments").mkdir(parents=True)
        (pkg / "sim").mkdir()
        (pkg / "experiments" / "harness.py").write_text(textwrap.dedent("""
            from repro.sim.helpers import remember

            _SEEN = {}


            def execute_shard(job):
                _SEEN.update(
                    last=job,  # repro-lint: disable=RPR006
                )
                return remember(job)
            """))
        (pkg / "sim" / "helpers.py").write_text(textwrap.dedent("""
            # repro-lint: disable-file=RPR001,RPR006
            import time

            _CACHE = {}


            def remember(key):
                _CACHE[key] = time.time()
                return key
            """))
        monkeypatch.chdir(tmp_path)
        report = run_analysis(["src"])
        assert report.parse_errors == []
        assert report.files_analyzed == 2
        assert report.findings == []
        # _SEEN.update (line waiver on a continuation line), _CACHE
        # write (file waiver, RPR006), time.time() (file waiver, RPR001).
        assert report.suppressed == 3


# ---------------------------------------------------------------------
# File walker
# ---------------------------------------------------------------------


class TestFileWalker:
    def test_pycache_and_venv_skipped(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("X = 1\n")
        (tmp_path / ".venv" / "lib").mkdir(parents=True)
        (tmp_path / ".venv" / "lib" / "site.py").write_text("X = 1\n")
        (tmp_path / "pkg" / "real.py").write_text("X = 1\n")
        found = [p.name for p in iter_python_files(
            [tmp_path], gitignore=GitIgnore([]))]
        assert found == ["real.py"]

    def test_gitignored_paths_skipped(self, tmp_path):
        (tmp_path / ".gitignore").write_text(
            "scratch/\nskipme_*.py\n# comment\n")
        (tmp_path / "scratch").mkdir()
        (tmp_path / "scratch" / "junk.py").write_text("X = 1\n")
        (tmp_path / "skipme_draft.py").write_text("X = 1\n")
        (tmp_path / "kept.py").write_text("X = 1\n")
        gitignore = GitIgnore.load(tmp_path)
        found = [p.name for p in iter_python_files([tmp_path],
                                                   gitignore=gitignore)]
        assert found == ["kept.py"]

    def test_explicit_file_argument_always_wins(self, tmp_path):
        target = tmp_path / "skipme_draft.py"
        target.write_text("X = 1\n")
        gitignore = GitIgnore(["skipme_*.py"])
        found = list(iter_python_files([target], gitignore=gitignore))
        assert found == [target]


# ---------------------------------------------------------------------
# Session plumbing
# ---------------------------------------------------------------------


class TestSessionPlumbing:
    def test_select_filters_project_rules(self):
        session = AnalysisSession(select=["RPR006"])
        assert [r.id for r in session.project_rules] == ["RPR006"]
        assert session.rules == []

    def test_unknown_rule_id_raises(self):
        try:
            AnalysisSession(select=["RPR999"])
        except ValueError as exc:
            assert "RPR999" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")
