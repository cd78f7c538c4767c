"""Self-application: repro-lint must hold over this repository.

These tests are the enforcement half of the determinism contract: the
shipped tree (``src/`` and ``tests/``) must produce zero findings, the
committed stream manifest must match the code, and an injected
determinism hazard must be caught (the acceptance scenario:
``np.random.default_rng()`` smuggled into ``repro/sim/processes.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_source, run_analysis
from repro.analysis.cli import main as lint_main
from repro.analysis.manifest import build_stream_manifest, check_manifest

REPO_ROOT = Path(__file__).resolve().parent.parent
MANIFEST = REPO_ROOT / "analysis" / "streams.json"


@pytest.fixture(scope="module")
def repo_report():
    """One analysis of the whole tree, shared across tests (cwd-safe)."""
    import os
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return run_analysis(["src", "tests"])
    finally:
        os.chdir(cwd)


class TestSelfApplication:
    def test_tree_is_clean(self, repo_report):
        findings = repo_report.findings
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)

    def test_no_parse_errors(self, repo_report):
        assert repo_report.parse_errors == []

    def test_every_shipped_file_analyzed(self, repo_report):
        # The walk must actually cover the tree (guards against a
        # discovery regression silently linting nothing).
        assert repo_report.files_analyzed > 100

    def test_stream_manifest_matches_code(self, repo_report):
        assert check_manifest(repo_report.stream_sites, MANIFEST) == []

    def test_manifest_covers_known_streams(self, repo_report):
        names = {entry["name"] for entry
                 in build_stream_manifest(repo_report.stream_sites)["streams"]}
        # Anchor streams the experiments depend on; renaming any of
        # these re-seeds a component and must show up here.
        for expected in ("population", "trace", "radio-assignment",
                         "campaigns{rng_tag}", "dispatch{rng_tag}"):
            assert expected in names, names

    def test_cli_exit_code_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src", "tests", "--check-manifest"]) == 0


class TestInjectionScenario:
    """The acceptance drill: a smuggled RNG construction must fail."""

    def test_default_rng_injected_into_processes_fails(self):
        source = (REPO_ROOT / "src/repro/sim/processes.py").read_text()
        injected = source + (
            "\n\ndef _smuggled():\n"
            "    return np.random.default_rng().random()\n")
        findings = analyze_source(injected, "src/repro/sim/processes.py")
        assert any(f.rule == "RPR002" for f in findings)

    def test_wall_clock_injected_into_engine_fails(self):
        source = (REPO_ROOT / "src/repro/sim/engine.py").read_text()
        injected = source.replace(
            "from __future__ import annotations",
            "from __future__ import annotations\nimport time as _time")
        injected += "\n\ndef _leaky_now():\n    return _time.time()\n"
        findings = analyze_source(injected, "src/repro/sim/engine.py")
        assert any(f.rule == "RPR001" for f in findings)

    def test_stream_rename_breaks_manifest(self, repo_report):
        sites = [type(s)(template=("renamed" if s.template == "trace"
                                   else s.template),
                         path=s.path)
                 for s in repo_report.stream_sites]
        problems = check_manifest(sites, MANIFEST)
        assert any("renamed" in p for p in problems)
        assert any("trace" in p for p in problems)


STREAM_MODULE = """\
def draw(registry):
    return registry.stream("trace").random()
"""


class TestStreamManifest:
    """The manifest records files, so only file-level moves are drift."""

    @pytest.fixture
    def project(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "src/repro/sim").mkdir(parents=True)
        (tmp_path / "src/repro/sim/draws.py").write_text(STREAM_MODULE)
        assert lint_main(["src", "--write-manifest"]) == 0
        return tmp_path

    def test_line_moves_leave_the_manifest_byte_identical(self, project):
        manifest = project / "analysis/streams.json"
        before = manifest.read_bytes()
        assert json.loads(before)["streams"] == [
            {"name": "trace", "sites": ["src/repro/sim/draws.py"]}]
        (project / "src/repro/sim/draws.py").write_text(
            '"""Docstring that pushes every line down."""\n\n\n'
            + STREAM_MODULE)
        assert lint_main(["src", "--check-manifest"]) == 0
        assert lint_main(["src", "--write-manifest"]) == 0
        assert manifest.read_bytes() == before

    def test_a_stream_moving_files_is_drift(self, project, capsys):
        (project / "src/repro/sim/draws.py").rename(
            project / "src/repro/sim/moved.py")
        assert lint_main(["src", "--check-manifest"]) == 1
        assert "call sites moved" in capsys.readouterr().out

    def test_any_other_difference_is_drift(self, project, capsys):
        manifest = project / "analysis/streams.json"
        payload = json.loads(manifest.read_text())
        payload["_comment"] = "hand-edited"
        manifest.write_text(json.dumps(payload))
        assert lint_main(["src", "--check-manifest"]) == 1
        assert "outside its stream list" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", ["[]", '{"streams": 3}',
                                         '{"streams": [1]}'])
    def test_a_manifest_of_the_wrong_shape_is_one_drift_line(
            self, project, capsys, payload):
        (project / "analysis/streams.json").write_text(payload)
        assert lint_main(["src", "--check-manifest"]) == 1
        drift = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("manifest: ")]
        assert len(drift) == 1
        assert "not an object with a list of streams" in drift[0]


class TestCliGrowth:
    """Positional paths: file subsets and missing paths."""

    def test_paths_file_subset(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = lint_main(["src/repro/sim/rng.py", "src/repro/sim/engine.py"])
        assert code == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.endswith(" 2 file(s) analyzed"), summary

    def test_paths_missing_file_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src/repro/sim", "src/repro/nope.py"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro-lint: path(s) not found: src/repro/nope.py"]

    def test_paths_non_python_file_is_usage_error(self, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src/repro/sim", "README.md"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro-lint: not a .py file: README.md"]
