"""Self-application: repro-lint must hold over this repository.

These tests are the enforcement half of the determinism contract: the
shipped tree (``src/`` and ``tests/``) must produce zero non-baselined
findings, the committed stream manifest must match the code, and an
injected determinism hazard must be caught (the acceptance scenario:
``np.random.default_rng()`` smuggled into ``repro/sim/processes.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_source, run_analysis
from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding
from repro.analysis.cli import main as lint_main
from repro.analysis.manifest import build_stream_manifest, check_manifest

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "analysis" / "repro-lint-baseline.json"
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
    def test_tree_is_clean_of_non_baselined_findings(self, repo_report):
        baseline = Baseline.load(BASELINE)
        new, _baselined, _stale = baseline.split(repo_report.findings)
        assert new == [], "\n" + "\n".join(f.render() for f in new)

    def test_no_parse_errors(self, repo_report):
        assert repo_report.parse_errors == []

    def test_every_shipped_file_analyzed(self, repo_report):
        # The walk must actually cover the tree (guards against a
        # discovery regression silently linting nothing).
        assert repo_report.files_analyzed > 100

    def test_committed_baseline_is_empty(self):
        data = json.loads(BASELINE.read_text())
        assert data["findings"] == [], (
            "the baseline grandfathers findings; this repo's policy is "
            "fix-or-suppress-with-justification")

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

    def test_cli_json_format(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src/repro/sim", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []


class TestInjectionScenario:
    """The acceptance drill: a smuggled RNG construction must fail."""

    def test_default_rng_injected_into_processes_fails(self):
        source = (REPO_ROOT / "src/repro/sim/processes.py").read_text()
        injected = source + (
            "\n\ndef _smuggled():\n"
            "    return np.random.default_rng().random()\n")
        findings = analyze_source(injected, "src/repro/sim/processes.py")
        assert any(f.rule == "RPR002" for f in findings)
        # And the finding is new (not absorbed by the baseline).
        baseline = Baseline.load(BASELINE)
        new, _, _ = baseline.split(findings)
        assert any(f.rule == "RPR002" for f in new)

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
                         path=s.path, line=s.line)
                 for s in repo_report.stream_sites]
        problems = check_manifest(sites, MANIFEST)
        assert any("renamed" in p for p in problems)
        assert any("trace" in p for p in problems)


class TestBaselineMechanics:
    def test_round_trip(self, tmp_path):
        findings = analyze_source(
            "import time\n\n\ndef f():\n    return time.time()\n",
            "src/repro/sim/x.py")
        assert findings
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        new, baselined, stale = loaded.split(findings)
        assert new == [] and len(baselined) == len(findings)
        assert stale == []

    def test_stale_entries_surface(self, tmp_path):
        findings = analyze_source(
            "import time\n\n\ndef f():\n    return time.time()\n",
            "src/repro/sim/x.py")
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        _new, _baselined, stale = loaded.split([])
        assert len(stale) == len(findings)

    def test_fingerprint_survives_line_drift(self):
        before = analyze_source(
            "import time\n\n\ndef f():\n    return time.time()\n",
            "src/repro/sim/x.py")
        after = analyze_source(
            "import time\n\n# a comment pushing things down\n\n"
            "def f():\n    return time.time()\n",
            "src/repro/sim/x.py")
        assert before[0].line != after[0].line
        assert before[0].fingerprint == after[0].fingerprint


class TestCliGrowth:
    """The PR-2 surface: --paths subsets, SARIF, baseline prune."""

    def test_paths_file_subset(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = lint_main(["--paths",
                          "src/repro/sim/rng.py,src/repro/sim/engine.py",
                          "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_analyzed"] == 2

    def test_paths_missing_file_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["--paths", "src/repro/nope.py"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_sarif_output_validates(self, monkeypatch, capsys):
        from repro.analysis.sarif import validate_sarif
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src/repro/sim", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert validate_sarif(doc) == []

    def test_baseline_prune_drops_stale_entries(self, monkeypatch,
                                                tmp_path, capsys):
        monkeypatch.chdir(REPO_ROOT)
        stale = Finding(rule="RPR001", message="long-gone hazard",
                        path="src/repro/sim/engine.py", line=1, col=0,
                        scope="gone")
        path = tmp_path / "baseline.json"
        Baseline.from_findings([stale]).save(path)
        code = lint_main(["baseline", "prune", "src/repro/sim",
                          "--baseline", str(path)])
        assert code == 0
        assert "pruned 1 stale" in capsys.readouterr().out
        assert Baseline.load(path).entries == {}

    def test_baseline_prune_check_fails_without_writing(self, monkeypatch,
                                                        tmp_path, capsys):
        monkeypatch.chdir(REPO_ROOT)
        stale = Finding(rule="RPR001", message="long-gone hazard",
                        path="src/repro/sim/engine.py", line=1, col=0,
                        scope="gone")
        path = tmp_path / "baseline.json"
        Baseline.from_findings([stale]).save(path)
        code = lint_main(["baseline", "prune", "src/repro/sim",
                          "--baseline", str(path), "--check"])
        assert code == 1
        assert "stale" in capsys.readouterr().out
        assert len(Baseline.load(path).entries) == 1  # untouched

    def test_baseline_prune_clean_is_noop(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = lint_main(["baseline", "prune", "src/repro/faults",
                          "--baseline", str(BASELINE), "--check"])
        assert code == 0
        assert "no stale entries" in capsys.readouterr().out
