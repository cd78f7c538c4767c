"""SARIF 2.1.0 output for ``repro-lint``.

SARIF (Static Analysis Results Interchange Format) is what CI surfaces
understand: GitHub renders it as code-scanning annotations, editors
import it, and artifact archives of it diff cleanly. This module maps a
:class:`~repro.analysis.reporter.LintOutcome` onto the subset of SARIF
2.1.0 that those consumers read — ``tool.driver`` with a populated rule
catalog, one ``result`` per finding with a physical location, and the
baseline fingerprint carried in ``partialFingerprints`` so re-runs
correlate.

The container has no ``jsonschema`` package and the lint toolchain must
stay stdlib-only, so :func:`validate_sarif` embeds a structural
validator for exactly the subset we emit: required properties, types,
and value constraints lifted from the published SARIF 2.1.0 schema.
The validator is intentionally strict on what *we* produce (a test runs
every report through it) rather than a general-purpose SARIF checker.
"""

from __future__ import annotations

import json

from .reporter import LintOutcome

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: Rule catalog: id → (name, short description). Kept in one place so
#: the SARIF driver metadata and DESIGN.md stay in sync.
RULE_CATALOG: dict[str, tuple[str, str]] = {
    "RPR001": ("determinism-hazards",
               "Unseeded RNG, wall-clock, or iteration-order hazards in "
               "simulation code"),
    "RPR002": ("rng-stream-discipline",
               "RNG streams must be requested by stable name from the "
               "registry"),
    "RPR003": ("unit-suffix-discipline",
               "Quantities mix unit suffixes without an explicit "
               "conversion"),
    "RPR004": ("merge-associativity",
               "Shard-fold accumulators must merge associatively"),
    "RPR005": ("numpy-entropy",
               "Global numpy entropy (np.random.*) is banned in "
               "simulation code"),
    "RPR006": ("shard-purity",
               "Code reachable from execute_shard must not mutate state "
               "that outlives the shard"),
    "RPR007": ("serialization-safety",
               "Shard-boundary payload types must be statically "
               "picklable"),
    "RPR008": ("unit-flow",
               "Unit suffixes must survive assignments, returns, and "
               "calls across module boundaries"),
}


def _result(finding_json: dict[str, object], level: str) -> dict[str, object]:
    """One SARIF ``result`` object from a finding's JSON row."""
    return {
        "ruleId": finding_json["rule"],
        "level": level,
        "message": {"text": finding_json["message"]},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding_json["path"],
                                     "uriBaseId": "SRCROOT"},
                "region": {"startLine": max(1, int(finding_json["line"])),  # type: ignore[arg-type]
                           "startColumn": int(finding_json["col"]) + 1},  # type: ignore[arg-type]
            },
        }],
        "partialFingerprints": {
            "reproLint/v1": finding_json["fingerprint"],
        },
        "properties": {"scope": finding_json["scope"]},
    }


def sarif_report(outcome: LintOutcome, *,
                 tool_version: str = "2.0") -> dict[str, object]:
    """Map a lint outcome onto a SARIF 2.1.0 log (as a plain dict)."""
    rules = [
        {
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": text},
            "helpUri": "https://github.com/ad-prefetch-repro/"
                       "ad-prefetch-repro/blob/main/DESIGN.md",
        }
        for rule_id, (name, text) in sorted(RULE_CATALOG.items())
    ]
    results = [_result(f.to_json(), "error") for f in outcome.new_findings]
    results += [_result(f.to_json(), "note") for f in outcome.baselined]
    invocation: dict[str, object] = {
        "executionSuccessful": not outcome.parse_errors,
    }
    notifications = [
        {"level": "error", "message": {"text": error}}
        for error in outcome.parse_errors
    ] + [
        {"level": "warning", "message": {"text": f"manifest: {problem}"}}
        for problem in outcome.manifest_problems
    ]
    if notifications:
        invocation["toolExecutionNotifications"] = notifications
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "version": tool_version,
                    "informationUri": "https://github.com/ad-prefetch-repro",
                    "rules": rules,
                },
            },
            "invocations": [invocation],
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


def render_sarif(outcome: LintOutcome) -> str:
    """Serialized SARIF log for ``repro-lint --format sarif``."""
    return json.dumps(sarif_report(outcome), indent=2)


# ----------------------------------------------------------------------
# Embedded structural validator (jsonschema is not installed)
# ----------------------------------------------------------------------


def validate_sarif(doc: object) -> list[str]:
    """Structural SARIF 2.1.0 validation; returns problem strings.

    Checks the constraints the published schema imposes on the subset
    ``repro-lint`` emits: required properties, property types, the
    version literal, and per-result location shape. An empty return
    value means the document is schema-clean for this subset.
    """
    problems: list[str] = []

    def need(obj: object, key: str, kind: type, where: str) -> object:
        if not isinstance(obj, dict):
            problems.append(f"{where}: expected object")
            return None
        if key not in obj:
            problems.append(f"{where}: missing required property '{key}'")
            return None
        value = obj[key]
        if not isinstance(value, kind):
            problems.append(
                f"{where}.{key}: expected {kind.__name__}, "
                f"got {type(value).__name__}")
            return None
        return value

    version = need(doc, "version", str, "$")
    if version is not None and version != SARIF_VERSION:
        problems.append(f"$.version: must be '{SARIF_VERSION}'")
    runs = need(doc, "runs", list, "$")
    if runs is None:
        return problems
    if not runs:
        problems.append("$.runs: must contain at least one run")
    for i, run in enumerate(runs):
        where = f"$.runs[{i}]"
        tool = need(run, "tool", dict, where)
        if tool is not None:
            driver = need(tool, "driver", dict, f"{where}.tool")
            if driver is not None:
                need(driver, "name", str, f"{where}.tool.driver")
                rules = driver.get("rules", [])
                if not isinstance(rules, list):
                    problems.append(f"{where}.tool.driver.rules: "
                                    "expected array")
                else:
                    for j, rule in enumerate(rules):
                        need(rule, "id", str,
                             f"{where}.tool.driver.rules[{j}]")
        results = run.get("results") if isinstance(run, dict) else None
        if results is None:
            continue
        if not isinstance(results, list):
            problems.append(f"{where}.results: expected array")
            continue
        for j, result in enumerate(results):
            rw = f"{where}.results[{j}]"
            message = need(result, "message", dict, rw)
            if message is not None:
                need(message, "text", str, f"{rw}.message")
            level = result.get("level") if isinstance(result, dict) else None
            if level is not None and level not in (
                    "none", "note", "warning", "error"):
                problems.append(f"{rw}.level: invalid level {level!r}")
            locations = result.get("locations", []) if isinstance(
                result, dict) else []
            if not isinstance(locations, list):
                problems.append(f"{rw}.locations: expected array")
                continue
            for k, location in enumerate(locations):
                lw = f"{rw}.locations[{k}]"
                physical = need(location, "physicalLocation", dict, lw)
                if physical is None:
                    continue
                artifact = need(physical, "artifactLocation", dict,
                                f"{lw}.physicalLocation")
                if artifact is not None:
                    need(artifact, "uri", str,
                         f"{lw}.physicalLocation.artifactLocation")
                region = physical.get("region")
                if region is not None:
                    start = need(region, "startLine", int,
                                 f"{lw}.physicalLocation.region")
                    if isinstance(start, int) and start < 1:
                        problems.append(
                            f"{lw}.physicalLocation.region.startLine: "
                            "must be >= 1")
    return problems
