"""SARIF 2.1.0 rendering of check reports (``--format sarif``).

One run per report, findings as ``results``: CI annotators (GitHub code
scanning, VS Code SARIF viewers) consume this directly.  Suppressed
findings are *carried*, not dropped — a result with a non-empty
``suppressions`` array renders as suppressed, keeping the noqa/baseline
channels visible in the same place the active findings are.
"""

from __future__ import annotations

from .rules import RULES

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: Finding channel -> SARIF suppression kind.  ``noqa`` lives in the
#: source; the baseline file is external bookkeeping.
_SUPPRESSION_KIND = {"noqa": "inSource", "baseline": "external"}


def _tool_rules(used: set[str]) -> list[dict]:
    rules = []
    for rid in sorted(used):
        meta = RULES[rid].describe() if rid in RULES else {}
        entry = {
            "id": rid,
            "name": meta.get("name", rid),
            "shortDescription": {"text": meta.get("summary", "")},
        }
        if meta.get("rationale"):
            entry["fullDescription"] = {"text": meta["rationale"]}
        rules.append(entry)
    return rules


def _result(finding) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": finding.line,
                    "startColumn": finding.col + 1,
                },
            },
        }],
    }
    if finding.source:
        region = result["locations"][0]["physicalLocation"]["region"]
        region["snippet"] = {"text": finding.source}
    if finding.suppressed_by:
        suppression = {
            "kind": _SUPPRESSION_KIND.get(finding.suppressed_by,
                                          "external"),
        }
        if finding.suppress_reason:
            suppression["justification"] = finding.suppress_reason
        result["suppressions"] = [suppression]
    else:
        result["suppressions"] = []
    return result


def to_sarif(reports) -> dict:
    """A SARIF 2.1.0 log document covering ``reports`` (one run each)."""
    runs = []
    for report in reports:
        findings = sorted(report.findings)
        used = {f.rule for f in findings}
        runs.append({
            "tool": {
                "driver": {
                    "name": "repro.check",
                    "informationUri":
                        "docs/static_analysis.md",
                    "rules": _tool_rules(used),
                },
            },
            "columnKind": "utf16CodeUnits",
            "originalUriBaseIds": {
                "SRCROOT": {"uri": f"{report.root}/"},
            },
            "results": [_result(f) for f in findings],
            "invocations": [{
                "executionSuccessful": report.ok,
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": runs,
    }
