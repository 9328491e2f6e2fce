"""ktaulint command line: ``python -m repro.lint [paths] --format=...``.

Exit codes are stable so CI and scripts can branch on severity:

* ``0`` — clean (or INFO-level findings only);
* ``1`` — at least one ERROR finding;
* ``3`` — WARNING findings but no errors;
* ``2`` — usage error (argparse).

``--format=json`` emits a machine-readable report (used by the test
suite's exact-location assertions); ``--format=sarif`` emits SARIF 2.1.0
for code-scanning UIs.  ``--graph-out FILE`` additionally writes the
module dependency graph (Graphviz DOT) built by the KTAU6xx pass.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from repro.lint.engine import LintEngine, all_rules, known_rule_ids
from repro.lint.findings import Finding, Severity

#: exit code when WARNING-level findings exist but no errors
EXIT_WARNINGS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("ktaulint: static analysis for instrumentation "
                     "balance, determinism, registry consistency, API "
                     "hygiene, import structure, and "
                     "IRQ-context safety"))
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule IDs to report "
                             "(e.g. KTAU101,KTAU201)")
    parser.add_argument("--graph-out", metavar="FILE",
                        help="also write the module dependency graph "
                             "as Graphviz DOT to FILE ('-' for stdout)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")
    return parser


def _render_text(findings: list[Finding]) -> str:
    lines = [f.format() for f in findings]
    worst = [f for f in findings if f.severity >= Severity.WARNING]
    lines.append(f"ktaulint: {len(findings)} finding(s), "
                 f"{len(worst)} at warning or above")
    return "\n".join(lines)


def _render_json(findings: list[Finding]) -> str:
    return json.dumps({
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
    }, indent=2)


_SARIF_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning",
                Severity.INFO: "note"}


def _rule_descriptors() -> list[dict]:
    """One SARIF reportingDescriptor per emittable rule ID."""
    descriptors: dict[str, dict] = {
        "KTAU000": {"id": "KTAU000", "name": "parse-error",
                    "shortDescription": {"text": "target file failed to "
                                                 "parse"}},
    }
    for rule in all_rules():
        for rule_id in (rule.emits or (rule.rule_id,)):
            descriptors.setdefault(rule_id, {
                "id": rule_id,
                "name": rule.name,
                "shortDescription": {"text": rule.description},
            })
    return [descriptors[k] for k in sorted(descriptors)]


def _render_sarif(findings: list[Finding]) -> str:
    results = []
    for f in findings:
        results.append({
            "ruleId": f.rule_id,
            "level": _SARIF_LEVEL[f.severity],
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": Path(f.path).as_posix(),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": f.line},
                },
            }],
        })
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "ktaulint",
                "informationUri": "https://www.cs.uoregon.edu/research/tau/",
                "rules": _rule_descriptors(),
            }},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2)


def _render_rules() -> str:
    lines = []
    for rule in sorted(all_rules(), key=lambda r: r.rule_id):
        lines.append(f"{rule.rule_id}  {rule.name:<24} {rule.description}")
    return "\n".join(lines)


def _write_graph(paths: list[str], out: str) -> None:
    from repro.lint.engine import ParseError
    from repro.lint.imports import build_import_graph, to_dot
    sources = []
    for path in LintEngine.discover(paths):
        try:
            sources.append(LintEngine.load(path))
        except ParseError:
            continue
    dot = to_dot(build_import_graph(sources))
    if out == "-":
        print(dot, end="")
    else:
        Path(out).write_text(dot, encoding="utf-8")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_render_rules())
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")
    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = sorted(set(select) - known_rule_ids())
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)} "
                         f"(see --list-rules)")
    engine = LintEngine(select=select)
    findings = engine.run(args.paths)
    if args.format == "json":
        print(_render_json(findings))
    elif args.format == "sarif":
        print(_render_sarif(findings))
    else:
        print(_render_text(findings))
    if args.graph_out:
        _write_graph(args.paths, args.graph_out)
    if any(f.severity >= Severity.ERROR for f in findings):
        return 1
    if any(f.severity >= Severity.WARNING for f in findings):
        return EXIT_WARNINGS
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
