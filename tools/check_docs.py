#!/usr/bin/env python3
"""Docs gate: markdown links resolve, the shared config/metrics structs
stay documented, and the README CLI table matches the CLI.

The checks are designed to fail on UNDOCUMENTED ADDITIONS rather than to
police prose:

1. Every relative markdown link in README.md, docs/*.md and
   bench/baselines/README.md must point at a file that exists (external
   http(s) links are not fetched — CI must not depend on the network).

2. Every field of `ClusterConfig` and `ClusterMetrics`
   (src/core/cluster_engine.h) must carry a `//` doc comment — trailing on
   the field's line, or on the line directly above it. These two structs
   are the contract every bench, example and test programs against, and
   docs/METRICS.md mirrors them; an uncommented field is a field the next
   reader cannot interpret.

3. Every `ClusterMetrics` field has a docs/METRICS.md row and, unless it is
   a vector, a `ClusterMetricFields()` row (src/core/cluster_engine.cc); every
   table row, derived keys included, has a docs/METRICS.md row too.

4. Every `RunOptions` field (src/core/experiment.h) is set by the CLI: an
   `opts.<field> = ...` assignment in examples/grouting_cli.cc, or for a
   nested policy group an `opts.<field>.<member> = ...` one, so the
   README's claim that the CLI exposes every `RunOptions` knob holds.

5. With --cli, the README "CLI reference" table and `grouting_cli --help`
   list the same flags with the same defaults (a README default of `off`
   means the flag has none). `--help` itself needs no row.

Usage: tools/check_docs.py [--root <repo root>] [--cli <grouting_cli binary>]
"""

import argparse
import glob
import os
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
STRUCTS = ("ClusterConfig", "ClusterMetrics")
HEADER = os.path.join("src", "core", "cluster_engine.h")
TABLE_SOURCE = os.path.join("src", "core", "cluster_engine.cc")
METRICS_DOC = os.path.join("docs", "METRICS.md")
OPTIONS_HEADER = os.path.join("src", "core", "experiment.h")
CLI_SOURCE = os.path.join("examples", "grouting_cli.cc")

# ClusterMetricFields() rows: GROUTING_METRIC(field, ...) or {"derived_key", ...
TABLE_ROW_RE = re.compile(r'GROUTING_METRIC\((\w+),|^\s*\{"(\w+)",', re.M)
DOC_ROW_RE = re.compile(r"^\| `(\w+)` \|", re.M)

# README CLI rows: | `--flag` | `default` or off | meaning |
README_FLAG_RE = re.compile(r"^\| `--([\w-]+)` \| (?:`([^`]*)`|(off)) \|", re.M)
# --help lines: two-space indent, --flag or --flag=default, then the help text.
HELP_FLAG_RE = re.compile(r"^  --([\w-]+)(?:=(\S+))?\s", re.M)

# A field declaration: ends in ';', is not a method/using/friend line.
FIELD_RE = re.compile(r"^\s*[A-Za-z_][\w:<>,\s*&\]\[]*\s+(\w+)\s*(=[^;]*|\{[^;]*\})?;")
# A CLI assignment to a RunOptions field, or to a member of a nested group:
# opts.<field> = ... or opts.<field>.<member> = ... (not ==).
OPTS_ASSIGN_RE = re.compile(r"\bopts\.(\w+)(?:\.\w+)*\s*=(?!=)")


def check_links(root):
    failures = []
    files = [os.path.join(root, "README.md"),
             os.path.join(root, "bench", "baselines", "README.md")]
    files += sorted(glob.glob(os.path.join(root, "docs", "**", "*.md"), recursive=True))
    checked = 0
    for path in files:
        if not os.path.exists(path):
            failures.append(f"{os.path.relpath(path, root)}: file missing")
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue  # pure in-page anchor
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
            checked += 1
            if not os.path.exists(resolved):
                failures.append(
                    f"{os.path.relpath(path, root)}: broken link -> {target}")
    print(f"link check: {checked} relative links across {len(files)} files")
    return failures


def struct_body(lines, name):
    """Lines of the struct's top-level body (nested method bodies elided)."""
    start = None
    for i, line in enumerate(lines):
        if re.match(rf"\s*struct {name}\b", line) and "{" in line:
            start = i
            break
    if start is None:
        return None
    depth = 0
    body = []
    for line in lines[start:]:
        opens, closes = line.count("{"), line.count("}")
        if depth == 1 and not (line.strip().startswith("}")):
            body.append(line)
        depth += opens - closes
        if depth == 0 and line is not lines[start]:
            break
    return body


def struct_fields(lines, name):
    """(field, declaration line, has a doc comment) for each top-level field
    of the struct, or None when the struct is missing."""
    body = struct_body(lines, name)
    if body is None:
        return None
    fields = []
    prev_was_comment = False
    depth = 0
    for line in body:
        stripped = line.strip()
        in_method_body = depth > 0
        depth += line.count("{") - line.count("}")
        if in_method_body or not stripped:
            prev_was_comment = False
            continue
        if stripped.startswith("//"):
            prev_was_comment = True
            continue
        m = FIELD_RE.match(line)
        if (m is None or m.group(1) == "operator"
                or "(" in line.split("//")[0].rsplit(";", 1)[0].split("=")[0]):
            # method, constructor, using-decl, ... — not a field
            prev_was_comment = False
            continue
        fields.append((m.group(1), line, prev_was_comment or "//" in line))
        prev_was_comment = False
    return fields


def read_lines(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read().splitlines()


def check_field_comments(root, metric_fields):
    """Doc-comment check; collects ClusterMetrics (name, line) pairs."""
    lines = read_lines(root, HEADER)
    failures = []
    count = 0
    for name in STRUCTS:
        fields = struct_fields(lines, name)
        if fields is None:
            failures.append(f"{HEADER}: struct {name} not found")
            continue
        for field, line, documented in fields:
            count += 1
            if name == "ClusterMetrics":
                metric_fields.append((field, line))
            if not documented:
                failures.append(f"{HEADER}: {name}::{field} has no // doc comment")
    print(f"doc-comment check: {count} fields across {len(STRUCTS)} structs")
    return failures


def check_cli_options(root):
    fields = struct_fields(read_lines(root, OPTIONS_HEADER), "RunOptions")
    if fields is None:
        return [f"{OPTIONS_HEADER}: struct RunOptions not found"]
    assigned = set(OPTS_ASSIGN_RE.findall("\n".join(read_lines(root, CLI_SOURCE))))
    failures = [f"RunOptions::{field} has no opts.{field} assignment in {CLI_SOURCE}"
                for field, _, _ in fields if field not in assigned]
    print(f"cli options check: {len(fields)} RunOptions fields")
    return failures


def check_metric_table(root, metric_fields):
    def read(rel):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            return f.read()

    source = read(TABLE_SOURCE)
    start = source.find("ClusterMetricFields() {")
    table = source[start:source.find("return kFields;", start)] if start >= 0 else ""
    rows = {a or b for a, b in TABLE_ROW_RE.findall(table)}
    if not rows:
        return [f"{TABLE_SOURCE}: ClusterMetricFields() table not found"]
    doc_rows = set(DOC_ROW_RE.findall(read(METRICS_DOC)))
    failures = []
    for field, decl in metric_fields:
        if "std::vector" not in decl and field not in rows:
            failures.append(f"ClusterMetrics::{field} has no row in ClusterMetricFields() "
                            f"({TABLE_SOURCE})")
        if field not in doc_rows:
            failures.append(f"ClusterMetrics::{field} has no row in {METRICS_DOC}")
    for row in sorted(rows - doc_rows):
        failures.append(f"ClusterMetricFields() row {row} has no row in {METRICS_DOC}")
    print(f"metric table check: {len(metric_fields)} fields, {len(rows)} table rows")
    return failures


def check_cli_table(root, cli):
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    start = readme.find("## CLI reference")
    end = readme.find("\n## ", start + 1) if start >= 0 else -1
    section = readme[start:end if end >= 0 else len(readme)] if start >= 0 else ""
    documented = {flag: default for flag, default, _ in README_FLAG_RE.findall(section)}
    if not documented:
        return ["README.md: CLI reference table not found"]
    run = subprocess.run([cli, "--help"], capture_output=True, text=True, check=False)
    if run.returncode != 0:
        return [f"{cli} --help exited {run.returncode}: {run.stderr.strip()}"]
    actual = dict(HELP_FLAG_RE.findall(run.stdout))
    actual.pop("help", None)
    failures = []
    for flag in sorted(actual.keys() - documented.keys()):
        failures.append(f"grouting_cli --{flag} has no row in the README CLI table")
    for flag in sorted(documented.keys() - actual.keys()):
        failures.append(f"README CLI row --{flag} is not a grouting_cli flag")
    for flag in sorted(actual.keys() & documented.keys()):
        if actual[flag] != documented[flag]:
            failures.append(
                f"--{flag}: README default '{documented[flag] or 'off'}', "
                f"grouting_cli --help default '{actual[flag] or 'off'}'")
    print(f"cli table check: {len(actual)} flags, {len(documented)} README rows")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    ap.add_argument("--cli", help="grouting_cli binary to hold the README table to")
    args = ap.parse_args()

    metric_fields = []
    failures = (check_links(args.root) + check_field_comments(args.root, metric_fields)
                + check_metric_table(args.root, metric_fields)
                + check_cli_options(args.root))
    if args.cli:
        failures += check_cli_table(args.root, args.cli)
    if failures:
        print("\nDOCS GATE FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("docs gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
