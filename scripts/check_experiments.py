#!/usr/bin/env python3
"""Checks that the measured columns of EXPERIMENTS.md match the goldens.

Rebuilds three markdown tables from the byte-checked golden reports and
diffs them against the copies in EXPERIMENTS.md:

* Fig. 17 (every column) from the Fig. 17 block of tests/golden/all-full.txt;
* Table 3 (the measured utilization and best improvement) from
  tests/golden/table3-full.txt;
* §5 (every column) from tests/golden/sweep-full.txt.

Usage: python3 scripts/check_experiments.py [REPO_ROOT]

Exits 0 when every rebuilt cell matches, 1 with a unified diff of the
rebuilt rows against the documented ones otherwise.
"""

import difflib
import pathlib
import sys

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)

BENCHMARKS = {"mul32": "multiplication", "conv4x3w8": "convolution", "dot1024x32": "dot-product"}


def report_rows(text, title):
    """Whitespace-split data rows of the report block whose header starts
    with `title`: the lines after its column header and dash rule, up to
    the first blank line."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    rows = []
    for line in lines[start + 3:]:
        if not line.strip():
            break
        rows.append(line.split())
    return lines[start + 1].split(), rows


def markdown_rows(text, heading):
    """Cells of the first markdown table under `heading`, header included."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            if not line.startswith("|---"):
                rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows


def grouped(n):
    """10000 -> '10 000', as the markdown spells iteration counts."""
    return f"{int(n):,}".replace(",", " ")


def fig17(golden, doc):
    header, rows = report_rows(golden, "== Fig. 17:")
    rebuilt = [header] + [[r[0]] + [v.rstrip("x") for v in r[1:]] for r in rows]
    return rebuilt, markdown_rows(doc, "## Fig. 17")


def table3(golden, doc):
    _, rows = report_rows(golden, "== Table 3:")
    # Golden row: benchmark, util, (paper util), best, (best config), (paper best).
    rebuilt = [[BENCHMARKS[r[0]], r[1], r[3].replace("x", "×")] for r in rows]
    documented = [[r[0], r[2], r[4]] for r in markdown_rows(doc, "## Table 3")[1:]]
    return rebuilt, documented


def sweep(golden, doc):
    _, rows = report_rows(golden, "== §5:")
    rebuilt = [[grouped(r[0]), r[1], r[2].replace("x", "×")] for r in rows]
    return rebuilt, markdown_rows(doc, "## §5")[1:]


def render(rows):
    return ["| " + " | ".join(row) + " |" for row in rows]


def main():
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    golden = ROOT / "tests" / "golden"
    checks = [
        ("Fig. 17", fig17, "all-full.txt"),
        ("Table 3", table3, "table3-full.txt"),
        ("§5", sweep, "sweep-full.txt"),
    ]
    failed = False
    for name, build, source in checks:
        rebuilt, documented = build((golden / source).read_text(), doc)
        if rebuilt != documented:
            failed = True
            print(f"EXPERIMENTS.md {name} table differs from tests/golden/{source}:")
            diff = difflib.unified_diff(
                render(documented), render(rebuilt), "EXPERIMENTS.md", source, lineterm=""
            )
            print("\n".join(diff))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
