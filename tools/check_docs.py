#!/usr/bin/env python3
"""Docs audit: every relative markdown link and anchor must resolve.

Walks the repo's markdown files (root + docs/), extracts inline
links, and checks that

  - relative file targets exist (README.md, docs/MODEL.md, src paths
    referenced as links, ...);
  - intra-document anchors (#section) match a heading in the target
    file, using GitHub's slug rules (lowercase, spaces to dashes,
    punctuation dropped);
  - no file contains an obviously stale test-count claim (the suite
    prints its real count in CI; docs must not hard-code a different
    one when --tests=N is passed, or when --ctest-dir points at a
    configured build whose `ctest -N` total is the ground truth);
  - changelog-style files (CHANGES.md, ROADMAP.md) may keep
    historical per-PR counts, but their *newest* (last in file
    order: entries are appended) claimed count must match the current
    suite — that is exactly the drift this check exists to catch (a
    PR adding or deleting tests while a doc still quotes the previous
    total).

External http(s) links are not fetched — CI must not depend on the
network — only checked for empty targets. Exits non-zero listing
every broken link.
"""

import argparse
import os
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.M)
CODE_FENCE_RE = re.compile(r"```.*?```", re.S)
TEST_COUNT_RE = re.compile(r"[~]?(\d{3,4})\s+(?:tier-1\s+)?tests")

# Changelog-style files record historical per-PR test counts on
# purpose; every claim being current applies only elsewhere, but the
# newest (last) claim in these files must still be current.
TEST_COUNT_EXEMPT = {"CHANGES.md", "ROADMAP.md"}

# Transient work-order files quote the counts of whatever PR they
# were written against; they are not documentation of the suite.
TEST_COUNT_SKIP = {"ISSUE.md", "REVIEW.md"}


def ctest_total(build_dir: str) -> int:
    """The suite's real size: `ctest -N` in a configured build dir
    prints 'Total Tests: N' as its last line."""
    out = subprocess.run(
        ["ctest", "-N"], cwd=build_dir, capture_output=True,
        text=True, check=True).stdout
    m = re.search(r"Total Tests:\s*(\d+)", out)
    if not m:
        raise RuntimeError(
            f"ctest -N in {build_dir} printed no 'Total Tests:' line")
    return int(m.group(1))


def slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, drop punctuation (no
    replacement dash), spaces to dashes, doubles preserved."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def headings_of(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        body = CODE_FENCE_RE.sub("", f.read())
    slugs = set()
    for m in HEADING_RE.finditer(body):
        slugs.add(slugify(m.group(1)))
    return slugs


def markdown_files(root: str):
    for base in (root, os.path.join(root, "docs")):
        if not os.path.isdir(base):
            continue
        for name in sorted(os.listdir(base)):
            if name.endswith(".md"):
                yield os.path.join(base, name)


def check(root: str, expected_tests: int | None) -> int:
    errors = []
    for path in markdown_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            body = CODE_FENCE_RE.sub("", f.read())

        for m in LINK_RE.finditer(body):
            target = m.group(2)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                if slugify(target[1:]) not in headings_of(path):
                    errors.append(f"{rel}: broken anchor {target}")
                continue
            file_part, _, anchor = target.partition("#")
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), file_part))
            if not os.path.exists(resolved):
                errors.append(f"{rel}: broken link {target}")
                continue
            if anchor and resolved.endswith(".md"):
                if slugify(anchor) not in headings_of(resolved):
                    errors.append(
                        f"{rel}: broken anchor {target}")

        if (expected_tests is not None
                and os.path.basename(path) not in TEST_COUNT_SKIP):
            claims = [int(m.group(1))
                      for m in TEST_COUNT_RE.finditer(body)]
            if os.path.basename(path) in TEST_COUNT_EXEMPT:
                # History may quote old totals, but the newest claim
                # must match the suite as it stands.
                if claims and claims[-1] != expected_tests:
                    errors.append(
                        f"{rel}: newest test count {claims[-1]} "
                        f"out of date (suite has {expected_tests})")
            else:
                for claimed in claims:
                    if claimed != expected_tests:
                        errors.append(
                            f"{rel}: stale test count {claimed} "
                            f"(suite has {expected_tests})")

    for e in errors:
        print("FAIL:", e)
    if not errors:
        print("docs OK:", len(list(markdown_files(root))),
              "markdown files checked")
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=".")
    ap.add_argument("--tests", type=int, default=None,
                    help="expected tier-1 test count; docs claiming "
                         "a different count fail the audit")
    ap.add_argument("--ctest-dir", default=None,
                    help="configured build directory; runs `ctest -N` "
                         "there and audits doc counts against its "
                         "Total Tests line")
    args = ap.parse_args()
    expected = args.tests
    if args.ctest_dir is not None:
        actual = ctest_total(args.ctest_dir)
        if expected is not None and expected != actual:
            print(f"FAIL: --tests={expected} but ctest -N "
                  f"reports {actual}")
            sys.exit(1)
        expected = actual
    sys.exit(check(args.root, expected))


if __name__ == "__main__":
    main()
