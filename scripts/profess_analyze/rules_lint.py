"""Legacy line rules absorbed from scripts/lint_profess.py.

Rule names are unchanged (hotpath-heap, rng, stat-names,
include-hygiene, include-order) so existing waivers keep matching.
See the original module docstring for the rule rationale; the
checks keep their semantics, re-hosted on the analyzer's
Finding/waiver machinery, and stat-names also covers the string
literals of StatSet name tables.
"""

import os
import re

from .lexer import strip_comments
from .rules_base import Finding, Rule

HOT_PATH_HEADERS = [
    "src/common/event.hh",
    "src/common/pool.hh",
    "src/common/inline_function.hh",
    "src/core/mdm.hh",
]

RNG_HOME = "src/common/rng.hh"

# The literal a stat name starts with, unless a '+' follows it: in
# addCounter(prefix + "." + name, ...) the "." is a separator and the
# leaf is only known at run time.
STAT_CALL_RE = re.compile(
    r'add(?:Counter|Probe|Set|Histogram)\(\s*(?:prefix\s*\+\s*)?'
    r'"([^"]*)"(?!\s*\+)')
STAT_LEAF_RE = re.compile(r"^\.?[a-z][a-z0-9_]*(\.[a-z0-9_]+)*\.?$")
# A StatSet member built from a name table ("StatSet stats_{statNames};")
# and that table's brace initializer ("statNames[NumStats] = {...}").
STATSET_DECL_RE = re.compile(r"\bStatSet\s+\w+\s*[({]\s*(\w+)\s*[)}]")
STATSET_TABLE_RE = r"\b%s\s*\[[^\]]*\]\s*=\s*\{([^}]*)\}"
STATSET_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
STRING_RE = re.compile(r'"([^"]*)"')

BANNED_HEAP_RE = re.compile(
    r"std::function"
    r"|(?<!:)\bnew\b(?!\s*\()"  # plain new; "::new (addr)" is ok
    r"|\bmake_unique\b|\bmake_shared\b|\bmalloc\s*\(")

BANNED_RNG_RE = re.compile(
    r"\b(?:s?rand)\s*\("
    r"|std::mt19937|std::minstd_rand|random_device"
    r"|default_random_engine")

GUARD_RE = re.compile(r"^#ifndef\s+(\w+)\s*$", re.M)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+["<]([^">]+)[">]')


class HotPathHeapRule(Rule):
    name = "hotpath-heap"
    description = ("Hot-path headers must not introduce "
                   "std::function or heap allocation")

    def check_tu(self, tu, ctx):
        if tu.path not in HOT_PATH_HEADERS:
            return
        code = strip_comments(tu.text)
        for lineno, line in enumerate(code.splitlines(), 1):
            if line.lstrip().startswith("#"):
                continue
            m = BANNED_HEAP_RE.search(line)
            if m:
                yield Finding(self.name, tu.path, lineno,
                              "'%s' in hot-path header" % m.group(0),
                              line)


class RngRule(Rule):
    name = "rng"
    description = ("All randomness flows through common/rng.hh "
                   "(seeded PCG32)")

    def check_tu(self, tu, ctx):
        if tu.path == RNG_HOME:
            return
        code = strip_comments(tu.text)
        for lineno, line in enumerate(code.splitlines(), 1):
            m = BANNED_RNG_RE.search(line)
            if m:
                yield Finding(
                    self.name, tu.path, lineno,
                    "'%s' outside %s (use common/rng.hh)"
                    % (m.group(0).strip(), RNG_HOME), line)


class StatNamesRule(Rule):
    name = "stat-names"
    description = ("Registered stat names and StatSet name tables are "
                   "dotted lower_snake and unique per file")

    def check_tu(self, tu, ctx):
        code = strip_comments(tu.text)
        lines = code.splitlines()
        # (offset, leaf as registered, error or None), in file order.
        # A StatSet counter "x" is registered as "<prefix>.x", so it
        # shares the leaf ".x" with addCounter(prefix + ".x", ...).
        names = []
        for m in STAT_CALL_RE.finditer(code):
            leaf = m.group(1)
            bad = not STAT_LEAF_RE.match(leaf)
            names.append((m.start(), leaf,
                          "stat name '%s' is not a dotted lower_snake "
                          "identifier" % leaf if bad else None))
        for table in {m.group(1) for m in STATSET_DECL_RE.finditer(code)}:
            t = re.search(STATSET_TABLE_RE % re.escape(table), code)
            if t is None:
                continue
            for m in STRING_RE.finditer(t.group(1)):
                leaf = m.group(1)
                bad = not STATSET_NAME_RE.match(leaf)
                names.append((t.start(1) + m.start(), "." + leaf,
                              "StatSet counter name '%s' is not a "
                              "lower_snake identifier" % leaf
                              if bad else None))
        seen = {}
        for offset, leaf, error in sorted(names):
            lineno = code.count("\n", 0, offset) + 1
            line = lines[lineno - 1] if lineno <= len(lines) else ""
            if error:
                yield Finding(self.name, tu.path, lineno, error, line)
            if leaf in seen:
                yield Finding(self.name, tu.path, lineno,
                              "stat leaf '%s' already registered at "
                              "line %d" % (leaf, seen[leaf]), line)
            else:
                seen[leaf] = lineno


class IncludeHygieneRule(Rule):
    name = "include-hygiene"
    description = ("Header guards, own-header-first, no '../' or "
                   "<bits/stdc++.h>")

    def check_tu(self, tu, ctx):
        raw = tu.text
        path = tu.path
        for lineno, line in enumerate(raw.splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            if target.startswith("../"):
                yield Finding(self.name, path, lineno,
                              "relative '../' include", line)
            if target == "bits/stdc++.h":
                yield Finding(self.name, path, lineno,
                              "<bits/stdc++.h> is non-standard",
                              line)

        if path.startswith("src/") and path.endswith(".hh"):
            rel = path[len("src/"):-len(".hh")]
            want = "PROFESS_" + rel.replace("/", "_").upper() + "_HH"
            m = GUARD_RE.search(raw)
            if not m:
                yield Finding(self.name, path, 1,
                              "missing header guard (expected %s)"
                              % want)
            elif m.group(1) != want:
                lineno = raw.count("\n", 0, m.start()) + 1
                yield Finding(self.name, path, lineno,
                              "header guard %s; expected %s"
                              % (m.group(1), want), m.group(0))

        if path.startswith("src/") and path.endswith(".cc"):
            own = path[len("src/"):-len(".cc")] + ".hh"
            if os.path.exists(os.path.join(ctx.repo, "src", own)):
                for lineno, line in enumerate(raw.splitlines(), 1):
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    if m.group(1) != own:
                        yield Finding(
                            self.name, path, lineno,
                            "own header \"%s\" must be the first "
                            "include" % own, line)
                    break


class IncludeOrderRule(Rule):
    name = "include-order"
    description = ("Include blocks are sorted and do not mix "
                   "<angle> and \"quote\" styles")

    def check_tu(self, tu, ctx):
        raw = tu.text
        path = tu.path
        own = None
        if path.startswith("src/") and path.endswith(".cc"):
            candidate = path[len("src/"):-len(".cc")] + ".hh"
            if os.path.exists(os.path.join(ctx.repo, "src",
                                           candidate)):
                own = candidate

        blocks = []
        current = []
        for lineno, line in enumerate(raw.splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if m:
                style = "<" if line.strip().endswith(">") else '"'
                current.append((lineno, style, m.group(1), line))
            elif current:
                blocks.append(current)
                current = []
        if current:
            blocks.append(current)

        for block in blocks:
            if (own is not None and len(block) == 1
                    and block[0][2] == own):
                continue
            styles = {style for _, style, _, _ in block}
            if len(styles) > 1:
                lineno, _, _, line = block[0]
                yield Finding(self.name, path, lineno,
                              "include block mixes <angle> and "
                              "\"quote\" styles; split into "
                              "separate blocks", line)
            targets = [t for _, _, t, _ in block]
            if targets != sorted(targets):
                for i in range(1, len(block)):
                    if block[i][2] < block[i - 1][2]:
                        lineno, _, target, line = block[i]
                        yield Finding(
                            self.name, path, lineno,
                            "'%s' breaks case-sensitive sort "
                            "order (after '%s')"
                            % (target, block[i - 1][2]), line)


RULES = [HotPathHeapRule(), RngRule(), StatNamesRule(),
         IncludeHygieneRule(), IncludeOrderRule()]
