#!/usr/bin/env python3
"""Project analyzer for the stj tree (DESIGN.md §16).

The one project-rule tool behind tools/lint.sh. It enforces the
repository's token-level rules (include layering, ownership, justified
discards, platform confinement) and the *semantic* rules that need (at
least) a parse of the code: result-discard detection beyond
`[[nodiscard]]`, cancellation polling in worker loops, allocation
discipline in hot loops, lock-order consistency, and the STJ_ATOMIC_DOC
convention for lock-free fields.

Frontends
---------
The analyzer prefers **libclang** (`clang.cindex`) when it is importable
and a libclang shared library can be loaded: the `status-discard` check
then runs on the real AST (catching discards through references, ternary
selections, and any other expression shape, because it tests the *type* of
each unused-value expression, not the callee's name). When libclang is
absent it falls back to the built-in **lexical** frontend — a
comment/string-aware statement scanner driven by the project's own
function inventory — so the analyzer runs everywhere the test suite runs.
`tools/lint.sh` treats a missing libclang as a hard error unless invoked
with --allow-missing-tools; this script itself degrades loudly, not
silently (the active frontend is always printed).

Checks
------
  layer-order      #include "src/X/..." from src/Y must not point up the
                   layer stack. The layering (lower may never include
                   higher):
                       util < {geometry, interval} < {de9im, raster, join}
                            < topology < datasets
                   Same-rank sibling includes (e.g. de9im -> raster) are
                   also forbidden: a file may include its own layer or any
                   strictly lower rank.
  naked-new        No `new` expressions in src/. Ownership goes through
                   std::make_unique/containers.
  void-discard     A `(void)expr;` cast that throws away a value must carry
                   a justification comment on the same or the preceding
                   line, in src/, tools/, examples/, tests/ and bench/.
                   `(void)sizeof(...)` is exempt (unevaluated no-op idiom
                   used by the disabled STJ_DCHECK macros).
  platform-confined
                   Platform headers (<sys/...>, <linux/...>, <unistd.h>,
                   <fcntl.h>, <windows.h>, ...) are allowed in exactly one
                   src/ translation unit: src/util/mmap_file.cpp, the
                   mapping primitive behind the out-of-core shard layer.
                   A new platform dependency belongs behind the MappedFile
                   seam, not inline.
  status-discard   A call to a function returning stj::Status or
                   stj::Result<T> whose value is discarded. Goes beyond the
                   class-level [[nodiscard]] warning: the lexical frontend
                   flags bare-call statements and both arms of discarded
                   ternaries; the libclang frontend flags *any*
                   unused-value expression of those types, including calls
                   reached through function references. `(void)` casts are
                   exempt (void-discard requires their justification
                   comment).
  scope-checkin    Every internal::RunWorkers worker body must poll
                   cooperative cancellation: the lambda must create an
                   ExecContext::Scope or call CheckIn(). RunWorkers is the
                   repo's work-stealing primitive; a worker loop that never
                   checks in turns a deadline into a hang.
  loop-alloc       No fresh heap allocation inside loop bodies of the hot
                   refinement/filter TUs (HOT_FILES): no `new`, no
                   make_unique/make_shared, no fresh owning-container
                   declarations. Explicitly allow-commented lines are
                   exempt.
  mutex-order      Lock-order consistency: the digraph of observed nested
                   guard acquisitions (lock_guard/unique_lock/scoped_lock
                   inside a scope already holding another guard) plus the
                   order declared via STJ_ACQUIRED_AFTER/STJ_ACQUIRED_BEFORE
                   annotations must be acyclic. --lock-table prints the
                   combined table (the DESIGN.md §16 lock-order table is
                   generated from it).
  atomic-doc       Every `std::atomic` declaration in src/ must carry an
                   STJ_ATOMIC_DOC("...") annotation on the declaration line
                   or within the five preceding lines, naming writers,
                   readers, and the memory-order argument
                   (src/util/thread_annotations.h).

The first four checks are lexical and need no compiler. The semantic
checks (status-discard onwards) run on the code that ships — src/, tools/
and examples/; tests and benches intentionally discard some results inside
EXPECT scaffolding.

Suppression: a line (or its predecessor) containing
`stj-analyzer: allow(<check>)` suppresses a semantic check there; the
comment is the justification, so an empty reason reads as what it is.

Usage
-----
  tools/stj_analyzer.py                 # analyze the tree, exit 1 on findings
  tools/stj_analyzer.py --self-test     # every check must catch its seeded
                                        # violations and pass clean files
  tools/stj_analyzer.py --frontend=lexical|libclang|auto
  tools/stj_analyzer.py --probe-libclang  # exit 0 iff libclang is usable
  tools/stj_analyzer.py --lock-table    # print the derived lock-order table
"""

import argparse
import json
import os
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories the analyzer walks, and the subset the semantic checks cover
# (the code that ships; see the module docstring).
SOURCE_DIRS = ("src", "bench", "examples", "tools", "tests")
SHIPPED_DIRS = ("src", "tools", "examples")
SOURCE_EXTS = (".cpp", ".h")

# Hot TUs held to the loop-alloc rule: the per-pair refinement/filter inner
# loops, the parallel join loop, and the SIMD kernels. Caches that allocate
# on a miss by design (decoded_block_cache) are *not* listed — their
# allocation is the product, not a leak of discipline.
HOT_FILES = {
    "src/topology/parallel.cpp",
    "src/topology/find_relation.cpp",
    "src/topology/intermediate_filters.cpp",
    "src/topology/relate_predicate.cpp",
    "src/join/mbr_join.cpp",
    "src/interval/interval_algebra.cpp",
    "src/interval/interval_algebra_compressed.cpp",
    "src/interval/simd_scalar.cpp",
    "src/interval/simd_avx2.cpp",
    "src/interval/simd_neon.cpp",
}

ALLOW_RE = re.compile(r"stj-analyzer:\s*allow\(([a-z-]+)\)")

CHECKS = ("layer-order", "naked-new", "void-discard", "platform-confined",
          "status-discard", "scope-checkin", "loop-alloc", "mutex-order",
          "atomic-doc")


# ---------------------------------------------------------------------------
# Shared file model
# ---------------------------------------------------------------------------

def strip_comments_and_strings(line, state):
    """Blanks out comment and string-literal bodies, preserving length.

    `state` is True while inside a /* block comment that started on an
    earlier line. Returns (code_line, had_comment, new_state).
    """
    out = []
    had_comment = state
    i = 0
    in_block = state
    while i < len(line):
        c = line[i]
        nxt = line[i + 1] if i + 1 < len(line) else ""
        if in_block:
            had_comment = True
            if c == "*" and nxt == "/":
                in_block = False
                i += 2
            else:
                i += 1
            out.append(" ")
            if c == "*" and nxt == "/":
                out.append(" ")
            continue
        if c == "/" and nxt == "/":
            had_comment = True
            break  # rest of line is a comment
        if c == "/" and nxt == "*":
            in_block = True
            had_comment = True
            out.append("  ")
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < len(line):
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), had_comment, in_block


class CodeFile:
    """One source file: raw lines plus comment/string-stripped code lines,
    which lines carry a comment, and which start inside a block comment."""

    def __init__(self, path, rel):
        self.path = path
        self.rel = rel
        self.raw = path.read_text(encoding="utf-8").splitlines()
        self.code = []
        self.commented = []
        self.starts_in_comment = []
        in_block = False
        for line in self.raw:
            self.starts_in_comment.append(in_block)
            code, had_comment, in_block = strip_comments_and_strings(
                line, in_block)
            self.code.append(code)
            self.commented.append(had_comment)

    def allowed(self, lineno, check):
        """True when `stj-analyzer: allow(check)` covers raw line (1-based)."""
        for ln in (lineno - 1, lineno - 2):
            if 0 <= ln < len(self.raw):
                m = ALLOW_RE.search(self.raw[ln])
                if m and m.group(1) == check:
                    return True
        return False


def collect_files(dirs=SOURCE_DIRS):
    files = []
    for top in dirs:
        root = REPO / top
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in SOURCE_EXTS and path.is_file():
                files.append(CodeFile(path, path.relative_to(REPO)))
    return files


# ---------------------------------------------------------------------------
# Checks: layer-order, naked-new, void-discard, platform-confined (lexical)
# ---------------------------------------------------------------------------

# Rank table for the layer-order check. A file under src/<dir>/ may include
# src/<other>/ only when rank[other] < rank[dir] or other == dir.
LAYER_RANK = {
    "util": 0,
    "geometry": 1,
    "interval": 1,
    "de9im": 2,
    "raster": 2,
    "join": 2,
    "topology": 3,
    "datasets": 4,
}

LAYER_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"src/([a-z0-9_]+)/')
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` would still match Type
VOID_CAST_RE = re.compile(r"\(\s*void\s*\)\s*(?!sizeof\b)[A-Za-z_:(]")
ANGLE_INCLUDE_RE = re.compile(r"^\s*#\s*include\s+<([^>]+)>")

# Platform headers for the platform-confined rule: OS-specific directories
# plus the usual POSIX/Windows flat headers. <cstdio> & co. are standard and
# never match.
PLATFORM_HEADER_RE = re.compile(
    r"^(?:sys|linux|arpa|netinet|mach)/"
    r"|^(?:unistd|fcntl|windows|winsock2|io|dirent|pwd|sched)\.h$"
)
# The single src/ TU allowed to include platform headers.
PLATFORM_ALLOWED = "src/util/mmap_file.cpp"


def check_layer_order(files, errors):
    for f in files:
        parts = f.rel.parts
        if not (parts[0] == "src" and len(parts) > 2 and
                parts[1] in LAYER_RANK):
            continue
        layer = parts[1]
        for i, raw in enumerate(f.raw):
            # Matched on the raw line: the stripper blanks string bodies,
            # which would erase the quoted include path. `// #include` never
            # matches the anchored pattern.
            m = LAYER_INCLUDE_RE.match(raw)
            if not m or f.starts_in_comment[i]:
                continue
            target = m.group(1)
            if target in LAYER_RANK and target != layer and (
                    LAYER_RANK[target] >= LAYER_RANK[layer]):
                errors.append(
                    f"{f.rel}:{i + 1}: [layer-order] src/{layer}/ (rank "
                    f"{LAYER_RANK[layer]}) must not include src/{target}/ "
                    f"(rank {LAYER_RANK[target]})")


def check_naked_new(files, errors):
    for f in files:
        if f.rel.parts[0] != "src":
            continue
        for i, code in enumerate(f.code):
            if NEW_RE.search(code):
                errors.append(
                    f"{f.rel}:{i + 1}: [naked-new] `new` expression in src/; "
                    f"use std::make_unique or a container")


def check_void_discard(files, errors):
    for f in files:
        for i, code in enumerate(f.code):
            justified = f.commented[i] or (i > 0 and f.commented[i - 1])
            if VOID_CAST_RE.search(code) and not justified:
                errors.append(
                    f"{f.rel}:{i + 1}: [void-discard] `(void)` discard "
                    f"without a justification comment on this or the "
                    f"preceding line")


def check_platform_confined(files, errors):
    for f in files:
        if f.rel.parts[0] != "src" or f.rel.as_posix() == PLATFORM_ALLOWED:
            continue
        for i, raw in enumerate(f.raw):
            m = ANGLE_INCLUDE_RE.match(raw)
            if m and not f.starts_in_comment[i] and PLATFORM_HEADER_RE.match(
                    m.group(1)):
                errors.append(
                    f"{f.rel}:{i + 1}: [platform-confined] platform header "
                    f"<{m.group(1)}> outside {PLATFORM_ALLOWED}; route "
                    f"platform access through the MappedFile seam")


# ---------------------------------------------------------------------------
# Check: status-discard (lexical)
# ---------------------------------------------------------------------------

# A declaration line introducing a function that returns Status or Result<T>.
DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+|inline\s+)*"
    r"(?:stj::)?(?:Status|Result<[^;={]*>)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)

# Functions whose names collide with common identifiers enough to make the
# lexical name-match noisy. The libclang frontend needs no such list.
INVENTORY_SKIP = {"Ok", "Get", "ToStatus"}

STMT_KEYWORD_RE = re.compile(
    r"^\s*(?:return|if|else|for|while|do|switch|case|default|goto|throw|"
    r"delete|using|typedef|template|namespace|public|private|protected|"
    r"break|continue|co_return|co_await|static_assert|sizeof|#)\b"
)

BARE_CALL_RE = re.compile(r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(")


def build_status_inventory(files):
    """Names of functions/methods declared to return Status or Result<T>."""
    names = set()
    for f in files:
        for code in f.code:
            m = DECL_RE.match(code)
            if m and m.group(1) not in INVENTORY_SKIP:
                names.add(m.group(1))
    return names


def iter_statements(f):
    """Yields (start_lineno_1based, statement_text) for `;`-terminated
    statements, accumulated across lines with paren balancing. Brace lines
    reset the accumulator (control flow / definitions, not expression
    statements)."""
    buf = []
    start = None
    depth = 0
    for i, code in enumerate(f.code):
        stripped = code.strip()
        if not stripped:
            continue
        if start is None:
            start = i + 1
        buf.append(stripped)
        depth += stripped.count("(") - stripped.count(")")
        if depth <= 0:
            text = " ".join(buf)
            if stripped.endswith(";") and "{" not in text and "}" not in text:
                yield start, text
            if stripped.endswith((";", "{", "}")) or depth < 0:
                buf, start, depth = [], None, 0


def top_level_split_ternary(stmt):
    """For `cond ? a : b;` statements, returns [a, b] (top paren level only);
    otherwise []."""
    depth = 0
    q = c = -1
    for i, ch in enumerate(stmt):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "?" and depth == 0 and q < 0:
            # `?:` of a ternary, not part of an identifier.
            q = i
        elif ch == ":" and depth == 0 and q >= 0 and c < 0:
            if i > 0 and (stmt[i - 1] == ":" or
                          (i + 1 < len(stmt) and stmt[i + 1] == ":")):
                continue  # `::` qualifier
            c = i
    if q < 0 or c < 0:
        return []
    return [stmt[q + 1:c].strip(), stmt[c + 1:].rstrip("; ").strip()]


def has_top_level_assign(stmt):
    """True when the statement assigns at the top paren level (`=`, `+=`...),
    i.e. the call result may be consumed."""
    depth = 0
    for i, ch in enumerate(stmt):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "=" and depth == 0:
            prev = stmt[i - 1] if i > 0 else ""
            nxt = stmt[i + 1] if i + 1 < len(stmt) else ""
            if prev not in "=!<>+-*/%&|^" and nxt != "=":
                return True
    return False


def check_status_discard_lexical(files, errors):
    inventory = build_status_inventory(files)
    for f in files:
        for lineno, stmt in iter_statements(f):
            if STMT_KEYWORD_RE.match(stmt) or has_top_level_assign(stmt):
                continue
            if "(void)" in stmt.replace(" ", ""):
                continue  # justified discard; void-discard owns the comment
            candidates = [stmt]
            candidates += top_level_split_ternary(stmt)
            for expr in candidates:
                m = BARE_CALL_RE.match(expr)
                if m and m.group(1) in inventory:
                    if f.allowed(lineno, "status-discard"):
                        continue
                    errors.append(
                        f"{f.rel}:{lineno}: [status-discard] result of "
                        f"'{m.group(1)}' (returns Status/Result) is discarded; "
                        f"handle it or cast to (void) with a justification"
                    )
                    break


# ---------------------------------------------------------------------------
# Check: status-discard (libclang)
# ---------------------------------------------------------------------------

class LibclangFrontend:
    """AST frontend over clang.cindex. Instantiation raises RuntimeError with
    a human-readable reason when libclang is unusable."""

    LIB_GLOBS = (
        "/usr/lib/llvm-*/lib/libclang.so*",
        "/usr/lib/*/libclang.so*",
        "/usr/local/lib/libclang.so*",
    )

    def __init__(self):
        try:
            import clang.cindex as cindex  # noqa: PLC0415
        except ImportError as e:
            raise RuntimeError(f"python clang bindings not importable: {e}")
        self.cindex = cindex
        try:
            self.index = cindex.Index.create()
        except Exception:  # library not found at the default name
            import glob
            for pattern in self.LIB_GLOBS:
                for lib in sorted(glob.glob(pattern), reverse=True):
                    try:
                        cindex.Config.loaded = False
                        cindex.Config.set_library_file(lib)
                        self.index = cindex.Index.create()
                        break
                    except Exception:
                        continue
                else:
                    continue
                break
            else:
                raise RuntimeError("no loadable libclang shared library found")

    def compile_args(self):
        """Per-file compile args: from build/compile_commands.json when
        present, a plain -std=c++20 -I. fallback otherwise."""
        args = {}
        ccdb = REPO / "build" / "compile_commands.json"
        if ccdb.is_file():
            for entry in json.loads(ccdb.read_text()):
                flags = [a for a in entry["command"].split()[1:]
                         if not a.endswith(".o") and a not in ("-c", "-o")]
                args[os.path.realpath(entry["file"])] = flags
        return args

    def unused_status_calls(self, path):
        """Yields (line, callee_spelling) for unused-value expressions of
        type stj::Status / stj::Result<...> in one TU."""
        cindex = self.cindex
        args = self.compile_args().get(
            os.path.realpath(str(path)),
            ["-std=c++20", f"-I{REPO}"])
        tu = self.index.parse(str(path), args=args)
        findings = []

        def result_typed(node):
            t = node.type.spelling
            return ("Status" in t or "Result<" in t) and "*" not in t

        def walk(node, parent_is_compound):
            is_stmt_child = parent_is_compound
            if node.kind == cindex.CursorKind.COMPOUND_STMT:
                for child in node.get_children():
                    walk(child, True)
                return
            if is_stmt_child and node.kind in (
                    cindex.CursorKind.CALL_EXPR,
                    cindex.CursorKind.CONDITIONAL_OPERATOR):
                if result_typed(node):
                    findings.append((node.location.line, node.spelling or
                                     "<expression>"))
            for child in node.get_children():
                walk(child, False)

        cursor = tu.cursor
        for node in cursor.walk_preorder():
            if (node.kind == cindex.CursorKind.COMPOUND_STMT and
                    node.location.file and
                    os.path.realpath(node.location.file.name) ==
                    os.path.realpath(str(path))):
                for child in node.get_children():
                    walk(child, True)
        return findings


def check_status_discard_libclang(files, errors, frontend):
    for f in files:
        if f.path.suffix != ".cpp":
            continue
        try:
            findings = frontend.unused_status_calls(f.path)
        except Exception as e:  # parse failure: fall back loudly
            errors.append(f"{f.rel}: [status-discard] libclang parse failed: "
                          f"{e}")
            continue
        for line, callee in findings:
            if f.allowed(line, "status-discard"):
                continue
            errors.append(
                f"{f.rel}:{line}: [status-discard] unused Status/Result value "
                f"from '{callee}' (libclang)"
            )


# ---------------------------------------------------------------------------
# Check: scope-checkin
# ---------------------------------------------------------------------------

RUNWORKERS_RE = re.compile(r"\bRunWorkers\s*\(")
# Files that define/forward the primitive rather than consume it.
SCOPE_CHECK_EXEMPT = {"src/util/parallel_for.h", "src/util/parallel_for.cpp"}


def extract_call(f, start_line, start_col):
    """Returns (text, end_line) of a call's argument list via paren
    matching over stripped code, starting at the '(' given by
    (start_line 0-based, column)."""
    depth = 0
    parts = []
    line = start_line
    col = start_col
    while line < len(f.code):
        segment = f.code[line][col:]
        for i, ch in enumerate(segment):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    parts.append(segment[:i + 1])
                    return "\n".join(parts), line
        parts.append(segment)
        line += 1
        col = 0
    return "\n".join(parts), line


def check_scope_checkin(files, errors):
    for f in files:
        if str(f.rel) in SCOPE_CHECK_EXEMPT:
            continue
        for i, code in enumerate(f.code):
            m = RUNWORKERS_RE.search(code)
            if not m:
                continue
            body, _ = extract_call(f, i, m.end() - 1)
            if ("ExecContext::Scope" in body or ".CheckIn(" in body or
                    "scope.stopped" in body):
                continue
            if f.allowed(i + 1, "scope-checkin"):
                continue
            errors.append(
                f"{f.rel}:{i + 1}: [scope-checkin] RunWorkers body neither "
                f"creates an ExecContext::Scope nor calls CheckIn(); a "
                f"worker loop that never polls turns deadlines into hangs"
            )


# ---------------------------------------------------------------------------
# Check: loop-alloc
# ---------------------------------------------------------------------------

LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(")
ALLOC_RES = (
    (re.compile(r"\bnew\b(?!\s*\()"), "`new` expression"),
    (re.compile(r"\bstd::make_unique\s*<"), "make_unique"),
    (re.compile(r"\bstd::make_shared\s*<"), "make_shared"),
    (re.compile(
        r"(?:^|[\s(])(?:std::)?(?:vector|deque|list|map|set|unordered_map|"
        r"unordered_set|string)\s*<[^;=]*>\s+[a-z_]\w*\s*[;({=]"),
     "fresh owning-container declaration"),
)


def check_loop_alloc(files, errors):
    hot = {Path(p) for p in HOT_FILES}
    for f in files:
        if f.rel not in hot:
            continue
        # Depth-tracked scan: `loop_depths` holds the brace depth at which
        # each currently-open loop body started.
        depth = 0
        loop_depths = []
        pending_loop = False
        for i, code in enumerate(f.code):
            if LOOP_HEAD_RE.search(code):
                pending_loop = True
            for ch in code:
                if ch == "{":
                    depth += 1
                    if pending_loop:
                        loop_depths.append(depth)
                        pending_loop = False
                elif ch == "}":
                    if loop_depths and loop_depths[-1] == depth:
                        loop_depths.pop()
                    depth -= 1
            if not loop_depths:
                continue
            for alloc_re, what in ALLOC_RES:
                if alloc_re.search(code):
                    if f.allowed(i + 1, "loop-alloc"):
                        break
                    errors.append(
                        f"{f.rel}:{i + 1}: [loop-alloc] {what} inside a hot "
                        f"loop body; hoist it or reuse scratch"
                    )
                    break


# ---------------------------------------------------------------------------
# Check: mutex-order
# ---------------------------------------------------------------------------

GUARD_RE = re.compile(
    r"\b(?:std::)?(?:lock_guard|unique_lock|scoped_lock)\s*<[^>]*>\s+"
    r"\w+\s*(?:\(|\{)([^;]*?)(?:\)|\})\s*;"
)
CLASS_RE = re.compile(r"^\s*(?:class|struct)\s+([A-Za-z_]\w*)")
ACQ_AFTER_RE = re.compile(
    r"(\w+)\s+STJ_ACQUIRED_AFTER\s*\(([^)]*)\)")
ACQ_BEFORE_RE = re.compile(
    r"(\w+)\s+STJ_ACQUIRED_BEFORE\s*\(([^)]*)\)")


def mutex_id(expr, owner):
    expr = expr.split(",")[0].strip().replace("this->", "")
    return f"{owner}::{expr}" if owner else expr


def check_mutex_order(files, errors, print_table=False):
    edges = {}  # (a, b) -> first location; a acquired before b

    for f in files:
        if f.rel.parts[0] != "src":
            continue
        owner = None
        depth = 0
        guard_stack = []  # (depth, mutex_id)
        for i, code in enumerate(f.code):
            if code.lstrip().startswith("#"):
                continue  # the annotation macros' own definitions
            cm = CLASS_RE.match(code)
            if cm and depth <= 1:
                owner = cm.group(1)
            for m in ACQ_AFTER_RE.finditer(code):
                this_mu = mutex_id(m.group(1), owner)
                for other in m.group(2).split(","):
                    edges.setdefault(
                        (mutex_id(other, owner), this_mu),
                        f"{f.rel}:{i + 1} (declared)")
            for m in ACQ_BEFORE_RE.finditer(code):
                this_mu = mutex_id(m.group(1), owner)
                for other in m.group(2).split(","):
                    edges.setdefault(
                        (this_mu, mutex_id(other, owner)),
                        f"{f.rel}:{i + 1} (declared)")
            gm = GUARD_RE.search(code)
            if gm:
                mu = mutex_id(gm.group(1), owner)
                for _, held in guard_stack:
                    if held != mu:
                        edges.setdefault((held, mu), f"{f.rel}:{i + 1}")
                guard_stack.append((depth, mu))
            for ch in code:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    while guard_stack and guard_stack[-1][0] >= depth:
                        guard_stack.pop()
            if depth == 0:
                guard_stack.clear()

    if print_table:
        print("lock-order table (acquire left before right):")
        for (a, b), where in sorted(edges.items()):
            print(f"  {a} -> {b}    [{where}]")
        if not edges:
            print("  (no nested acquisitions, no declared order: "
                  "single-lock discipline)")

    # Cycle detection over the combined declared+observed digraph.
    adjacency = {}
    for (a, b) in edges:
        adjacency.setdefault(a, []).append(b)
    state = {}

    def dfs(node, stack):
        state[node] = 1
        stack.append(node)
        for nxt in adjacency.get(node, ()):
            if state.get(nxt, 0) == 1:
                cycle = stack[stack.index(nxt):] + [nxt]
                errors.append(
                    "[mutex-order] lock-order cycle: " + " -> ".join(cycle) +
                    "  (" + "; ".join(
                        edges.get((x, y), "?")
                        for x, y in zip(cycle, cycle[1:])) + ")")
            elif state.get(nxt, 0) == 0:
                dfs(nxt, stack)
        stack.pop()
        state[node] = 2

    for node in list(adjacency):
        if state.get(node, 0) == 0:
            dfs(node, [])


# ---------------------------------------------------------------------------
# Check: atomic-doc
# ---------------------------------------------------------------------------

ATOMIC_DECL_RE = re.compile(r"\bstd::atomic\s*<")
ATOMIC_DOC_EXEMPT = {"src/util/thread_annotations.h"}


def check_atomic_doc(files, errors):
    for f in files:
        if f.rel.parts[0] != "src" or str(f.rel) in ATOMIC_DOC_EXEMPT:
            continue
        for i, code in enumerate(f.code):
            if not ATOMIC_DECL_RE.search(code):
                continue
            if not code.rstrip().endswith(";"):
                continue  # parameter/continuation line, not a declaration
            window = "\n".join(f.raw[max(0, i - 5):i + 1])
            if "STJ_ATOMIC_DOC(" in window:
                continue
            if f.allowed(i + 1, "atomic-doc"):
                continue
            errors.append(
                f"{f.rel}:{i + 1}: [atomic-doc] std::atomic declaration "
                f"without an STJ_ATOMIC_DOC rationale (writers, readers, "
                f"memory order) on this or the five preceding lines"
            )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def make_frontend(kind):
    """Returns (name, frontend_or_None). Raises SystemExit(2) when a forced
    libclang frontend is unavailable."""
    if kind == "lexical":
        return "lexical", None
    try:
        fe = LibclangFrontend()
        return "libclang", fe
    except RuntimeError as e:
        if kind == "libclang":
            print(f"stj_analyzer: libclang frontend required but unusable: "
                  f"{e}", file=sys.stderr)
            raise SystemExit(2)
        print(f"stj_analyzer: libclang unavailable ({e}); "
              f"falling back to the lexical frontend", file=sys.stderr)
        return "lexical", None


def run_checks(files, checks, frontend_kind, frontend, print_table=False):
    errors = []
    for name, check in (("layer-order", check_layer_order),
                        ("naked-new", check_naked_new),
                        ("void-discard", check_void_discard),
                        ("platform-confined", check_platform_confined)):
        if name in checks:
            check(files, errors)
    files = [f for f in files if f.rel.parts[0] in SHIPPED_DIRS]
    if "status-discard" in checks:
        if frontend is not None:
            check_status_discard_libclang(files, errors, frontend)
            # The lexical pass still runs on headers (not in the ccdb).
            check_status_discard_lexical(
                [f for f in files if f.path.suffix == ".h"], errors)
        else:
            check_status_discard_lexical(files, errors)
    if "scope-checkin" in checks:
        check_scope_checkin(files, errors)
    if "loop-alloc" in checks:
        check_loop_alloc(files, errors)
    if "mutex-order" in checks:
        check_mutex_order(files, errors, print_table=print_table)
    if "atomic-doc" in checks:
        check_atomic_doc(files, errors)
    return errors


def run_tree(args):
    frontend_kind, frontend = make_frontend(args.frontend)
    files = collect_files()
    checks = args.checks.split(",") if args.checks else list(CHECKS)
    for c in checks:
        if c not in CHECKS:
            print(f"stj_analyzer: unknown check '{c}'", file=sys.stderr)
            return 2
    errors = run_checks(files, checks, frontend_kind, frontend,
                        print_table=args.lock_table)
    for e in errors:
        print(e)
    print(
        f"stj_analyzer[{frontend_kind}]: {len(files)} files, "
        f"{len(checks)} checks, {len(errors)} finding(s)",
        file=sys.stderr,
    )
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# Self-test: each check must flag its seeded violations and pass clean files
# ---------------------------------------------------------------------------

SELF_TEST_VIOLATIONS = [
    (
        "layer-order",
        "src/util/bad_layer.h",
        '#include "src/topology/pipeline.h"\n',
        1,
    ),
    (
        "naked-new",
        "src/join/bad_new.cpp",
        "void F() { int* p = new int[4]; delete[] p; }\n",
        1,
    ),
    (
        # In tests/: the rule covers test and bench code too.
        "void-discard",
        "tests/util/bad_void_test.cpp",
        "void F() { (void)G(); }\n",
        1,
    ),
    (
        # A POSIX header in an ordinary src/ TU must trip the confinement
        # even though layer-order has nothing to say.
        "platform-confined",
        "src/raster/bad_platform.cpp",
        "#include <unistd.h>\n",
        1,
    ),
    (
        "status-discard",
        "src/join/bad_discard.cpp",
        # Bare call and a discarded ternary, both of inventory functions.
        "Status DoWrite(int x);\n"
        "Status DoSync(int x);\n"
        "void F(bool flag) {\n"
        "  DoWrite(1);\n"
        "  flag ? DoWrite(2) : DoSync(3);\n"
        "}\n",
        2,
    ),
    (
        "scope-checkin",
        "src/topology/bad_workers.cpp",
        "void F(unsigned threads) {\n"
        "  internal::RunWorkers(threads, [&](unsigned worker) {\n"
        "    DoChunk(worker);\n"
        "  });\n"
        "}\n",
        1,
    ),
    (
        "loop-alloc",
        "src/topology/parallel.cpp",  # must be a HOT_FILES member
        "void F(int n) {\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    auto p = std::make_unique<int>(i);\n"
        "    std::vector<int> scratch(n);\n"
        "    Use(p.get(), scratch);\n"
        "  }\n"
        "}\n",
        2,
    ),
    (
        "mutex-order",
        "src/util/bad_order.cpp",
        "void A() {\n"
        "  std::lock_guard<std::mutex> l1(mu_a);\n"
        "  {\n"
        "    std::lock_guard<std::mutex> l2(mu_b);\n"
        "  }\n"
        "}\n"
        "void B() {\n"
        "  std::lock_guard<std::mutex> l1(mu_b);\n"
        "  {\n"
        "    std::lock_guard<std::mutex> l2(mu_a);\n"
        "  }\n"
        "}\n",
        1,
    ),
    (
        "atomic-doc",
        "src/util/bad_atomic.cpp",
        "std::atomic<int> g_counter{0};\n",
        1,
    ),
]

SELF_TEST_CLEAN = [
    (
        # layer-order twin: own layer and strictly lower ranks only.
        "src/topology/good_layer.cpp",
        '#include "src/topology/pipeline.h"\n'
        '#include "src/raster/april.h"\n'
        '#include "src/util/status.h"\n',
    ),
    (
        # naked-new twin: the word in comments and strings is not code.
        "src/join/good_new.cpp",
        "// A new tile grid.\n"
        "auto p = std::make_unique<int[]>(4);\n"
        'const char* kName = "new";\n',
    ),
    (
        # void-discard twin: commented discards and the sizeof no-op.
        "tests/util/good_void_test.cpp",
        "void F() {\n"
        "  (void)sizeof(int);\n"
        "  // Discarded: probe for side effects only.\n"
        "  (void)G();\n"
        "  (void)H();  // best effort\n"
        "}\n",
    ),
    (
        # platform-confined twin: the one allowlisted TU.
        "src/util/mmap_file.cpp",
        "#include <sys/mman.h>\n"
        "#include <unistd.h>\n"
        "#include <fcntl.h>\n",
    ),
    (
        "src/join/good_discard.cpp",
        "Status DoWrite(int x);\n"
        "void F(bool flag) {\n"
        "  Status st = DoWrite(1);\n"
        "  if (!st.ok()) return;\n"
        "  // Best-effort flush: failure handled by the next sync.\n"
        "  (void)DoWrite(2);\n"
        "}\n",
    ),
    (
        "src/topology/good_workers.cpp",
        "void F(unsigned threads, ExecContext* ctx) {\n"
        "  internal::RunWorkers(threads, [&](unsigned worker) {\n"
        "    ExecContext::Scope scope(ctx);\n"
        "    while (!scope.CheckIn()) DoChunk(worker);\n"
        "  });\n"
        "}\n",
    ),
    (
        "src/topology/parallel.cpp",
        "void F(int n) {\n"
        "  std::vector<int> scratch;\n"
        "  scratch.reserve(static_cast<size_t>(n));\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    scratch.clear();\n"
        "    scratch.push_back(i);\n"
        "    Use(scratch);\n"
        "  }\n"
        "}\n",
    ),
    (
        "src/util/good_order.cpp",
        "void A() {\n"
        "  std::lock_guard<std::mutex> l1(mu_a);\n"
        "  {\n"
        "    std::lock_guard<std::mutex> l2(mu_b);\n"
        "  }\n"
        "}\n"
        "void B() {\n"
        "  std::lock_guard<std::mutex> l1(mu_a);\n"
        "  {\n"
        "    std::lock_guard<std::mutex> l2(mu_b);\n"
        "  }\n"
        "}\n",
    ),
    (
        "src/util/good_atomic.cpp",
        'STJ_ATOMIC_DOC("demo counter; relaxed add, read post-join");\n'
        "std::atomic<int> g_counter{0};\n",
    ),
]


def self_test(frontend_choice):
    import tempfile

    global REPO
    real_repo = REPO
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        REPO = Path(tmp)
        try:
            for tag, rel, content, expected in SELF_TEST_VIOLATIONS:
                path = Path(tmp) / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(content)
                files = [CodeFile(path, path.relative_to(Path(tmp)))]
                errors = run_checks(files, [tag], "lexical", None)
                hits = [e for e in errors if f"[{tag}]" in e]
                if len(hits) < expected:
                    failures.append(
                        f"seeded {tag} violations: expected >= {expected} "
                        f"finding(s), got {len(hits)}: {errors}")
                path.unlink()

            for rel, content in SELF_TEST_CLEAN:
                path = Path(tmp) / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(content)
                files = [CodeFile(path, path.relative_to(Path(tmp)))]
                errors = run_checks(files, list(CHECKS), "lexical", None)
                if errors:
                    failures.append(f"clean file {rel} flagged: {errors}")
                path.unlink()
        finally:
            REPO = real_repo

    # When libclang is present, the AST backend must also catch the seeded
    # status discards (it subsumes the lexical findings).
    if frontend_choice != "lexical":
        try:
            fe = LibclangFrontend()
        except RuntimeError:
            fe = None
        if fe is not None:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "bad.cpp"
                path.write_text(
                    "namespace stj { struct Status { bool ok() const; }; }\n"
                    "stj::Status DoWrite(int);\n"
                    "void F() { DoWrite(1); }\n")
                try:
                    found = fe.unused_status_calls(path)
                except Exception as e:
                    found = []
                    failures.append(f"libclang self-test parse failed: {e}")
                if not any(line == 3 for line, _ in found):
                    failures.append(
                        "libclang backend missed the seeded status discard")

    for failure in failures:
        print(f"stj_analyzer self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("stj_analyzer self-test passed", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     add_help=True,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--frontend", choices=("auto", "lexical", "libclang"),
                        default="auto")
    parser.add_argument("--probe-libclang", action="store_true",
                        help="exit 0 iff the libclang frontend is usable")
    parser.add_argument("--checks", default=None,
                        help="comma-separated subset of: " + ",".join(CHECKS))
    parser.add_argument("--lock-table", action="store_true",
                        help="print the derived lock-order table")
    args = parser.parse_args()

    if args.probe_libclang:
        try:
            LibclangFrontend()
        except RuntimeError as e:
            print(f"stj_analyzer: libclang unusable: {e}", file=sys.stderr)
            return 2
        print("stj_analyzer: libclang usable")
        return 0

    if args.self_test:
        return self_test(args.frontend)
    return run_tree(args)


if __name__ == "__main__":
    sys.exit(main())
