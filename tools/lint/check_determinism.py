#!/usr/bin/env python3
"""FP-determinism and resumability linter.

The pipeline sells a hard guarantee: byte-identical output at 1 vs N threads,
scalar vs SIMD, eager vs chunked (pinned by tests/golden/). That guarantee
survives only if nobody reintroduces a construct that makes floating-point
results target-, scheduling-, or run-dependent. This linter bans those
constructs statically, so a violation fails the build instead of flaking a
golden diff months later.

Rules (each has an id used in diagnostics and suppressions):

  fast-math     -ffast-math / -funsafe-math-optimizations flags and
                fast-math / FP-contraction pragmas (#pragma STDC FP_CONTRACT,
                #pragma float_control, #pragma clang fp, fast-math
                #pragma GCC optimize). The build pins -ffp-contract=off
                globally; nothing may override it. Scanned in src/ AND in
                CMake files.
  unordered-fp  std::reduce / std::transform_reduce / std::execution
                policies: reduction order is unspecified, so accumulating
                doubles through them is scheduling-dependent by definition.
                Use ordered loops (or the index-addressed ParallelFor
                pattern) instead.
  fma           FMA contraction intrinsics (_mm*_fmadd/_fmsub/_fnmadd/
                _fnmsub, __builtin_fma*, std::fma): fused multiply-add
                rounds once where separate ops round twice, so results
                differ from the scalar reference. Allowed ONLY in
                distance/store_kernel_detail.h, the single canonical kernel
                all paths share (if FMA ever lands, every path inherits it
                together and the goldens are regenerated once).
  simd-target   Instruction-set escapes. The AVX2 batch kernels are
                target("avx2") functions selected at run time, so a
                target(...) attribute or pragma is allowed ONLY in
                distance/batch_kernels.cc; anywhere else it would spread
                target-specific code, and inline header functions included
                into such a scope would silently become AVX2 code.
                -mavx2, -mfma and -march=native (whole-TU AVX2/FMA) and any
                target(...) naming fma are banned everywhere, that file
                included. Scanned in src/ AND in CMake files.
  wild-rng      rand()/srand(), std::random_device, and time-seeded RNG
                (time(NULL/nullptr/0), *_clock::now as a seed source):
                library code must draw all randomness from common::Rng with
                an explicit caller-provided seed, or runs are not
                reproducible/resumable. Allowed only under src/datagen/
                (and even there explicit seeds are the norm).

Comments are stripped before matching, so prose mentioning a banned name is
fine. Suppression: `// determinism:allow(<rule-id>) -- <justification>` on
the offending line; a marker without a justification is itself an error.

Exit status: 0 if clean, 1 on any violation; diagnostics are
`path:line: error: [determinism/<rule>] message`.

Run over the tree:   check_determinism.py --root <repo-root>
Self-test:           check_determinism.py --self-test
"""

import argparse
import os
import re
import sys
import tempfile

# A target("...") attribute or pragma.
TARGET_ATTR = re.compile(r"\btarget\s*\(\s*\"")

RULES = [
    ("fast-math", re.compile(
        r"-ffast-math|-funsafe-math-optimizations"
        r"|#\s*pragma\s+STDC\s+FP_CONTRACT\s+(?:ON|DEFAULT)"
        r"|#\s*pragma\s+float_control"
        r"|#\s*pragma\s+clang\s+fp\b"
        r"|#\s*pragma\s+GCC\s+optimize[^\n]*fast-math"),
     "fast-math / FP-contraction override breaks bit-exact goldens "
     "(the build pins -ffp-contract=off globally)"),
    ("unordered-fp", re.compile(
        r"\bstd\s*::\s*(?:reduce|transform_reduce)\b"
        r"|\bstd\s*::\s*execution\s*::"),
     "unordered-reduction primitive: accumulation order is unspecified, so "
     "FP results become scheduling-dependent; use an ordered loop or the "
     "index-addressed ParallelFor pattern"),
    ("fma", re.compile(
        r"\b_mm\d*_(?:fmadd|fmsub|fnmadd|fnmsub)_\w+"
        r"|\b__builtin_fma\w*\b"
        r"|\bstd\s*::\s*fma[fl]?\s*\("),
     "FMA rounds once where mul+add round twice, diverging from the scalar "
     "reference; FMA may live only in distance/store_kernel_detail.h (the "
     "one canonical kernel every path shares)"),
    ("simd-target", re.compile(
        r"-mavx2\b|-mfma\b|-march=native\b"
        r"|\btarget\s*\(\s*\"[^\"]*\bfma"),
     "whole-TU AVX2/FMA or an FMA target makes results and inline header "
     "code target-dependent; the SIMD kernels are target(\"avx2\") "
     "functions in distance/batch_kernels.cc, picked at run time"),
    ("simd-target", TARGET_ATTR,
     "target(...) attributes and pragmas are allowed only in "
     "distance/batch_kernels.cc, next to the run-time kernel dispatch"),
    ("wild-rng", re.compile(
        r"(?<![\w:])s?rand\s*\(" r"|\bstd\s*::\s*random_device\b"
        r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
        r"|\b(?:steady|system|high_resolution)_clock\s*::\s*now\b"),
     "non-reproducible randomness/seeding: draw from common::Rng with an "
     "explicit caller-provided seed (time-seeded or device-seeded RNG makes "
     "runs non-resumable)"),
]

# (rule-id, pattern) -> path predicate (relative, '/'-separated) where the
# pattern is permitted; by rule id alone when the rule has one pattern.
ALLOWLIST = {
    "fma": lambda rel: rel == "src/distance/store_kernel_detail.h",
    "wild-rng": lambda rel: rel.startswith("src/datagen/"),
    ("simd-target", TARGET_ATTR.pattern):
        lambda rel: rel == "src/distance/batch_kernels.cc",
}

# Rules that also apply to CMake files.
CMAKE_RULES = ("fast-math", "simd-target")

ALLOW_RE = re.compile(r"//\s*determinism:allow\(([\w-]+)\)"
                      r"(?:\s*--\s*(\S.*))?")

CMAKE_FILES = ("CMakeLists.txt", "CMakePresets.json")
SOURCE_EXTS = (".h", ".cc")


def strip_comments(lines):
    """Yields (lineno, code, raw) with //- and /*-comments blanked out.

    String literals are not parsed; banned tokens inside strings are so
    unlikely (and a false positive so cheap to suppress) that the simple
    scanner wins on auditability.
    """
    in_block = False
    for lineno, raw in enumerate(lines, 1):
        out = []
        i = 0
        while i < len(raw):
            if in_block:
                end = raw.find("*/", i)
                if end == -1:
                    i = len(raw)
                else:
                    in_block = False
                    i = end + 2
            else:
                line_c = raw.find("//", i)
                block_c = raw.find("/*", i)
                if line_c == -1 and block_c == -1:
                    out.append(raw[i:])
                    break
                if line_c != -1 and (block_c == -1 or line_c < block_c):
                    out.append(raw[i:line_c])
                    break
                out.append(raw[i:block_c])
                in_block = True
                i = block_c + 2
        yield lineno, "".join(out), raw


def lint_file(path, rel, errors, cmake_mode=False):
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    active = RULES if not cmake_mode else [r for r in RULES
                                           if r[0] in CMAKE_RULES]
    for lineno, code, raw in strip_comments(lines):
        if cmake_mode:
            code = code.split("#", 1)[0]  # CMake comments run to the EOL.
        allow = ALLOW_RE.search(raw)
        if allow and not allow.group(2):
            errors.append(
                (rel, lineno, "allow",
                 f"determinism:allow({allow.group(1)}) without a "
                 f"justification (write `// determinism:allow(...) -- "
                 f"<why>`)"))
            continue
        for rule_id, pattern, why in active:
            if not pattern.search(code):
                continue
            if allow and allow.group(1) == rule_id:
                continue  # Justified suppression.
            permitted = ALLOWLIST.get((rule_id, pattern.pattern),
                                      ALLOWLIST.get(rule_id))
            if permitted and permitted(rel):
                continue
            errors.append(
                (rel, lineno, rule_id,
                 f"banned construct `{pattern.search(code).group(0).strip()}`"
                 f": {why}"))


def lint_tree(root):
    errors = []
    src_root = os.path.join(root, "src")
    if not os.path.isdir(src_root):
        return [("src", 0, "tree", f"no src/ directory under {root}")]
    for dirpath, dirnames, filenames in sorted(os.walk(src_root)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                lint_file(path, rel, errors)
    for name in CMAKE_FILES:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            lint_file(path, name, errors, cmake_mode=True)
    return errors


def report(errors):
    for rel, lineno, rule, msg in errors:
        print(f"{rel}:{lineno}: error: [determinism/{rule}] {msg}")
    return 1 if errors else 0


def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def self_test():
    failures = []

    def check(name, cond, detail=""):
        status = "ok" if cond else "FAIL"
        print(f"  [{status}] {name}{(' — ' + detail) if detail else ''}")
        if not cond:
            failures.append(name)

    with tempfile.TemporaryDirectory(prefix="lint_det_") as root:
        write(root, "src/distance/clean.cc",
              "// std::reduce mentioned in a comment is fine\n"
              "double Sum(const double* p, int n) {\n"
              "  double s = 0.0;\n"
              "  for (int i = 0; i < n; ++i) s += p[i];\n"
              "  return s;\n"
              "}\n")
        check("clean tree passes", lint_tree(root) == [])

        # unordered-fp on an exact line.
        write(root, "src/distance/bad_reduce.cc",
              "#include <numeric>\n"
              "double Sum(const double* p, int n) {\n"
              "  return std::reduce(p, p + n, 0.0);\n"
              "}\n")
        errors = lint_tree(root)
        check("std::reduce caught at exact line",
              any(e[0] == "src/distance/bad_reduce.cc" and e[1] == 3
                  and e[2] == "unordered-fp" for e in errors),
              f"got: {errors}")
        os.remove(os.path.join(root, "src/distance/bad_reduce.cc"))

        # fma: banned outside the canonical kernel, allowed inside it.
        fma_line = "  __m256d r = _mm256_fmadd_pd(a, b, c);\n"
        write(root, "src/cluster/bad_fma.cc", "void F() {\n" + fma_line + "}\n")
        errors = lint_tree(root)
        check("FMA intrinsic caught outside store_kernel_detail.h",
              any(e[1] == 2 and e[2] == "fma" for e in errors),
              f"got: {errors}")
        os.remove(os.path.join(root, "src/cluster/bad_fma.cc"))
        write(root, "src/distance/store_kernel_detail.h",
              "void F() {\n" + fma_line + "}\n")
        check("FMA allowed in store_kernel_detail.h", lint_tree(root) == [])
        os.remove(os.path.join(root, "src/distance/store_kernel_detail.h"))

        # wild-rng: banned in library code, allowed under datagen/.
        rng_line = "int x = rand();\n"
        write(root, "src/cluster/bad_rng.cc", rng_line)
        errors = lint_tree(root)
        check("rand() caught outside datagen/",
              any(e[1] == 1 and e[2] == "wild-rng" for e in errors),
              f"got: {errors}")
        os.remove(os.path.join(root, "src/cluster/bad_rng.cc"))
        write(root, "src/datagen/gen.cc", rng_line)
        check("rand() allowed under datagen/", lint_tree(root) == [])
        os.remove(os.path.join(root, "src/datagen/gen.cc"))

        # time-seeding and random_device.
        write(root, "src/params/bad_seed.cc",
              "#include <ctime>\n"
              "unsigned Seed() { return time(nullptr); }\n")
        errors = lint_tree(root)
        check("time(nullptr) seed caught",
              any(e[1] == 2 and e[2] == "wild-rng" for e in errors),
              f"got: {errors}")
        os.remove(os.path.join(root, "src/params/bad_seed.cc"))

        # fast-math pragma in source and flag in CMake.
        write(root, "src/geom/bad_pragma.cc",
              "#pragma STDC FP_CONTRACT ON\n")
        errors = lint_tree(root)
        check("FP_CONTRACT pragma caught",
              any(e[1] == 1 and e[2] == "fast-math" for e in errors),
              f"got: {errors}")
        os.remove(os.path.join(root, "src/geom/bad_pragma.cc"))
        write(root, "CMakeLists.txt",
              "add_compile_options(-ffast-math)\n")
        errors = lint_tree(root)
        check("-ffast-math in CMakeLists caught",
              any(e[0] == "CMakeLists.txt" and e[1] == 1
                  and e[2] == "fast-math" for e in errors),
              f"got: {errors}")
        os.remove(os.path.join(root, "CMakeLists.txt"))

        # simd-target: target("avx2") only in batch_kernels.cc; -mavx2,
        # -mfma, -march=native and FMA targets nowhere.
        attr_line = ('__attribute__((target("avx2"))) void Lanes();\n')
        write(root, "src/cluster/bad_target.cc", "// SIMD\n" + attr_line)
        errors = lint_tree(root)
        check("target(\"avx2\") caught outside batch_kernels.cc",
              any(e[0] == "src/cluster/bad_target.cc" and e[1] == 2
                  and e[2] == "simd-target" for e in errors),
              f"got: {errors}")
        os.remove(os.path.join(root, "src/cluster/bad_target.cc"))
        write(root, "src/distance/batch_kernels.h",
              '#pragma GCC target("avx2")\n')
        errors = lint_tree(root)
        check("target pragma caught in the kernels' header",
              any(e[1] == 1 and e[2] == "simd-target" for e in errors),
              f"got: {errors}")
        os.remove(os.path.join(root, "src/distance/batch_kernels.h"))
        write(root, "src/distance/batch_kernels.cc", attr_line)
        check("target(\"avx2\") allowed in batch_kernels.cc",
              lint_tree(root) == [])
        write(root, "src/distance/batch_kernels.cc",
              attr_line + '__attribute__((target("avx2,fma"))) void F();\n')
        errors = lint_tree(root)
        check("FMA target caught even in batch_kernels.cc",
              [(e[1], e[2]) for e in errors] == [(2, "simd-target")],
              f"got: {errors}")
        os.remove(os.path.join(root, "src/distance/batch_kernels.cc"))
        for flag in ("-mavx2", "-mfma", "-march=native"):
            write(root, "CMakeLists.txt",
                  "# Kernels\nadd_compile_options(" + flag + ")\n")
            errors = lint_tree(root)
            check(f"{flag} in CMakeLists caught",
                  any(e[0] == "CMakeLists.txt" and e[1] == 2
                      and e[2] == "simd-target" for e in errors),
                  f"got: {errors}")
        write(root, "CMakeLists.txt", "# -mavx2 in a comment is fine\n")
        check("flag named in a CMake comment passes", lint_tree(root) == [],
              f"got: {lint_tree(root)}")
        os.remove(os.path.join(root, "CMakeLists.txt"))

        # Suppressions: bare marker rejected, justified marker honored.
        write(root, "src/eval/supp.cc",
              "double s = std::reduce(p, q);"
              "  // determinism:allow(unordered-fp)\n")
        errors = lint_tree(root)
        check("bare determinism:allow rejected",
              any(e[2] == "allow" for e in errors), f"got: {errors}")
        write(root, "src/eval/supp.cc",
              "double s = std::reduce(p, q);"
              "  // determinism:allow(unordered-fp) -- self-test fixture\n")
        check("justified determinism:allow accepted", lint_tree(root) == [])

    if failures:
        print(f"self-test FAILED: {len(failures)} check(s): {failures}")
        return 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="plant banned constructs in a temp tree and "
                             "assert the linter catches them")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    errors = lint_tree(args.root)
    rc = report(errors)
    if rc == 0:
        print("check_determinism: clean (no banned FP/RNG constructs)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
