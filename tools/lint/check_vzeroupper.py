#!/usr/bin/env python3
"""vzeroupper linter for the run-time-dispatched AVX2 kernels.

The AVX2 kernels in src/distance/batch_kernels.cc are target("avx2")
functions called from baseline x86-64 code. A function that leaves the upper
halves of the ymm registers dirty when it returns or calls out makes every
later SSE instruction on that thread pay a state-transition penalty (or a
false dependency on the upper halves), which has slowed unrelated stages by
several times. Compilers insert `vzeroupper` before such exits on their own,
but not reliably in every clone they make of a target-attributed function
(`.constprop` / `.isra` copies), so this linter checks the object code.

It disassembles each object file with `objdump -dr` and, for every function,
runs a forward data-flow over its instructions: the upper state becomes
dirty at any instruction naming a %ymm register and clean at `vzeroupper` or
`vzeroall` (and after a `call`, whose callee returns it clean). The function
fails when the state may be dirty at a `ret`, a `call`, a jump out of the
function (a tail call) or an indirect jump.

Exit status: 0 if clean, 1 on any violation or when no function in the
given objects touches %ymm at all (the wrong object, or a build without the
AVX2 kernels, would otherwise pass silently). Diagnostics are one per line:
`object: function+0xoffset: error: [vzeroupper] message`.

Check objects:  check_vzeroupper.py build/.../batch_kernels.cc.o
Self-test:      check_vzeroupper.py --self-test
  (runs the analysis over planted disassembly and asserts each violation is
  caught and each clean shape passes; registered in ctest as
  lint_vzeroupper_selftest)

Run it on an optimized build: sanitizer builds insert runtime calls between
vector instructions.
"""

import argparse
import re
import subprocess
import sys

FUNC_RE = re.compile(r"^([0-9a-f]+) <(.+)>:$")
INSN_RE = re.compile(r"^\s+([0-9a-f]+):\s+(.*)$")
RELOC_RE = re.compile(r"^\s+[0-9a-f]+: R_\S+\s+(\S+)")
TARGET_RE = re.compile(r"^([0-9a-f]+) <(.+?)(\+0x[0-9a-f]+)?>$")
PREFIXES = {"bnd", "notrack", "rep", "repz", "repe", "repnz", "repne", "lock",
            "data16", "cs", "ds"}


class Insn:
    def __init__(self, addr, mnemonic, operands):
        self.addr = addr
        self.mnemonic = mnemonic
        self.operands = operands
        self.reloc = None  # Symbol of a relocation on this instruction.


def parse(text):
    """objdump -dr text → {function name: [Insn]} (in address order)."""
    functions = {}
    current = None
    for line in text.splitlines():
        m = FUNC_RE.match(line)
        if m:
            current = []
            functions[m.group(2)] = current
            continue
        if current is None:
            continue
        m = RELOC_RE.match(line)
        if m and current:
            current[-1].reloc = m.group(1)
            continue
        m = INSN_RE.match(line)
        if not m:
            continue
        words = m.group(2).split("#")[0].split()
        while words and words[0] in PREFIXES:
            words = words[1:]
        if not words:
            continue
        current.append(Insn(int(m.group(1), 16), words[0],
                            " ".join(words[1:])))
    return functions


def kind(insn):
    op = insn.mnemonic
    if op.startswith("ret"):
        return "ret"
    if op.startswith("call"):
        return "call"
    if op in ("jmp", "jmpq"):
        return "jmp"
    if op.startswith("j") or op.startswith("loop"):
        return "jcc"
    return "plain"


def jump_target(insn, name, addrs):
    """Index-free target: an address inside `name`, or None for a jump out
    (a tail call, a relocated target or an indirect jump)."""
    if insn.reloc is not None or insn.operands.startswith("*"):
        return None
    m = TARGET_RE.match(insn.operands)
    if not m or m.group(2) != name:
        return None
    addr = int(m.group(1), 16)
    return addr if addr in addrs else None


def check_function(name, insns):
    """Returns (touches_ymm, [(offset, message)])."""
    if not insns:
        return False, []
    index = {insn.addr: i for i, insn in enumerate(insns)}
    touches = any("%ymm" in i.operands for i in insns)
    if not touches:
        return False, []
    base = insns[0].addr
    dirty_in = [False] * len(insns)
    seen = [False] * len(insns)
    seen[0] = True
    work = [0]
    violations = {}
    while work:
        i = work.pop()
        insn = insns[i]
        dirty = dirty_in[i]
        k = kind(insn)
        if insn.mnemonic in ("vzeroupper", "vzeroall"):
            dirty = False
        elif "%ymm" in insn.operands:
            dirty = True
        successors = []
        if k == "ret":
            if dirty:
                violations[insn.addr] = "ret with dirty upper ymm state"
        elif k == "call":
            if dirty:
                violations[insn.addr] = "call with dirty upper ymm state"
            dirty = False
            successors.append(i + 1)
        elif k in ("jmp", "jcc"):
            target = jump_target(insn, name, index)
            if target is None:
                if dirty:
                    what = ("indirect jump" if insn.operands.startswith("*")
                            else "jump out of the function")
                    violations[insn.addr] = what + " with dirty upper ymm state"
            else:
                successors.append(index[target])
            if k == "jcc":
                successors.append(i + 1)
        else:
            successors.append(i + 1)
        for s in successors:
            if s >= len(insns):
                continue
            if not seen[s] or (dirty and not dirty_in[s]):
                seen[s] = True
                dirty_in[s] = dirty_in[s] or dirty
                work.append(s)
    return True, sorted((addr - base, msg) for addr, msg in violations.items())


def check_text(label, text):
    """Returns (number of ymm functions, diagnostics)."""
    ymm_functions = 0
    diagnostics = []
    for name, insns in parse(text).items():
        touches, violations = check_function(name, insns)
        ymm_functions += 1 if touches else 0
        for offset, message in violations:
            diagnostics.append(f"{label}: {name}+{offset:#x}: error: "
                               f"[vzeroupper] {message}")
    return ymm_functions, diagnostics


def check_objects(paths):
    total = 0
    diagnostics = []
    for path in paths:
        try:
            text = subprocess.run(["objdump", "-dr", "--no-show-raw-insn",
                                   path], check=True,
                                  capture_output=True, text=True).stdout
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"{path}: error: [vzeroupper] objdump failed: {e}")
            return 1
        count, found = check_text(path, text)
        total += count
        diagnostics += found
    for line in diagnostics:
        print(line)
    if total == 0:
        print("error: [vzeroupper] no function touches %ymm in "
              + ", ".join(paths) + " (wrong object?)")
        return 1
    print(f"vzeroupper: {total} ymm functions checked, "
          f"{len(diagnostics)} violations")
    return 1 if diagnostics else 0


def func(name, body):
    """Planted disassembly of one function at address 0x100."""
    lines = [f"0000000000000100 <{name}>:"]
    addr = 0x100
    for insn in body:
        if insn.startswith("RELOC "):
            lines.append(f"\t\t\t{addr - 1:x}: R_X86_64_PLT32\t{insn[6:]}-0x4")
            continue
        lines.append(f"  {addr:x}:\t{insn}")
        addr += 4
    return "\n".join(lines) + "\n"


def self_test():
    # Label each planted function; jump targets are written as addresses
    # relative to 0x100 (4 bytes per instruction).
    def at(n):
        return f"{0x100 + 4 * n:x}"

    cases = [
        ("clean_exit", False, [
            "vmovapd %ymm0,%ymm1", "vzeroupper", "ret"]),
        ("no_ymm", False, [
            "addsd %xmm1,%xmm0", "ret"]),
        ("dirty_ret", True, [
            "vmovapd %ymm0,%ymm1", "ret"]),
        ("dirty_call", True, [
            "vaddpd %ymm0,%ymm1,%ymm2", f"call   {at(2)} <dirty_call+0x8>",
            "RELOC scalar_tail", "ret"]),
        ("dirty_tail_jump", True, [
            "vaddpd %ymm0,%ymm1,%ymm2", "jmp    400 <other>"]),
        ("dirty_indirect_jump", True, [
            "vaddpd %ymm0,%ymm1,%ymm2", "notrack jmp *%rax"]),
        # ymm work, a branch around the vzeroupper to a second ret.
        ("dirty_branch", True, [
            "vaddpd %ymm0,%ymm1,%ymm2",
            f"jne    {at(4)} <dirty_branch+0x10>",
            "vzeroupper", "ret", "ret"]),
        # A loop of ymm work, vzeroupper after it, then a scalar call.
        ("clean_loop", False, [
            "vaddpd %ymm0,%ymm1,%ymm2",
            f"jne    {at(0)} <clean_loop>",
            "vzeroupper", f"call   {at(4)} <clean_loop+0x10>",
            "RELOC scalar_tail", "ret"]),
        # ymm only on a branch that zeroes before it rejoins.
        ("clean_diamond", False, [
            f"je     {at(4)} <clean_diamond+0x10>",
            "vaddpd %ymm0,%ymm1,%ymm2", "vzeroupper",
            f"jmp    {at(4)} <clean_diamond+0x10>",
            "ret"]),
        # Dirty again after a call, then returned without zeroing.
        ("dirty_after_call", True, [
            "vzeroupper", f"call   {at(2)} <dirty_after_call+0x8>",
            "RELOC helper", "vmovupd %ymm0,(%rdi)", "ret"]),
    ]
    failures = 0
    text = "".join(func(name, body) for name, _, body in cases)
    count, diagnostics = check_text("selftest.o", text)
    for name, bad, _ in cases:
        flagged = any(f" {name}+" in d for d in diagnostics)
        if flagged != bad:
            failures += 1
            print(f"self-test FAILED: {name} "
                  f"{'not flagged' if bad else 'flagged'}: {diagnostics}")
    want_ymm = sum(1 for name, _, body in cases
                   if any("%ymm" in insn for insn in body))
    if count != want_ymm:
        failures += 1
        print(f"self-test FAILED: {count} ymm functions, want {want_ymm}")
    if failures == 0:
        print(f"vzeroupper self-test: {len(cases)} planted functions, "
              "all classified correctly")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("objects", nargs="*", help="object files to check")
    parser.add_argument("--self-test", action="store_true",
                        help="check the analysis on planted disassembly")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.objects:
        parser.error("no object files given")
    return check_objects(args.objects)


if __name__ == "__main__":
    sys.exit(main())
