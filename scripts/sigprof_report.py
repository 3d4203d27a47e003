#!/usr/bin/env python3
"""Symbolizes a sigprof profile into self and inclusive shares per function.

    python3 scripts/sigprof_report.py PROFILE [--top N] [--under REGEX]
                                              [--outer]

PROFILE is the file the preloaded sampler (tools/sigprof/sigprof.cpp) wrote
(SIGPROF_OUT). Addresses are
mapped to their ELF file through the recorded /proc/self/maps and resolved
with `addr2line -f -i -C`, so inlined functions get their own rows when the
binary has debug info (build with -g for that; without it, rows are the
out-of-line symbols).

Self share: samples whose interrupted PC lies in the function (innermost
inlined frame). Inclusive share: samples with the function anywhere on the
stack, counted once per sample. --under keeps only samples with a function
matching REGEX on the stack, so the shares become shares of that subtree.
"""

import argparse
import collections
import re
import struct
import subprocess
import sys


def read_profile(path):
    samples, maps = [], []
    in_maps = False
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# maps"):
                in_maps = True
            elif line.startswith("#"):
                continue
            elif in_maps:
                maps.append(line)
            elif line:
                samples.append([int(a, 16) for a in line.split()])
    return samples, parse_maps(maps)


def parse_maps(lines):
    """(start, end, file offset, path) for every file-backed mapping."""
    regions = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 6 or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        regions.append((start, end, int(parts[2], 16), parts[5]))
    regions.sort()
    return regions


def elf_layout(path, cache={}):
    """(is_shared_object, has_symtab, [(p_offset, p_vaddr, p_filesz)]) of
    the PT_LOAD segments, or None for a file that is not 64-bit ELF."""
    if path in cache:
        return cache[path]
    layout = None
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] == b"\x7fELF" and head[4] == 2:
                e_type = struct.unpack_from("<H", head, 16)[0]
                phoff, shoff = struct.unpack_from("<QQ", head, 32)
                phentsize, phnum, shentsize, shnum = struct.unpack_from(
                    "<HHHH", head, 54)
                loads = []
                for i in range(phnum):
                    f.seek(phoff + i * phentsize)
                    ph = f.read(56)
                    p_type, _, p_offset, p_vaddr = struct.unpack_from(
                        "<IIQQ", ph, 0)
                    p_filesz = struct.unpack_from("<Q", ph, 32)[0]
                    if p_type == 1:
                        loads.append((p_offset, p_vaddr, p_filesz))
                has_symtab = False
                for i in range(shnum):
                    f.seek(shoff + i * shentsize + 4)
                    has_symtab |= struct.unpack("<I", f.read(4))[0] == 2
                layout = (e_type == 3, has_symtab, loads)
    except OSError:
        pass
    cache[path] = layout
    return layout


def to_file_address(addr, regions):
    """(path, address as addr2line expects it) or None if unmapped."""
    lo, hi = 0, len(regions)
    while lo < hi:
        mid = (lo + hi) // 2
        if regions[mid][1] <= addr:
            lo = mid + 1
        else:
            hi = mid
    if lo == len(regions) or not regions[lo][0] <= addr:
        return None
    start, _, offset, path = regions[lo]
    layout = elf_layout(path)
    if layout is None:
        return None
    shared, _, loads = layout
    if not shared:
        return path, addr
    file_off = addr - start + offset
    for p_offset, p_vaddr, p_filesz in loads:
        if p_offset <= file_off < p_offset + p_filesz:
            return path, file_off - p_offset + p_vaddr
    return path, file_off


def symbolize(by_file):
    """{(path, addr): [function names, innermost inlined frame first]}.

    In a file without a .symtab (a stripped system library) addr2line can
    only name the nearest exported symbol, which may be the wrong
    function; such names get a "?" and the library's name."""
    names = {}
    for path, addrs in by_file.items():
        stripped = not elf_layout(path)[1]
        base = path.rsplit("/", 1)[-1]
        addrs = sorted(addrs)
        cmd = ["addr2line", "-a", "-f", "-i", "-C", "-e", path]
        out = subprocess.run(cmd, input="\n".join(hex(a) for a in addrs),
                             capture_output=True, text=True).stdout
        current = None
        lines = out.splitlines()
        i = 0
        while i < len(lines):
            line = lines[i]
            if line.startswith("0x"):
                current = (path, int(line, 16))
                names[current] = []
                i += 1
                continue
            # Function line, then file:line.
            if current is not None:
                names[current].append(
                    "%s? [%s]" % (line, base) if stripped else line)
            i += 2
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--under", help="keep samples with a matching frame")
    parser.add_argument("--outer", action="store_true",
                        help="charge self time to the out-of-line function "
                        "rather than the innermost inlined one")
    args = parser.parse_args()

    samples, regions = read_profile(args.profile)
    # Frame 0 is the interrupted PC; the others are return addresses, so
    # look up the call instruction before them.
    resolved = []
    by_file = collections.defaultdict(set)
    for frames in samples:
        stack = []
        for depth, addr in enumerate(frames):
            loc = to_file_address(addr if depth == 0 else addr - 1, regions)
            stack.append(loc)
            if loc:
                by_file[loc[0]].add(loc[1])
        resolved.append(stack)
    names = symbolize(by_file)

    def frame_names(loc):
        if loc is None:
            return ["[unknown]"]
        chain = names.get(loc) or ["??"]
        if chain == ["??"]:
            return ["?? [%s]" % loc[0].rsplit("/", 1)[-1]]
        return chain

    under = re.compile(args.under) if args.under else None
    self_count = collections.Counter()
    incl_count = collections.Counter()
    kept = 0
    for stack in resolved:
        chains = [frame_names(loc) for loc in stack]
        seen = {name for chain in chains for name in chain}
        if under and not any(under.search(n) for n in seen):
            continue
        kept += 1
        if chains:
            self_count[chains[0][-1 if args.outer else 0]] += 1
        for name in seen:
            incl_count[name] += 1

    print("%d samples%s" % (kept, " under /%s/" % args.under if under
                            else ""))
    if not kept:
        return
    for title, counter in (("self", self_count),
                           ("inclusive", incl_count)):
        print("\n%-9s  samples  function" % title)
        for name, n in counter.most_common(args.top):
            print("%8.1f%%  %7d  %s" % (100.0 * n / kept, n, name))


if __name__ == "__main__":
    sys.exit(main())
