#!/usr/bin/env bash
# Sampled CPU profile of one perfbench workload: where does the time go?
#
#   bash scripts/profile.sh <workload> [seconds] [within]
#
# For hosts without `perf` or a hardware PMU. It builds perfbench with
# frame pointers and debug info (`-C force-frame-pointers=yes -g`) into
# a target dir of its own, target/profile, and scripts/sampler.c into a
# preloadable object with the system `cc`. Then it runs
# `perfbench --workload <workload> --seconds <seconds> --trace 0`
# (default 20 s) with the sampler preloaded: at each tick of the
# profiling timer, SIGPROF records the interrupted instruction and the
# frame-pointer chain above it. The timer asks for a tick per 1 ms of
# CPU time; the kernel rounds that up to its scheduler tick, so expect
# 250 to 1000 samples per CPU second. Last, it maps the addresses through
# `addr2line -f -i -C`, so inlined functions count as frames of their
# own, and prints per function its self share (samples where it is the
# innermost frame) and its inclusive share (samples where it is on the
# stack). Given [within], a substring of a function name such as
# `PodEngine`, the shares are of the samples with a matching function on
# the stack only, so set-up and the benchmark's own work drop out.
#
# Limits: the prebuilt Rust std and libc keep no frame pointers, so a
# sample taken inside them loses their direct caller and inclusive
# shares can read a little low. Inlined functions show only where the
# debug info keeps their inline records: the pod engine's phase methods
# (`PodEngine::join`, `dispatch`, ...) vanish into `PodEngine::run`,
# so per-phase shares need a scratch copy that marks them
# `#[inline(never)]`. Nothing under perfbench/ is edited, and CI does
# not run this script.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: bash scripts/profile.sh <workload> [seconds] [within]" >&2
    exit 2
fi
workload=$1
seconds=${2:-20}
within=${3:-}
cd "$(dirname "$0")/.."
out=target/profile
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes -g" cargo build -q --release --offline \
    --manifest-path perfbench/Cargo.toml --target-dir "$out"
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/sampler.c
bin=$out/release/perfbench
samples=$out/$workload.samples

SAMPLER_OUT=$samples LD_PRELOAD=$PWD/$out/sampler.so \
    "$bin" --workload "$workload" --seconds "$seconds" --trace 0 | tail -n 1

python3 - "$bin" "$samples" "$within" <<'EOF'
import collections, os, re, struct, subprocess, sys

binary, samples_path, within = sys.argv[1:4]
binary = os.path.realpath(binary)

# The executable's mappings; its load base is the one at file offset 0.
base, ranges = None, []
with open(samples_path + ".maps") as maps:
    for line in maps:
        f = line.split()
        if len(f) >= 6 and os.path.realpath(f[5]) == binary:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            ranges.append((lo, hi))
            if int(f[2], 16) == 0:
                base = lo
if base is None:
    sys.exit("the executable is not in the saved memory map")

def inside(addr):
    return any(lo <= addr < hi for lo, hi in ranges)

data = open(samples_path, "rb").read()
stacks, i = [], 0
while i + 8 <= len(data):
    (n,) = struct.unpack_from("<Q", data, i)
    stacks.append(struct.unpack_from(f"<{n}Q", data, i + 8))
    i += 8 * (n + 1)

# Return addresses point after the call: look up the call itself.
def lookup(addr, leaf):
    return addr - base - (0 if leaf else 1)

addrs = sorted({lookup(a, j == 0) for s in stacks for j, a in enumerate(s) if inside(a)})
names = {}
if addrs:
    text = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="\n".join(f"{a:#x}" for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    current, k = None, 0
    while k < len(text):
        if text[k].startswith("0x"):
            current = int(text[k], 16)
            names[current] = []
            k += 1
        else:
            fn = re.sub(r"::h[0-9a-f]{16}$", "", text[k])
            if fn != "??":
                names[current].append(fn)
            k += 2  # the function, then its file:line

def frames(stack):
    """Function names on `stack`, innermost (inlined) first; a leaf in a
    shared library counts as one frame named for that."""
    out = [] if inside(stack[0]) else ["[shared library]"]
    for j, a in enumerate(stack):
        if inside(a):
            out.extend(names.get(lookup(a, j == 0), []))
    return out or ["[unknown]"]

selected = [f for f in map(frames, stacks) if not within or any(within in fn for fn in f)]
total = len(selected)
if total == 0:
    sys.exit(f"no samples{' within ' + within if within else ''} ({len(stacks)} in all)")
own, incl = collections.Counter(), collections.Counter()
for f in selected:
    own[f[0]] += 1
    incl.update(set(f))
scope = f" within '{within}'" if within else ""
print(f"{total} samples{scope} of {len(stacks)}")
for title, counter in (("self", own), ("inclusive", incl)):
    print(f"\n{title:>9}  function")
    for fn, c in counter.most_common(40):
        print(f"{100 * c / total:8.1f}%  {fn}")
EOF
