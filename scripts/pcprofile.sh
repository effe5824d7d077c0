#!/usr/bin/env bash
# Sampled self-time profile of one command, for sandboxes without `perf`:
# an LD_PRELOAD shim samples the program counter on SIGPROF (1 kHz of CPU
# time), and each sample is attributed with `addr2line -i` to the innermost
# workspace function at that address, inlined or not (the release profile
# keeps line tables, inline frames included).
#
#   scripts/pcprofile.sh [-n TOP] [-r RUNS] -- target/release/titreplay ...
#
# Runs the command RUNS times (default 1; the timer ticks at the kernel's
# HZ, so a sub-second run yields a few hundred samples) and prints the TOP
# (default 25) functions by share of all samples, each with its file under
# crates/. Needs gcc, addr2line and python3; builds nothing of the
# workspace and writes only to a temporary directory.
set -euo pipefail
top=25
runs=1
while [ "${1:-}" = "-n" ] || [ "${1:-}" = "-r" ]; do
    if [ "$1" = "-n" ]; then top=$2; else runs=$2; fi
    shift 2
done
[ "${1:-}" = "--" ] && shift
[ $# -ge 1 ] || { echo "usage: $0 [-n TOP] [-r RUNS] -- command [args...]" >&2; exit 2; }
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cat >"$work/pcsample.c" <<'C'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static volatile unsigned long n;
static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig; (void)si;
    unsigned long i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
#if defined(__x86_64__)
    if (i < MAX_SAMPLES) pcs[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    if (i < MAX_SAMPLES) pcs[i] = ((ucontext_t *)uc)->uc_mcontext.pc;
#endif
}
__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, 0);
}
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    const char *out = getenv("PCSAMPLE_OUT");
    FILE *f = out ? fopen(out, "a") : 0;
    if (!f) return;
    /* Where the executable (the first mapping's file) sits, to undo PIE
       relocation and to tell its code from the shared libraries'. */
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512], exe[512] = "", path[512];
    unsigned long lo, hi, base = 0, end = 0;
    while (maps && fgets(line, sizeof line, maps)) {
        path[0] = 0;
        if (sscanf(line, "%lx-%lx %*s %*s %*s %*s %511s", &lo, &hi, path) < 2) continue;
        if (!exe[0]) { strcpy(exe, path); base = lo; }
        if (!strcmp(exe, path)) end = hi;
    }
    if (maps) fclose(maps);
    fprintf(f, "B %lx %lx\n", base, end);
    unsigned long m = n < MAX_SAMPLES ? n : MAX_SAMPLES;
    for (unsigned long i = 0; i < m; i++) fprintf(f, "%lx\n", pcs[i]);
    fclose(f);
}
C
gcc -shared -fPIC -O2 -o "$work/pcsample.so" "$work/pcsample.c"
for _ in $(seq "$runs"); do
    PCSAMPLE_OUT="$work/pcs.txt" LD_PRELOAD="$work/pcsample.so" "$@" >/dev/null 2>&1
done
python3 - "$work/pcs.txt" "$(command -v "$1")" "$top" <<'PY'
import collections, subprocess, sys
pcs_path, exe, top = sys.argv[1], sys.argv[2], int(sys.argv[3])
# PIE executables (ELF type 3) are linked at 0 and relocated to where
# they were mapped; others run at their link address.
with open(exe, "rb") as f:
    pie = f.read(18)[16] == 3
total, outside, pcs = 0, 0, collections.Counter()
for line in open(pcs_path):
    if line.startswith("B "):
        base, end = (int(x, 16) for x in line.split()[1:])
        continue
    pc = int(line, 16)
    total += 1
    if base <= pc < end:
        pcs[pc - base if pie else pc] += 1
    else:
        outside += 1
# addr2line -i lists the inlined frames innermost first, then the function
# they were inlined into. A sample is charged to its innermost frame in a
# workspace source file (crates/...), so a BinaryHeap sift inlined into
# EventQueue::pop reads as pop; one with no workspace frame at all keeps
# the name of the function it sits in.
addrs = sorted(pcs)
out = subprocess.run(
    ["addr2line", "-e", exe, "-a", "-f", "-i", "-C"],
    input="".join(f"{a:x}\n" for a in addrs), capture_output=True, text=True, check=True,
).stdout.splitlines()
blocks = []
for line in out:
    if line.startswith("0x"):
        blocks.append([])
    else:
        blocks[-1].append(line)
hits = collections.Counter()
for pc, block in zip(addrs, blocks):
    frames = list(zip(block[0::2], block[1::2]))
    ours = next(((fn, src) for fn, src in frames if "crates/" in src), None)
    if ours:
        fn, src = ours
        name = f"{fn}  ({src[src.rindex('crates/') + 7:].split(':')[0]})"
    else:
        name = frames[-1][0] if frames else "??"
    hits[name] += pcs[pc]
if outside:
    hits["[shared libraries, kernel]"] = outside
print(f"{total} samples")
for name, count in hits.most_common(top):
    print(f"{100.0 * count / total:5.1f}%  {count:7d}  {name}")
PY
