#!/usr/bin/env bash
# Sampled self-time profile of one command, for sandboxes without `perf`:
# an LD_PRELOAD shim samples the program counter on SIGPROF (1 kHz of CPU
# time), and the samples are attributed to the binary's symbols with `nm`.
#
#   scripts/pcprofile.sh [-n TOP] [-r RUNS] -- target/release/titreplay ...
#
# Runs the command RUNS times (default 1; the timer ticks at the kernel's
# HZ, so a sub-second run yields a few hundred samples) and prints the TOP
# (default 25) symbols by share of all samples. Needs gcc, nm and python3;
# builds nothing of the workspace and writes only to a temporary directory.
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
nm -C --defined-only -n "$(command -v "$1")" >"$work/syms.txt"
python3 - "$work/pcs.txt" "$work/syms.txt" "$top" <<'PY'
import bisect, collections, sys
pcs_path, syms_path, top = sys.argv[1], sys.argv[2], int(sys.argv[3])
syms = []
for line in open(syms_path):
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        syms.append((int(parts[0], 16), parts[2]))
addrs = [a for a, _ in syms]
hits = collections.Counter()
total = 0
for line in open(pcs_path):
    if line.startswith("B "):
        base, end = (int(x, 16) for x in line.split()[1:])
        # Non-PIE binaries are linked at their run address; PIE ones at 0.
        shift = 0 if addrs and addrs[0] >= base else base
        continue
    pc = int(line, 16)
    total += 1
    i = bisect.bisect_right(addrs, pc - shift) - 1
    inside = base <= pc < end and i >= 0
    hits[syms[i][1] if inside else "[shared libraries, kernel]"] += 1
print(f"{total} samples")
for name, count in hits.most_common(top):
    print(f"{100.0 * count / total:5.1f}%  {count:7d}  {name}")
PY
