/*
 * A SIGPROF stack sampler, loaded into a program with LD_PRELOAD (x86-64
 * Linux). scripts/profile.sh builds and drives it; see that script.
 *
 * At every ITIMER_PROF tick (asked for per 1 ms of the process's CPU
 * time, delivered at most once per kernel tick) the signal handler
 * records the interrupted instruction pointer and the return
 * addresses of the frame-pointer chain above it, so the program must be
 * built with frame pointers. Each sample is appended to $SAMPLER_OUT as
 * one write(2) of native-endian u64 words: the word count n, then n
 * addresses, leaf first. At load the sampler copies /proc/self/maps to
 * $SAMPLER_OUT.maps, so the addresses can be mapped back to the binary.
 *
 * The chain is walked upward from the interrupted stack pointer. Code
 * without frame pointers (libc, the prebuilt Rust std) may hold any
 * value in rbp, so every stack page is checked for readability, once
 * per sample, before a word is read from it: a write(2) of the page's
 * first byte into a pipe fails with EFAULT instead of faulting.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define PAGE 4096u
/* A frame more than this far above the interrupted stack pointer is
 * taken for garbage: no stack of the profiled program is that deep. */
#define MAX_STACK (64u << 20)

static int out_fd = -1;
static int probe[2] = {-1, -1};

/* Whether the page holding `addr` can be read, tested without touching
 * it: the kernel copies one byte into the pipe or fails with EFAULT. */
static int readable(uintptr_t addr) {
    char byte;
    const void *page = (const void *)(addr & ~(uintptr_t)(PAGE - 1));
    if (write(probe[1], page, 1) != 1) {
        return 0;
    }
    return read(probe[0], &byte, 1) == 1;
}

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    int saved_errno = errno;
    const mcontext_t *mc = &((const ucontext_t *)context)->uc_mcontext;
    uint64_t words[MAX_DEPTH + 1];
    uint64_t n = 0;
    uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    uintptr_t ok_page = 0;
    words[++n] = (uint64_t)mc->gregs[REG_RIP];
    while (n < MAX_DEPTH && fp >= sp && fp - sp < MAX_STACK && fp % 8 == 0) {
        uintptr_t page = fp & ~(uintptr_t)(PAGE - 1);
        /* The two words at fp may straddle a page boundary only if fp
         * is the page's last 8 bytes; check the next page too then. */
        if (page != ok_page) {
            if (!readable(fp)) {
                break;
            }
            ok_page = page;
        }
        if ((fp + 8) / PAGE != fp / PAGE && !readable(fp + 8)) {
            break;
        }
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t next = frame[0], ret = frame[1];
        if (ret == 0) {
            break;
        }
        words[++n] = (uint64_t)ret;
        if (next <= fp) {
            break;
        }
        fp = next;
    }
    words[0] = n;
    ssize_t unused = write(out_fd, words, (size_t)(n + 1) * sizeof(uint64_t));
    (void)unused;
    errno = saved_errno;
}

/* Copies /proc/self/maps next to the samples. */
static void save_maps(const char *out) {
    char path[4096];
    char buf[8192];
    ssize_t len;
    size_t n = strlen(out);
    if (n + sizeof(".maps") > sizeof(path)) {
        return;
    }
    memcpy(path, out, n);
    memcpy(path + n, ".maps", sizeof(".maps"));
    int src = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
    int dst = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    while (src >= 0 && dst >= 0 && (len = read(src, buf, sizeof(buf))) > 0) {
        if (write(dst, buf, (size_t)len) != len) {
            break;
        }
    }
    if (src >= 0) {
        close(src);
    }
    if (dst >= 0) {
        close(dst);
    }
}

__attribute__((constructor)) static void sampler_start(void) {
    const char *out = getenv("SAMPLER_OUT");
    if (out == NULL || *out == '\0') {
        return;
    }
    out_fd = open(out, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (out_fd < 0 || pipe2(probe, O_CLOEXEC | O_NONBLOCK) != 0) {
        return;
    }
    save_maps(out);
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}
