"""The compiled kernel engine of the native backend.

The :class:`repro.backend.native.NativeBackend` dispatches its hot integer
loops to **cc**: the kernels below as one small C translation unit,
compiled once with the system C compiler (``cc``/``gcc``/``clang``) into a
shared library and loaded through :mod:`ctypes`.  The library is
content-hashed by its source, so a stale cache can never serve mismatched
kernels.

The library lives in one cache directory, overridable with the
``BOOLGEBRA_NATIVE_CACHE`` environment variable.  A fleet therefore pays the
compile cost once per machine, not once per worker process — the prewarm
hooks in the evaluator and the service worker pool rely on exactly this.
Without a compiler (and no cached library) :func:`load_engine` reports why,
and every capability op declines, so its caller runs the Python loop.

Every kernel here is exact integer arithmetic (XOR/AND/popcount on uint64
words); no floating point is ever compiled, so bit-identity with the Python
code a kernel replays (the finder or scorer loop its comment names) is a
property of the loop order, which mirrors that code decision for decision.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Optional, Tuple

from repro.obs.metrics import REGISTRY

#: Compile-cache outcomes of the cc engine: a warm ``.so`` reused vs. an
#: actual compiler invocation — the fleet-wide "paid the compile once"
#: invariant made visible on /v1/metrics.
_COMPILE_CACHE = REGISTRY.counter("backend_compile_cache")

#: Environment variable overriding the on-disk compile-cache directory of the
#: cc-built shared library.
ENV_CACHE = "BOOLGEBRA_NATIVE_CACHE"

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GNUC__) || defined(__clang__)
#define BG_POPCOUNT(x) __builtin_popcountll(x)
#else
static int bg_popcount_fallback(uint64_t x) {
    int c = 0;
    while (x) { x &= x - 1; c++; }
    return c;
}
#define BG_POPCOUNT(x) bg_popcount_fallback(x)
#endif

/* ---- Priority-cut merge ---------------------------------------------- */

#define BG_CUT_CAP 64

/* a (sorted, na entries) is a subset of b (sorted, nb entries)? */
static int bg_leaves_subset(
    const int64_t* a, int64_t na, const int64_t* b, int64_t nb)
{
    int64_t i = 0, j = 0;
    while (i < na && j < nb) {
        if (a[i] == b[j]) { i++; j++; }
        else if (a[i] > b[j]) j++;
        else return 0;
    }
    return i == na;
}

/* (size_a, leaves_a) < (size_b, leaves_b) under Python tuple ordering. */
static int bg_key_less(
    int64_t size_a, const int64_t* la, int64_t size_b, const int64_t* lb)
{
    if (size_a != size_b) return size_a < size_b;
    for (int64_t i = 0; i < size_a; i++)
        if (la[i] != lb[i]) return la[i] < lb[i];
    return 0;
}

/* Merge two fanin cut lists into one node's stored (non-trivial) cut list:
 * the compiled form of repro.aig.cuts._merge_cut_lists, shared by the
 * global and the local enumeration and replicated decision for decision —
 * folded-signature popcount prefilter, exact sorted-union, antichain
 * maintenance (reject dominated inserts, drop dominated stored cuts), and
 * the priority limit with its sorted-prefix state machine (capacity
 * shortcut, bisect insert of a lone appended tail, stable sort-and-truncate
 * otherwise).  Any change to the Python merge semantics must be applied
 * here too, or the asserted identity between the enumeration paths breaks.
 *
 * A cut list is leaves[n][k] (each cut's leaves sorted ascending), sizes[n]
 * and sigs[n]; the output needs room for limit + 1 cuts.  Returns the
 * number of cuts stored. */
static int64_t bg_merge_row(
    const int64_t* l0, const int64_t* s0, const uint64_t* g0, int64_t n0,
    const int64_t* l1, const int64_t* s1, const uint64_t* g1, int64_t n1,
    int64_t k, int64_t limit, int64_t* ol, int64_t* os, uint64_t* og)
{
    int64_t length = 0;
    int64_t sorted_len = 0;
    for (int64_t a = 0; a < n0; a++) {
        const int64_t* la = l0 + a * k;
        int64_t sa = s0[a];
        uint64_t siga = g0[a];
        for (int64_t b = 0; b < n1; b++) {
            uint64_t sig = siga | g1[b];
            if (BG_POPCOUNT(sig) > k) continue;
            const int64_t* lb = l1 + b * k;
            int64_t sb = s1[b];
            int64_t merged[BG_CUT_CAP];
            int64_t msize = 0;
            int64_t i = 0, j = 0;
            while (i < sa || j < sb) {
                int64_t v;
                if (j >= sb || (i < sa && la[i] < lb[j])) v = la[i++];
                else if (i >= sa || lb[j] < la[i]) v = lb[j++];
                else { v = la[i]; i++; j++; }
                if (msize >= k) { msize = k + 1; break; }
                merged[msize++] = v;
            }
            if (msize > k) continue;
            if (length > limit - 1 && sorted_len == length) {
                /* At capacity and fully sorted: keys not below the
                 * current maximum are guaranteed no-ops. */
                if (!bg_key_less(msize, merged, os[length - 1],
                                 ol + (length - 1) * k))
                    continue;
            }
            int dominated = 0, drop_any = 0;
            for (int64_t e = 0; e < length; e++) {
                uint64_t inter = og[e] & sig;
                if (inter == og[e] &&
                    bg_leaves_subset(ol + e * k, os[e], merged, msize)) {
                    dominated = 1;
                    break;
                }
                if (inter == sig &&
                    bg_leaves_subset(merged, msize, ol + e * k, os[e]))
                    drop_any = 1;
            }
            if (dominated) continue;
            if (drop_any) {
                for (int64_t e = length - 1; e >= 0; e--) {
                    if ((sig & og[e]) == sig &&
                        bg_leaves_subset(merged, msize, ol + e * k, os[e])) {
                        for (int64_t m = e; m < length - 1; m++) {
                            for (int64_t w = 0; w < k; w++)
                                ol[m * k + w] = ol[(m + 1) * k + w];
                            os[m] = os[m + 1];
                            og[m] = og[m + 1];
                        }
                        length--;
                        if (e < sorted_len) sorted_len--;
                    }
                }
            }
            for (int64_t w = 0; w < msize; w++) ol[length * k + w] = merged[w];
            os[length] = msize;
            og[length] = sig;
            length++;
            if (length > limit) {
                if (sorted_len >= length - 1) {
                    /* Sorted prefix + one appended tail: bisect-insert
                     * the tail after its equals, drop the old maximum. */
                    int64_t pos = 0;
                    while (pos < length - 1 &&
                           !bg_key_less(msize, merged, os[pos], ol + pos * k))
                        pos++;
                    int64_t tmp_s = os[length - 1];
                    uint64_t tmp_g = og[length - 1];
                    int64_t tmp_l[BG_CUT_CAP];
                    for (int64_t w = 0; w < k; w++)
                        tmp_l[w] = ol[(length - 1) * k + w];
                    for (int64_t m = length - 2; m >= pos; m--) {
                        for (int64_t w = 0; w < k; w++)
                            ol[(m + 1) * k + w] = ol[m * k + w];
                        os[m + 1] = os[m];
                        og[m + 1] = og[m];
                    }
                    for (int64_t w = 0; w < k; w++) ol[pos * k + w] = tmp_l[w];
                    os[pos] = tmp_s;
                    og[pos] = tmp_g;
                    length--;
                } else {
                    /* Stable insertion sort by (size, leaves); equal keys
                     * keep their current order, then truncate. */
                    for (int64_t m = 1; m < length; m++) {
                        int64_t tmp_s = os[m];
                        uint64_t tmp_g = og[m];
                        int64_t tmp_l[BG_CUT_CAP];
                        for (int64_t w = 0; w < k; w++)
                            tmp_l[w] = ol[m * k + w];
                        int64_t pos = m;
                        while (pos > 0 &&
                               bg_key_less(tmp_s, tmp_l, os[pos - 1],
                                           ol + (pos - 1) * k)) {
                            for (int64_t w = 0; w < k; w++)
                                ol[pos * k + w] = ol[(pos - 1) * k + w];
                            os[pos] = os[pos - 1];
                            og[pos] = og[pos - 1];
                            pos--;
                        }
                        for (int64_t w = 0; w < k; w++)
                            ol[pos * k + w] = tmp_l[w];
                        os[pos] = tmp_s;
                        og[pos] = tmp_g;
                    }
                    length = limit;
                }
                sorted_len = limit;
            }
        }
    }
    return length;
}

/* ---- Local-region cuts with their truth tables ----------------------- */

/* Patterns of truth-table variables 0..5 over 64 minterms. */
static const uint64_t BG_VAR_TABLES[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

/* repro.aig.truth.cut_truth_table: the truth table of root over the n
 * leaves of one of its cuts, written to *out, from an epoch-stamped cone
 * walk with leaf i as variable i and the constant node set after the
 * leaves.  Returns nonzero when the pending stack would overflow. */
static int bg_cut_table(
    const int64_t* fanin0, const int64_t* fanin1, uint64_t* tables,
    uint32_t* stamp, uint32_t t, int64_t* stack, int64_t stack_cap,
    int64_t root, const int64_t* leaves, int64_t n, uint64_t* out)
{
    uint64_t mask = n >= 6 ? ~0ull : (1ull << (1 << n)) - 1;
    for (int64_t w = 0; w < n; w++) {
        tables[leaves[w]] = BG_VAR_TABLES[w] & mask;
        stamp[leaves[w]] = t;
    }
    tables[0] = 0;
    stamp[0] = t;
    int64_t top = 0;
    if (stamp[root] != t) stack[top++] = root;
    while (top > 0) {
        int64_t node = stack[top - 1];
        int64_t f0 = fanin0[node];
        int64_t f1 = fanin1[node];
        int64_t v0 = f0 >> 1;
        int64_t v1 = f1 >> 1;
        int k0 = stamp[v0] == t;
        int k1 = stamp[v1] == t;
        if (k0 && k1) {
            uint64_t t0 = tables[v0];
            uint64_t t1 = tables[v1];
            if (f0 & 1) t0 ^= mask;
            if (f1 & 1) t1 ^= mask;
            tables[node] = t0 & t1;
            stamp[node] = t;
            top--;
        } else {
            if (top + 2 > stack_cap) return 1;
            if (!k0) stack[top++] = v0;
            if (!k1) stack[top++] = v1;
        }
    }
    *out = tables[root];
    return 0;
}

/* The next epoch of per-call stamp arrays (n entries, zeroed on wrap). */
static uint32_t bg_bump(uint32_t* epoch, uint32_t* stamps, int64_t n)
{
    if (*epoch == 0xFFFFFFFFu) {
        memset(stamps, 0, n * sizeof(uint32_t));
        *epoch = 0;
    }
    return ++*epoch;
}

/* For a batch of roots, repro.aig.cuts.local_cuts replayed step for step,
 * plus repro.aig.truth.cut_truth_table of every non-trivial cut:
 *
 * 1. the bounded reverse BFS of _local_region_order (duplicates stay in the
 *    frontier; the region-size break fires inside the frontier loop);
 * 2. its DFS post-order over the region, pushing fanin1 before fanin0;
 * 3. the bottom-up merge through bg_merge_row, where a boundary fanin
 *    carries only its trivial cut and a region node appends its trivial
 *    cut after the merged ones;
 * 4. per non-trivial cut of the root, bg_cut_table.
 *
 * The stamps, tables and work arrays are allocated per call.
 * args: [0]=fanin0 [1]=fanin1 (int64 literals per slot) [2]=is_and (uint8)
 *       [3]=num_slots [4]=roots [5]=num_roots [6]=k [7]=limit
 *       [8]=max_region [9]=max_depth (both within 0..num_slots + 1)
 *       [10..13]=output per root: leaves[limit][k], sizes[limit],
 *                tables[limit] (uint64), counts
 * Returns nonzero when the work arrays cannot be allocated (or, never on a
 * snapshot, a cone walk outgrows its stack: it holds every path of the
 * region). */
int bg_local_cut_tables(const int64_t* args)
{
    const int64_t* fanin0 = (const int64_t*)args[0];
    const int64_t* fanin1 = (const int64_t*)args[1];
    const uint8_t* is_and = (const uint8_t*)args[2];
    int64_t slots = args[3];
    const int64_t* roots = (const int64_t*)args[4];
    int64_t num_roots = args[5];
    int64_t k = args[6];
    int64_t limit = args[7];
    int64_t max_region = args[8];
    int64_t max_depth = args[9];
    int64_t* out_l = (int64_t*)args[10];
    int64_t* out_s = (int64_t*)args[11];
    uint64_t* out_t = (uint64_t*)args[12];
    int64_t* out_n = (int64_t*)args[13];
    int64_t width = limit + 1;
    /* A region holds distinct AND nodes, so cap bounds every region. */
    int64_t cap = max_region < slots ? max_region : slots;
    if (cap < 1) cap = 1;
    uint64_t* tables = malloc(slots * sizeof(uint64_t));
    uint32_t* marks = calloc(3 * slots, sizeof(uint32_t));
    int64_t* local = malloc(slots * sizeof(int64_t));
    /* The work block: the region order (cap), two BFS frontiers
     * (2 * cap + 2 each) and the walk stack (3 * cap + 2). */
    int64_t* order = malloc((8 * cap + 6) * sizeof(int64_t));
    int64_t* store_l = malloc(cap * width * k * sizeof(int64_t));
    int64_t* store_s = malloc(cap * width * sizeof(int64_t));
    uint64_t* store_g = malloc(cap * width * sizeof(uint64_t));
    int64_t* store_n = malloc(cap * sizeof(int64_t));
    int err = !tables || !marks || !local || !order || !store_l || !store_s
        || !store_g || !store_n;
    uint32_t* stamp = marks;
    uint32_t* region = marks + slots;
    uint32_t* visit = marks + 2 * slots;
    int64_t* front_a = order + cap;
    int64_t* front_b = front_a + 2 * cap + 2;
    int64_t* stack = front_b + 2 * cap + 2;
    int64_t stack_cap = 3 * cap + 2;
    uint32_t epoch = 0;
    for (int64_t r = 0; r < num_roots && !err; r++) {
        int64_t root = roots[r];
        out_n[r] = 0;
        if (!is_and[root]) continue;
        uint32_t e = bg_bump(&epoch, marks, 3 * slots);
        /* 1. Bounded reverse BFS. */
        int64_t nf = 0, size = 0, depth = 0;
        front_a[nf++] = root;
        while (nf > 0 && depth < max_depth && size < max_region) {
            int64_t nn = 0;
            for (int64_t i = 0; i < nf; i++) {
                int64_t cur = front_a[i];
                if (region[cur] == e || !is_and[cur]) continue;
                region[cur] = e;
                size++;
                if (size >= max_region) break;
                front_b[nn++] = fanin0[cur] >> 1;
                front_b[nn++] = fanin1[cur] >> 1;
            }
            int64_t* swap = front_a;
            front_a = front_b;
            front_b = swap;
            nf = nn;
            depth++;
        }
        /* 2. DFS post-order; an entry is node << 1 | expanded. */
        int64_t count = 0, sp = 0;
        stack[sp++] = root << 1;
        while (sp > 0) {
            int64_t entry = stack[--sp];
            int64_t cur = entry >> 1;
            if (entry & 1) {
                local[cur] = count;
                order[count++] = cur;
                continue;
            }
            if (visit[cur] == e || region[cur] != e) continue;
            visit[cur] = e;
            stack[sp++] = (cur << 1) | 1;
            stack[sp++] = (fanin1[cur] >> 1) << 1;
            stack[sp++] = (fanin0[cur] >> 1) << 1;
        }
        if (count == 0) continue;
        /* 3. Bottom-up merge over the region. */
        for (int64_t idx = 0; idx < count; idx++) {
            int64_t cur = order[idx];
            int64_t fanins[2] = {fanin0[cur] >> 1, fanin1[cur] >> 1};
            const int64_t* fl[2];
            const int64_t* fs[2];
            const uint64_t* fg[2];
            int64_t fn[2];
            int64_t trivial_s[2] = {1, 1};
            uint64_t trivial_g[2];
            for (int side = 0; side < 2; side++) {
                int64_t f = fanins[side];
                if (visit[f] == e) {
                    int64_t at = local[f];
                    fl[side] = store_l + at * width * k;
                    fs[side] = store_s + at * width;
                    fg[side] = store_g + at * width;
                    fn[side] = store_n[at];
                } else {
                    /* A boundary leaf: only its trivial cut {f}. */
                    trivial_g[side] = 1ull << (f & 63);
                    fl[side] = &fanins[side];
                    fs[side] = &trivial_s[side];
                    fg[side] = &trivial_g[side];
                    fn[side] = 1;
                }
            }
            int64_t* ol = store_l + idx * width * k;
            int64_t* os = store_s + idx * width;
            uint64_t* og = store_g + idx * width;
            int64_t length = bg_merge_row(
                fl[0], fs[0], fg[0], fn[0], fl[1], fs[1], fg[1], fn[1],
                k, limit, ol, os, og);
            ol[length * k] = cur;
            os[length] = 1;
            og[length] = 1ull << (cur & 63);
            store_n[idx] = length + 1;
        }
        /* 4. The root (last in post-order): its merged cuts and tables. */
        int64_t at = count - 1;
        int64_t cuts = store_n[at] - 1;
        out_n[r] = cuts;
        for (int64_t c = 0; c < cuts; c++) {
            const int64_t* leaves = store_l + (at * width + c) * k;
            int64_t n = store_s[at * width + c];
            int64_t* dst = out_l + (r * limit + c) * k;
            for (int64_t w = 0; w < n; w++) dst[w] = leaves[w];
            out_s[r * limit + c] = n;
            uint32_t t = bg_bump(&epoch, marks, 3 * slots);
            err = bg_cut_table(fanin0, fanin1, tables, stamp, t, stack, stack_cap,
                               root, leaves, n, out_t + r * limit + c);
            if (err) break;
        }
    }
    free(tables);
    free(marks);
    free(local);
    free(order);
    free(store_l);
    free(store_s);
    free(store_g);
    free(store_n);
    return err;
}

/* ---- Whole-snapshot cuts with their truth tables --------------------- */

/* repro.aig.cuts.CutEnumerator.enumerate over a whole snapshot, plus the
 * truth table of every non-trivial cut:
 *
 * 1. the AND nodes in the snapshot's level-major order (fanins first), each
 *    merging its fanins' stored cuts through bg_merge_row -- a PI or
 *    constant fanin carries only its trivial cut -- and storing its own
 *    trivial cut after the merged ones.  Nodes that share both fanin
 *    variables merge again instead of sharing a memoized merge: the merge
 *    is deterministic, so their cuts are the same;
 * 2. per merged cut, bg_cut_table -- skipped when no table output is given
 *    (cuts of more than 6 leaves have tables wider than 64 bits).
 *
 * Output rows are indexed by node id; a slot that is not an AND node gets
 * count 0.  The work arrays are allocated per call.
 * args: [0]=fanin0 [1]=fanin1 (int64 literals per slot) [2]=num_slots
 *       [3]=and_ids (level-major) [4]=num_ands [5]=k [6]=limit
 *       [7..10]=output per slot: leaves[limit + 1][k], sizes[limit + 1],
 *               sigs[limit + 1] (uint64), counts (merged cuts; the trivial
 *               cut is stored after them)
 *       [11]=output tables[limit + 1] (uint64) per slot, or 0 for none
 * Returns nonzero when the work arrays cannot be allocated (or, never on a
 * snapshot, a cone walk outgrows its stack). */
int bg_snapshot_cut_tables(const int64_t* args)
{
    const int64_t* fanin0 = (const int64_t*)args[0];
    const int64_t* fanin1 = (const int64_t*)args[1];
    int64_t slots = args[2];
    const int64_t* and_ids = (const int64_t*)args[3];
    int64_t num_ands = args[4];
    int64_t k = args[5];
    int64_t limit = args[6];
    int64_t* out_l = (int64_t*)args[7];
    int64_t* out_s = (int64_t*)args[8];
    uint64_t* out_g = (uint64_t*)args[9];
    int64_t* out_n = (int64_t*)args[10];
    uint64_t* out_t = (uint64_t*)args[11];
    int64_t width = limit + 1;
    /* A walk's stack holds a fanin path of the cone plus at most one
     * waiting sibling per path node. */
    int64_t stack_cap = 2 * slots + 2;
    uint64_t* tables = calloc(slots + 1, sizeof(uint64_t));
    uint32_t* stamp = calloc(slots + 1, sizeof(uint32_t));
    uint8_t* merged = calloc(slots + 1, 1);
    int64_t* stack = malloc(stack_cap * sizeof(int64_t));
    int err = !tables || !stamp || !merged || !stack;
    for (int64_t s = 0; s < slots && !err; s++) out_n[s] = 0;
    for (int64_t r = 0; r < num_ands && !err; r++) {
        int64_t node = and_ids[r];
        int64_t fanins[2] = {fanin0[node] >> 1, fanin1[node] >> 1};
        const int64_t* fl[2];
        const int64_t* fs[2];
        const uint64_t* fg[2];
        int64_t fn[2];
        int64_t trivial_s[2] = {1, 1};
        uint64_t trivial_g[2];
        for (int side = 0; side < 2; side++) {
            int64_t f = fanins[side];
            if (merged[f]) {
                fl[side] = out_l + f * width * k;
                fs[side] = out_s + f * width;
                fg[side] = out_g + f * width;
                fn[side] = out_n[f] + 1;
            } else {
                trivial_g[side] = 1ull << (f & 63);
                fl[side] = &fanins[side];
                fs[side] = &trivial_s[side];
                fg[side] = &trivial_g[side];
                fn[side] = 1;
            }
        }
        int64_t* ol = out_l + node * width * k;
        int64_t* os = out_s + node * width;
        uint64_t* og = out_g + node * width;
        int64_t length = bg_merge_row(
            fl[0], fs[0], fg[0], fn[0], fl[1], fs[1], fg[1], fn[1],
            k, limit, ol, os, og);
        ol[length * k] = node;
        os[length] = 1;
        og[length] = 1ull << (node & 63);
        out_n[node] = length;
        merged[node] = 1;
    }
    uint32_t t = 0;
    for (int64_t r = 0; r < num_ands && out_t && !err; r++) {
        int64_t node = and_ids[r];
        for (int64_t c = 0; c < out_n[node] && !err; c++) {
            int64_t at = node * width + c;
            err = bg_cut_table(fanin0, fanin1, tables, stamp,
                               bg_bump(&t, stamp, slots + 1), stack, stack_cap,
                               node, out_l + at * k, out_s[at], out_t + at);
        }
    }
    free(tables);
    free(stamp);
    free(merged);
    free(stack);
    return err;
}

/* ---- The MFFC-ordered rewrite scan ----------------------------------- */

/* The AND(a, b) of Fragment.dry_run's _trivial, or -1 when none applies. */
static int64_t bg_trivial_and(int64_t a, int64_t b)
{
    if (a == 0 || b == 0) return 0;
    if (a == 1) return b;
    if (b == 1) return a;
    if (a == b) return a;
    if (a == (b ^ 1)) return 0;
    return -1;
}

static uint64_t bg_pair_hash(int64_t a, int64_t b)
{
    uint64_t h = (uint64_t)a * 0x9E3779B97F4A7C15ull;
    h ^= (uint64_t)b * 0xC2B2AE3D27D4EB4Full;
    return h ^ (h >> 31);
}

/* LevelizedAig.mffc_nodes replayed: the MFFC of root bounded by the n
 * leaves, appended to nodes; returns its size.  leafmark, freed and
 * remstamp are stamped with the epoch e, rem holds remaining references. */
static int64_t bg_mffc(
    int64_t root, const int64_t* leaves, int64_t n,
    const int64_t* fanin0, const int64_t* fanin1, const uint8_t* is_and,
    const int64_t* refs, uint32_t* leafmark, uint32_t* freed,
    uint32_t* remstamp, int64_t* rem, int64_t* stack, int64_t* nodes,
    uint32_t e)
{
    if (!is_and[root]) return 0;
    for (int64_t w = 0; w < n; w++) leafmark[leaves[w]] = e;
    int64_t count = 0, sp = 0;
    stack[sp++] = root;
    while (sp > 0) {
        int64_t cur = stack[--sp];
        if (freed[cur] != e) {
            freed[cur] = e;
            nodes[count++] = cur;
        }
        int64_t fanins[2] = {fanin0[cur] >> 1, fanin1[cur] >> 1};
        for (int side = 0; side < 2; side++) {
            int64_t f = fanins[side];
            if (!is_and[f] || leafmark[f] == e || freed[f] == e) continue;
            int64_t remaining = remstamp[f] == e ? rem[f] : refs[f];
            rem[f] = remaining - 1;
            remstamp[f] = e;
            if (remaining == 1) stack[sp++] = f;
        }
    }
    return count;
}

/* For a batch of roots, the global-enumeration loop of
 * repro.synth.sweep.score_rewrites replayed per root:
 *
 * 1. each cut of at least two leaves gets its MFFC size (bg_mffc), and the
 *    cuts are ordered stably by decreasing MFFC size;
 * 2. the scan stops once |MFFC| <= the best gain so far;
 * 3. a cut whose fragment is not synthesized yet stops the root's scan and
 *    is reported as pending (the caller synthesizes it and scans again);
 * 4. otherwise repro.synth.rewrite.evaluate_rewrite_cut: a negative budget
 *    |MFFC| - min_gain rejects the cut, Fragment.dry_run runs against the
 *    structural hash and aborts once its new nodes exceed the budget, every
 *    AND node reached (hash hit or trivial simplification) counts as
 *    reused, gain = |MFFC| - |reused in MFFC| - new nodes, and a cut whose
 *    output literal is the root itself or whose gain is below min_gain is
 *    rejected;
 * 5. a cut replaces the best only on a strictly greater gain.
 *
 * All operands arrive through one int64 args block (pointers as int64):
 *   [0]=fanin0 [1]=fanin1 (int64 literals per slot) [2]=is_and (uint8)
 *   [3]=refs (int64 per slot: fanouts plus PO uses) [4]=num_slots
 *   [5]=strash keys (sorted literal pairs) [6]=strash nodes [7]=strash size
 *   [8]=roots [9]=num_roots [10]=k [11]=width
 *   [12]=leaves[width][k] [13]=sizes[width] [14]=counts (per root)
 *   [15]=fragment of each cut [width] per root
 *   [16]=fragment offsets (num_fragments + 1, in AND pairs)
 *   [17]=fragment AND pairs (fragment literals) [18]=fragment outputs (-1:
 *        not synthesized yet) [19]=num_fragments [20]=min_gain
 *   [21..26]=output per root: best cut (-1: none), gain, pending cut (-1:
 *            none), offset into the node buffer, MFFC size, reused count
 *   [27]=node buffer (each winner's MFFC, then its reused nodes)
 *   [28]=node buffer capacity
 * Returns the number of buffer entries the winners need (the caller scans
 * again with a larger buffer when that exceeds the capacity), or -1 when
 * the work arrays cannot be allocated. */
int64_t bg_rewrite_scan(const int64_t* args)
{
    const int64_t* fanin0 = (const int64_t*)args[0];
    const int64_t* fanin1 = (const int64_t*)args[1];
    const uint8_t* is_and = (const uint8_t*)args[2];
    const int64_t* refs = (const int64_t*)args[3];
    int64_t slots = args[4];
    const int64_t* strash_keys = (const int64_t*)args[5];
    const int64_t* strash_nodes = (const int64_t*)args[6];
    int64_t strash_size = args[7];
    const int64_t* roots = (const int64_t*)args[8];
    int64_t num_roots = args[9];
    int64_t k = args[10];
    int64_t width = args[11];
    const int64_t* cut_l = (const int64_t*)args[12];
    const int64_t* cut_s = (const int64_t*)args[13];
    const int64_t* cut_n = (const int64_t*)args[14];
    const int64_t* cut_f = (const int64_t*)args[15];
    const int64_t* frag_off = (const int64_t*)args[16];
    const int64_t* frag_and = (const int64_t*)args[17];
    const int64_t* frag_out = (const int64_t*)args[18];
    int64_t num_frags = args[19];
    int64_t min_gain = args[20];
    int64_t* out_cut = (int64_t*)args[21];
    int64_t* out_gain = (int64_t*)args[22];
    int64_t* out_pending = (int64_t*)args[23];
    int64_t* out_off = (int64_t*)args[24];
    int64_t* out_nd = (int64_t*)args[25];
    int64_t* out_nr = (int64_t*)args[26];
    int64_t* out_nodes = (int64_t*)args[27];
    int64_t capacity = args[28];

    int64_t max_ands = 0;
    for (int64_t f = 0; f < num_frags; f++)
        if (frag_off[f + 1] - frag_off[f] > max_ands)
            max_ands = frag_off[f + 1] - frag_off[f];
    int64_t buckets = 16;
    while (buckets < 2 * strash_size) buckets <<= 1;
    uint32_t* marks = calloc(4 * (slots + 1), sizeof(uint32_t));
    int64_t* rem = malloc((slots + 1) * sizeof(int64_t));
    int64_t* stack = malloc((slots + 1) * sizeof(int64_t));
    int64_t* deref = malloc((slots + 1) * sizeof(int64_t));
    int64_t* mapping = malloc((1 + k + max_ands) * sizeof(int64_t));
    int64_t* reused = malloc((max_ands + 1) * sizeof(int64_t));
    int64_t* table = malloc(3 * buckets * sizeof(int64_t));
    if (!marks || !rem || !stack || !deref || !mapping || !reused || !table) {
        free(marks); free(rem); free(stack); free(deref);
        free(mapping); free(reused); free(table);
        return -1;
    }
    uint32_t* leafmark = marks;
    uint32_t* freed = marks + (slots + 1);
    uint32_t* remstamp = marks + 2 * (slots + 1);
    uint32_t* reusedmark = marks + 3 * (slots + 1);

    /* The structural hash: open addressing over (lit0, lit1) -> node. */
    for (int64_t b = 0; b < buckets; b++) table[3 * b + 2] = -1;
    for (int64_t i = 0; i < strash_size; i++) {
        int64_t a = strash_keys[2 * i], c = strash_keys[2 * i + 1];
        uint64_t b = bg_pair_hash(a, c) & (buckets - 1);
        while (table[3 * b + 2] >= 0) b = (b + 1) & (buckets - 1);
        table[3 * b] = a;
        table[3 * b + 1] = c;
        table[3 * b + 2] = strash_nodes[i];
    }

    int64_t pos = 0;
    uint32_t e = 0;
    for (int64_t r = 0; r < num_roots; r++) {
        int64_t root = roots[r];
        out_cut[r] = -1;
        out_gain[r] = 0;
        out_pending[r] = -1;
        out_off[r] = pos;
        out_nd[r] = 0;
        out_nr[r] = 0;
        /* 1. MFFC sizes, stable order by decreasing size. */
        int64_t order[BG_CUT_CAP];
        int64_t msize[BG_CUT_CAP];
        int64_t m = 0;
        for (int64_t c = 0; c < cut_n[r]; c++) {
            int64_t n = cut_s[r * width + c];
            if (n < 2) continue;
            msize[c] = bg_mffc(root, cut_l + (r * width + c) * k, n, fanin0, fanin1,
                               is_and, refs, leafmark, freed, remstamp, rem,
                               stack, deref, bg_bump(&e, marks, 4 * (slots + 1)));
            int64_t at = m++;
            while (at > 0 && msize[order[at - 1]] < msize[c]) {
                order[at] = order[at - 1];
                at--;
            }
            order[at] = c;
        }
        /* 2-5. The scan. */
        int64_t best = -1, best_gain = 0;
        for (int64_t i = 0; i < m; i++) {
            int64_t c = order[i];
            if (best >= 0 && msize[c] <= best_gain) break;
            int64_t f = cut_f[r * width + c];
            if (frag_out[f] < 0) {
                out_pending[r] = c;
                best = -1;
                break;
            }
            int64_t budget = msize[c] - min_gain;
            if (budget < 0) continue;
            const int64_t* leaves = cut_l + (r * width + c) * k;
            int64_t n = cut_s[r * width + c];
            bg_bump(&e, marks, 4 * (slots + 1));
            int64_t nd = bg_mffc(root, leaves, n, fanin0, fanin1, is_and, refs,
                                 leafmark, freed, remstamp, rem, stack, deref, e);
            /* Fragment.dry_run with the new-node budget. */
            mapping[0] = 0;
            for (int64_t w = 0; w < n; w++) mapping[1 + w] = leaves[w] << 1;
            int64_t new_nodes = 0, nr = 0, aborted = 0;
            for (int64_t j = frag_off[f]; j < frag_off[f + 1]; j++) {
                int64_t l0 = frag_and[2 * j], l1 = frag_and[2 * j + 1];
                int64_t m0 = mapping[l0 >> 1], m1 = mapping[l1 >> 1];
                int64_t found = -1;
                if (m0 >= 0 && m1 >= 0) {
                    m0 ^= l0 & 1;
                    m1 ^= l1 & 1;
                    found = bg_trivial_and(m0, m1);
                    if (found < 0) {
                        int64_t a = m0 <= m1 ? m0 : m1, b2 = m0 <= m1 ? m1 : m0;
                        uint64_t b = bg_pair_hash(a, b2) & (buckets - 1);
                        while (table[3 * b + 2] >= 0) {
                            if (table[3 * b] == a && table[3 * b + 1] == b2) {
                                found = table[3 * b + 2] << 1;
                                break;
                            }
                            b = (b + 1) & (buckets - 1);
                        }
                    }
                }
                int64_t at = 1 + n + (j - frag_off[f]);
                if (found < 0) {
                    if (++new_nodes > budget) { aborted = 1; break; }
                    mapping[at] = -1;
                    continue;
                }
                int64_t node = found >> 1;
                if (is_and[node] && reusedmark[node] != e) {
                    reusedmark[node] = e;
                    reused[nr++] = node;
                }
                mapping[at] = found;
            }
            if (aborted) continue;
            int64_t inside = 0;
            for (int64_t j = 0; j < nr; j++) inside += freed[reused[j]] == e;
            int64_t gain = nd - inside - new_nodes;
            int64_t output = mapping[frag_out[f] >> 1];
            if (output >= 0 && (output >> 1) == root) continue;
            if (gain < min_gain) continue;
            if (best < 0 || gain > best_gain) {
                best = c;
                best_gain = gain;
                out_nd[r] = nd;
                out_nr[r] = nr;
                if (pos + nd + nr <= capacity) {
                    for (int64_t j = 0; j < nd; j++) out_nodes[pos + j] = deref[j];
                    for (int64_t j = 0; j < nr; j++) out_nodes[pos + nd + j] = reused[j];
                }
            }
        }
        if (best >= 0) {
            out_cut[r] = best;
            out_gain[r] = best_gain;
            pos += out_nd[r] + out_nr[r];
        } else {
            out_nd[r] = 0;
            out_nr[r] = 0;
        }
    }
    free(marks); free(rem); free(stack); free(deref);
    free(mapping); free(reused); free(table);
    return pos;
}

/* ---- Reconvergence-driven windows: rf and rs scoring ----------------- */

/* The window kernels' limit on max_leaves.  An expansion of the
 * reconvergence-driven cut re-adds fanins it visited before, so a cut can
 * end up to two leaves above its limit: tables hold up to
 * BG_WINDOW_LEAVES + 2 variables. */
#define BG_WINDOW_LEAVES 12
#define BG_TABLE_WORDS(n) ((n) <= 6 ? (int64_t)1 : (int64_t)1 << ((n) - 6))

/* repro.aig.reconv_cut.reconvergence_driven_cut of the AND node root: the
 * sorted leaves go to leaves (room for max(0, max_leaves) + 2), visited is
 * stamped with e.  Returns the leaf count; 1, with the root as its leaf,
 * when both fanins are the constant. */
static int64_t bg_reconv_cut(
    int64_t root, int64_t max_leaves, const int64_t* fanin0,
    const int64_t* fanin1, const uint8_t* is_and, uint32_t* visited,
    uint32_t e, int64_t* leaves)
{
    int64_t n = 0;
    int64_t fanins[2] = {fanin0[root] >> 1, fanin1[root] >> 1};
    visited[root] = e;
    for (int side = 0; side < 2; side++) {
        int64_t f = fanins[side];
        if (f == 0 || (n == 1 && leaves[0] == f)) continue;
        leaves[n++] = f;
        visited[f] = e;
    }
    if (n == 0) {
        leaves[0] = root;
        return 1;
    }
    for (;;) {
        /* The cheapest expansion (fanins not visited yet, minus the leaf
         * itself) within the limit; ties go to the largest leaf id. */
        int64_t best = -1, best_cost = 0;
        for (int64_t i = 0; i < n; i++) {
            int64_t leaf = leaves[i];
            if (!is_and[leaf]) continue;
            int64_t a = fanin0[leaf] >> 1, b = fanin1[leaf] >> 1;
            int64_t cost = -1 + (visited[a] != e) + (b != a && visited[b] != e);
            if (n + cost > max_leaves) continue;
            if (best < 0 || cost < best_cost || (cost == best_cost && leaf > best)) {
                best = leaf;
                best_cost = cost;
            }
        }
        if (best < 0) break;
        int64_t kept = 0;
        for (int64_t i = 0; i < n; i++)
            if (leaves[i] != best) leaves[kept++] = leaves[i];
        n = kept;
        int64_t grown[2] = {fanin0[best] >> 1, fanin1[best] >> 1};
        for (int side = 0; side < 2; side++) {
            int64_t f = grown[side];
            if (f == 0) continue;
            int64_t i = 0;
            while (i < n && leaves[i] != f) i++;
            if (i == n) leaves[n++] = f;
            visited[f] = e;
        }
    }
    for (int64_t i = 1; i < n; i++) {
        int64_t v = leaves[i], j = i;
        while (j > 0 && leaves[j - 1] > v) {
            leaves[j] = leaves[j - 1];
            j--;
        }
        leaves[j] = v;
    }
    return n;
}

/* The all-ones table of n variables as a word pattern: tables of 6 or
 * more variables fill every word. */
static uint64_t bg_table_mask(int64_t n)
{
    return n >= 6 ? ~0ull : (1ull << (1 << n)) - 1;
}

/* Rows 0..n of a multiword table block: the constant, then leaf i as
 * variable i (repro.aig.truth.table_var). */
static void bg_leaf_rows(uint64_t* rows, int64_t n, int64_t words, uint64_t mask)
{
    for (int64_t w = 0; w < words; w++) rows[w] = 0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t w = 0; w < words; w++)
            rows[(i + 1) * words + w] = mask & (i < 6 ? BG_VAR_TABLES[i]
                : ((w >> (i - 6)) & 1) ? ~0ull : 0);
}

/* dst = (a ^ ma) & (b ^ mb), word by word. */
static void bg_and_row(
    uint64_t* dst, const uint64_t* a, uint64_t ma, const uint64_t* b,
    uint64_t mb, int64_t words)
{
    for (int64_t w = 0; w < words; w++) dst[w] = (a[w] ^ ma) & (b[w] ^ mb);
}

/* a == b ^ m, word by word. */
static int bg_rows_equal(const uint64_t* a, const uint64_t* b, uint64_t m, int64_t words)
{
    for (int64_t w = 0; w < words; w++)
        if (a[w] != (b[w] ^ m)) return 0;
    return 1;
}

/* Grow *rows to hold need words; nonzero when it cannot. */
static int bg_reserve(uint64_t** rows, int64_t* capacity, int64_t need)
{
    if (need <= *capacity) return 0;
    int64_t grown = 2 * *capacity > need ? 2 * *capacity : need;
    uint64_t* moved = realloc(*rows, grown * sizeof(uint64_t));
    if (!moved) return 1;
    *rows = moved;
    *capacity = grown;
    return 0;
}

/* repro.aig.truth.cut_truth_table of root over its n leaves, written to out
 * in BG_TABLE_WORDS(n) words: the post-order walk of bg_cut_table over
 * multiword rows, row 0 the constant and row i + 1 leaf i, the cone's rows
 * appended to *rows as the walk computes them.  Returns nonzero when the
 * rows cannot grow (or, never on a snapshot, the stack would overflow). */
static int bg_cone_table(
    const int64_t* fanin0, const int64_t* fanin1, int64_t root,
    const int64_t* leaves, int64_t n, uint32_t* stamp, uint32_t e,
    int64_t* row_of, int64_t* stack, int64_t stack_cap, uint64_t** rows,
    int64_t* capacity, uint64_t* out)
{
    int64_t words = BG_TABLE_WORDS(n);
    uint64_t mask = bg_table_mask(n);
    int64_t used = n + 1;
    if (bg_reserve(rows, capacity, used * words)) return 1;
    bg_leaf_rows(*rows, n, words, mask);
    stamp[0] = e;
    row_of[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        stamp[leaves[i]] = e;
        row_of[leaves[i]] = i + 1;
    }
    int64_t top = 0;
    stack[top++] = root;
    while (top > 0) {
        int64_t node = stack[top - 1];
        if (stamp[node] == e) {
            top--;
            continue;
        }
        int64_t f0 = fanin0[node], f1 = fanin1[node];
        int k0 = stamp[f0 >> 1] == e, k1 = stamp[f1 >> 1] == e;
        if (k0 && k1) {
            if (bg_reserve(rows, capacity, (used + 1) * words)) return 1;
            uint64_t* t = *rows;
            bg_and_row(t + used * words, t + row_of[f0 >> 1] * words, (f0 & 1) ? mask : 0,
                       t + row_of[f1 >> 1] * words, (f1 & 1) ? mask : 0, words);
            stamp[node] = e;
            row_of[node] = used++;
            top--;
        } else {
            if (top + 2 > stack_cap) return 1;
            if (!k0) stack[top++] = f0 >> 1;
            if (!k1) stack[top++] = f1 >> 1;
        }
    }
    memcpy(out, *rows + row_of[root] * words, words * sizeof(uint64_t));
    return 0;
}

/* For a batch of roots, the cut and truth table of
 * repro.synth.refactor.find_refactor_candidate:
 *
 * 1. the reconvergence-driven cut (bg_reconv_cut); a cut of fewer than two
 *    leaves has no candidate;
 * 2. the MFFC bounded by the cut (bg_mffc); below min_cone_size nodes, no
 *    candidate;
 * 3. repro.aig.truth.cut_truth_table of the root over the leaves
 *    (bg_cone_table).
 *
 * The stamps and work arrays are allocated per call.
 * args: [0]=fanin0 [1]=fanin1 (int64 literals per slot) [2]=is_and (uint8)
 *       [3]=refs (int64 per slot: fanouts plus PO uses) [4]=num_slots
 *       [5]=roots [6]=num_roots [7]=max_leaves (-1..BG_WINDOW_LEAVES)
 *       [8]=min_cone_size
 *       [9..11]=output per root: leaves[stride], leaf count (0: no
 *               candidate), table[BG_TABLE_WORDS(stride)] (uint64), where
 *               stride = max(0, max_leaves) + 2
 * Returns nonzero when the work arrays cannot be allocated. */
int bg_refactor_cut_tables(const int64_t* args)
{
    const int64_t* fanin0 = (const int64_t*)args[0];
    const int64_t* fanin1 = (const int64_t*)args[1];
    const uint8_t* is_and = (const uint8_t*)args[2];
    const int64_t* refs = (const int64_t*)args[3];
    int64_t slots = args[4];
    const int64_t* roots = (const int64_t*)args[5];
    int64_t num_roots = args[6];
    int64_t max_leaves = args[7];
    int64_t min_cone_size = args[8];
    int64_t* out_l = (int64_t*)args[9];
    int64_t* out_n = (int64_t*)args[10];
    uint64_t* out_t = (uint64_t*)args[11];
    int64_t stride = (max_leaves > 0 ? max_leaves : 0) + 2;
    int64_t words = BG_TABLE_WORDS(stride);
    int64_t capacity = 64 * BG_TABLE_WORDS(stride);
    int64_t stack_cap = 2 * slots + 2;
    uint32_t* marks = calloc(5 * (slots + 1), sizeof(uint32_t));
    int64_t* rem = malloc((slots + 1) * sizeof(int64_t));
    int64_t* deref = malloc((slots + 1) * sizeof(int64_t));
    int64_t* row_of = malloc((slots + 1) * sizeof(int64_t));
    int64_t* stack = malloc(stack_cap * sizeof(int64_t));
    uint64_t* rows = malloc(capacity * sizeof(uint64_t));
    int err = !marks || !rem || !deref || !row_of || !stack || !rows;
    uint32_t* visited = marks;
    uint32_t* leafmark = marks + (slots + 1);
    uint32_t* freed = marks + 2 * (slots + 1);
    uint32_t* remstamp = marks + 3 * (slots + 1);
    uint32_t* stamp = marks + 4 * (slots + 1);
    uint32_t epoch = 0;
    for (int64_t r = 0; r < num_roots && !err; r++) {
        int64_t root = roots[r];
        out_n[r] = 0;
        if (!is_and[root]) continue;
        uint32_t e = bg_bump(&epoch, marks, 5 * (slots + 1));
        int64_t* leaves = out_l + r * stride;
        int64_t n = bg_reconv_cut(root, max_leaves, fanin0, fanin1, is_and, visited, e, leaves);
        if (n < 2) continue;
        int64_t nd = bg_mffc(root, leaves, n, fanin0, fanin1, is_and, refs, leafmark,
                             freed, remstamp, rem, stack, deref, e);
        if (nd < min_cone_size) continue;
        err = bg_cone_table(fanin0, fanin1, root, leaves, n, stamp, e, row_of, stack,
                            stack_cap, &rows, &capacity, out_t + r * words);
        out_n[r] = n;
    }
    free(marks);
    free(rem);
    free(deref);
    free(row_of);
    free(stack);
    free(rows);
    return err;
}

/* Step 5 of bg_resub_scan over the divisor rows divs (in the finder's
 * order): the number of AND nodes the replacement adds, or -1 for none,
 * with its divisor rows in pick and its complements in *compl (bit 0 the
 * output, bit i + 1 divisor i).  ranked and sims hold count entries,
 * covers 2 * count. */
static int64_t bg_resub_match(
    const uint64_t* tables, int64_t words, uint64_t mask, const uint64_t* target,
    const int64_t* divs, int64_t count, int64_t gain0, int64_t min_gain,
    int64_t max_nodes, int64_t max_divisors, int64_t max_two, int64_t* ranked,
    int64_t* sims, int64_t* covers, int64_t* pick, int64_t* compl)
{
    /* 0-resub: the first divisor equal to the target or its complement. */
    for (int64_t i = 0; i < count; i++) {
        const uint64_t* t = tables + divs[i] * words;
        int direct = bg_rows_equal(t, target, 0, words);
        if (direct || bg_rows_equal(t, target, mask, words)) {
            pick[0] = divs[i];
            *compl = direct ? 0 : 2;
            return 0;
        }
    }
    if (max_nodes < 1) return -1;
    /* The first max_divisors divisors of the stable sort by similarity
     * min(|t ^ target|, |t ^ ~target|), inserted one by one. */
    int64_t limit = max_divisors < count ? max_divisors : count;
    int64_t nr = 0;
    for (int64_t i = 0; i < count; i++) {
        const uint64_t* t = tables + divs[i] * words;
        int64_t direct = 0, inverse = 0;
        for (int64_t w = 0; w < words; w++) {
            direct += BG_POPCOUNT(t[w] ^ target[w]);
            inverse += BG_POPCOUNT(t[w] ^ target[w] ^ mask);
        }
        int64_t sim = direct < inverse ? direct : inverse;
        int64_t at = nr;
        while (at > 0 && sims[at - 1] > sim) at--;
        if (at >= limit) continue;
        for (int64_t m = nr < limit ? nr : limit - 1; m > at; m--) {
            ranked[m] = ranked[m - 1];
            sims[m] = sims[m - 1];
        }
        ranked[at] = divs[i];
        sims[at] = sim;
        if (nr < limit) nr++;
    }
    /* 1-resub: target == maybe_not(AND(+-a, +-b)), pairs (i, j > i),
     * complements FF, FT, TF, TT, the direct output first. */
    if (gain0 - 1 >= min_gain) {
        for (int64_t i = 0; i < nr; i++) {
            const uint64_t* ta = tables + ranked[i] * words;
            for (int64_t j = i + 1; j < nr; j++) {
                const uint64_t* tb = tables + ranked[j] * words;
                for (int ca = 0; ca < 2; ca++) {
                    for (int cb = 0; cb < 2; cb++) {
                        int direct = 1, inverse = 1;
                        for (int64_t w = 0; w < words && (direct || inverse); w++) {
                            uint64_t conj = (ta[w] ^ (ca ? mask : 0)) & (tb[w] ^ (cb ? mask : 0));
                            direct &= conj == target[w];
                            inverse &= (conj ^ mask) == target[w];
                        }
                        if (direct || inverse) {
                            pick[0] = ranked[i];
                            pick[1] = ranked[j];
                            *compl = (direct ? 0 : 1) | (ca << 1) | (cb << 2);
                            return 1;
                        }
                    }
                }
            }
        }
    }
    if (max_nodes < 2 || gain0 - 2 < min_gain) return -1;
    /* 2-resub: target == maybe_not(+-d1 & (+-d2 | +-d3)) over the first
     * max_two ranked divisors, d1 covering the wanted function. */
    int64_t nt = max_two < nr ? max_two : nr;
    for (int oc = 0; oc < 2; oc++) {
        uint64_t flip = oc ? mask : 0;
        int zero = 1, full = 1;
        for (int64_t w = 0; w < words; w++) {
            zero &= (target[w] ^ flip) == 0;
            full &= (target[w] ^ flip) == mask;
        }
        if (zero || full) continue;
        int64_t nc = 0;
        for (int64_t i = 0; i < nt; i++) {
            const uint64_t* t = tables + ranked[i] * words;
            int covered = 1, disjoint = 1;
            for (int64_t w = 0; w < words; w++) {
                uint64_t wanted = target[w] ^ flip;
                covered &= (wanted & ~t[w] & mask) == 0;
                disjoint &= (wanted & t[w]) == 0;
            }
            if (covered) covers[nc++] = ranked[i] << 1;
            if (disjoint) covers[nc++] = (ranked[i] << 1) | 1;
        }
        for (int64_t c = 0; c < nc; c++) {
            int64_t d1 = covers[c] >> 1;
            const uint64_t* t1 = tables + d1 * words;
            uint64_t m1 = (covers[c] & 1) ? mask : 0;
            for (int64_t i = 0; i < nt; i++) {
                if (ranked[i] == d1) continue;
                const uint64_t* t2 = tables + ranked[i] * words;
                for (int64_t j = i + 1; j < nt; j++) {
                    if (ranked[j] == d1) continue;
                    const uint64_t* t3 = tables + ranked[j] * words;
                    for (int c2 = 0; c2 < 2; c2++) {
                        for (int c3 = 0; c3 < 2; c3++) {
                            int ok = 1;
                            for (int64_t w = 0; w < words && ok; w++)
                                ok = ((t1[w] ^ m1) & ((t2[w] ^ (c2 ? mask : 0))
                                      | (t3[w] ^ (c3 ? mask : 0)))) == (target[w] ^ flip);
                            if (ok) {
                                pick[0] = d1;
                                pick[1] = ranked[i];
                                pick[2] = ranked[j];
                                *compl = oc | (int64_t)((covers[c] & 1) << 1) | (c2 << 2) | (c3 << 3);
                                return 2;
                            }
                        }
                    }
                }
            }
        }
    }
    return -1;
}

/* For a batch of roots, repro.synth.resub.find_resub_candidate replayed:
 *
 * 1. the reconvergence-driven cut (bg_reconv_cut) and the MFFC it bounds
 *    (bg_mffc); no candidate for a cut of fewer than two leaves or an MFFC
 *    below min_gain (no resubstitution gains more than the MFFC);
 * 2. the walk of _collect_window: breadth-first from the sorted leaves,
 *    each node's fanouts in the order of the fanout arrays (the iteration
 *    order of Aig._fanouts), an AND node joining once both fanins are in,
 *    until the window, counting the constant and the leaves, holds
 *    max_window nodes; no candidate when the root stays outside;
 * 3. the window's truth tables over the leaves and its transitive-fanout
 *    flags, both in insertion order (a node joins after its fanins);
 * 4. the divisors: the window's nodes outside the MFFC and the root's
 *    transitive fanout.
 *
 * The finder takes the divisors in the iteration order of its window set,
 * which only the caller can reproduce.  Without orders, a root whose result
 * depends on that order is reported pending, with its leaves and its window
 * in insertion order (the caller's set is rebuilt from these); the others
 * are resolved: no candidate without divisors, the one divisor equal to the
 * target or its complement when exactly one is (the 0-resub scan comes
 * first and finds it in any order), no candidate when none is and no
 * resubstitution that adds nodes can pay.  With orders (per root, its
 * window set in iteration order), every root is resolved by
 * bg_resub_match:
 *
 * 5. the first 0-resub divisor; with max_resub_nodes >= 1 the divisors
 *    stably ranked by similarity to the target, cut to max_divisors, and
 *    the first 1-resub pair; with max_resub_nodes >= 2
 *    repro.synth.resub._find_two_resub over the first
 *    max_divisors_two_resub of them.  A stage runs only when its gain (the
 *    MFFC size minus the AND nodes it adds) reaches min_gain.
 *
 * The stamps, tables and work arrays are allocated per call.
 * args: [0]=fanin0 [1]=fanin1 (int64 literals per slot) [2]=is_and (uint8)
 *       [3]=refs (int64 per slot: fanouts plus PO uses) [4]=num_slots
 *       [5]=fanout offsets (num_slots + 1) [6]=fanout ids
 *       [7]=roots [8]=num_roots [9]=max_leaves (-1..BG_WINDOW_LEAVES)
 *       [10]=max_window (0..num_slots + 2) [11]=max_divisors
 *       [12]=max_divisors_two_resub (both 0..num_slots + 1)
 *       [13]=max_resub_nodes (-1..2) [14]=min_gain
 *       [15]=order offsets (num_roots + 1) or 0 [16]=order ids (node ids)
 *       [17]=output, 8 rows of num_roots: kind (-2 pending, -1 none, else
 *            the AND nodes the replacement adds), three divisors (-1:
 *            unused), complements (bit 0 the output, bit i + 1 divisor i),
 *            leaf count, then the MFFC size (the window size when pending)
 *            and the root's offset into the node buffer
 *       [18]=node buffer (per root its leaves, then its MFFC or its window)
 *       [19]=node buffer capacity
 * Returns the number of buffer entries the roots need (the caller scans
 * again with a larger buffer when that exceeds the capacity), -1 when the
 * work arrays cannot be allocated and -2 when an order is not its root's
 * window. */
int64_t bg_resub_scan(const int64_t* args)
{
    const int64_t* fanin0 = (const int64_t*)args[0];
    const int64_t* fanin1 = (const int64_t*)args[1];
    const uint8_t* is_and = (const uint8_t*)args[2];
    const int64_t* refs = (const int64_t*)args[3];
    int64_t slots = args[4];
    const int64_t* fo_off = (const int64_t*)args[5];
    const int64_t* fo_ids = (const int64_t*)args[6];
    const int64_t* roots = (const int64_t*)args[7];
    int64_t num_roots = args[8];
    int64_t max_leaves = args[9];
    int64_t max_window = args[10];
    int64_t max_divisors = args[11];
    int64_t max_two = args[12];
    int64_t max_nodes = args[13];
    int64_t min_gain = args[14];
    const int64_t* ord_off = (const int64_t*)args[15];
    const int64_t* ord_ids = (const int64_t*)args[16];
    int64_t* out_kind = (int64_t*)args[17];
    int64_t* out_div = out_kind + num_roots;
    int64_t* out_compl = out_kind + 4 * num_roots;
    int64_t* out_nl = out_kind + 5 * num_roots;
    int64_t* out_ns = out_kind + 6 * num_roots;
    int64_t* out_off = out_kind + 7 * num_roots;
    int64_t* buffer = (int64_t*)args[18];
    int64_t capacity = args[19];

    int64_t stride = (max_leaves > 0 ? max_leaves : 0) + 2;
    int64_t words_cap = BG_TABLE_WORDS(stride);
    /* The walk adds at most max_window nodes and at most every slot. */
    int64_t added_cap = max_window < slots + 1 ? max_window : slots + 1;
    int64_t rows_cap = stride + 1 + added_cap;
    uint32_t* marks = calloc(6 * (slots + 1), sizeof(uint32_t));
    int64_t* rem = malloc((slots + 1) * sizeof(int64_t));
    int64_t* stack = malloc((slots + 1) * sizeof(int64_t));
    int64_t* deref = malloc((slots + 1) * sizeof(int64_t));
    int64_t* row_of = malloc((slots + 1) * sizeof(int64_t));
    int64_t* added = malloc((added_cap + 1) * sizeof(int64_t));
    uint64_t* tables = malloc(rows_cap * words_cap * sizeof(uint64_t));
    uint8_t* tfo = malloc(rows_cap);
    /* The divisor rows, their ranking with its similarities and the
     * 2-resub covers. */
    int64_t* work = malloc(5 * rows_cap * sizeof(int64_t));
    if (!marks || !rem || !stack || !deref || !row_of || !added || !tables || !tfo || !work) {
        free(marks); free(rem); free(stack); free(deref); free(row_of);
        free(added); free(tables); free(tfo); free(work);
        return -1;
    }
    uint32_t* visited = marks;
    uint32_t* leafmark = marks + (slots + 1);
    uint32_t* freed = marks + 2 * (slots + 1);
    uint32_t* remstamp = marks + 3 * (slots + 1);
    uint32_t* window = marks + 4 * (slots + 1);
    uint32_t* seen = marks + 5 * (slots + 1);
    int64_t* divs = work;
    int64_t* ranked = work + rows_cap;
    int64_t* sims = work + 2 * rows_cap;
    int64_t* covers = work + 3 * rows_cap;

    int64_t pos = 0, status = 0;
    uint32_t epoch = 0;
    for (int64_t r = 0; r < num_roots && !status; r++) {
        int64_t root = roots[r];
        out_kind[r] = -1;
        for (int d = 0; d < 3; d++) out_div[d * num_roots + r] = -1;
        out_compl[r] = 0;
        out_nl[r] = 0;
        out_ns[r] = 0;
        out_off[r] = pos;
        if (!is_and[root]) continue;
        uint32_t e = bg_bump(&epoch, marks, 6 * (slots + 1));
        /* 1. The cut and its MFFC. */
        int64_t leaves[BG_WINDOW_LEAVES + 2];
        int64_t n = bg_reconv_cut(root, max_leaves, fanin0, fanin1, is_and, visited, e, leaves);
        if (n < 2) continue;
        int64_t nd = bg_mffc(root, leaves, n, fanin0, fanin1, is_and, refs, leafmark,
                             freed, remstamp, rem, stack, deref, e);
        if (nd < min_gain) continue;
        /* 2. The window walk: row 0 the constant, rows 1..n the leaves, then
         * the nodes it adds. */
        window[0] = e;
        row_of[0] = 0;
        for (int64_t i = 0; i < n; i++) {
            window[leaves[i]] = e;
            row_of[leaves[i]] = i + 1;
        }
        const int64_t* frontier = leaves;
        int64_t size = n + 1, nw = 0, begin = 0, end = n;
        while (end > begin && size < max_window) {
            int64_t next = nw;
            for (int64_t i = begin; i < end && size < max_window; i++) {
                int64_t cur = frontier[i];
                for (int64_t j = fo_off[cur]; j < fo_off[cur + 1]; j++) {
                    int64_t fo = fo_ids[j];
                    if (window[fo] == e || !is_and[fo]) continue;
                    if (window[fanin0[fo] >> 1] != e || window[fanin1[fo] >> 1] != e) continue;
                    window[fo] = e;
                    row_of[fo] = n + 1 + nw;
                    added[nw++] = fo;
                    if (++size >= max_window) break;
                }
            }
            frontier = added;
            begin = next;
            end = nw;
        }
        if (window[root] != e) continue;
        /* 3. Tables and transitive-fanout flags in insertion order. */
        int64_t words = BG_TABLE_WORDS(n);
        uint64_t mask = bg_table_mask(n);
        int64_t rows = n + 1 + nw;
        bg_leaf_rows(tables, n, words, mask);
        for (int64_t i = 0; i <= n; i++) tfo[i] = 0;
        for (int64_t k = 0; k < nw; k++) {
            int64_t node = added[k], f0 = fanin0[node], f1 = fanin1[node];
            int64_t r0 = row_of[f0 >> 1], r1 = row_of[f1 >> 1];
            bg_and_row(tables + (n + 1 + k) * words, tables + r0 * words, (f0 & 1) ? mask : 0,
                       tables + r1 * words, (f1 & 1) ? mask : 0, words);
            tfo[n + 1 + k] = node == root || tfo[r0] || tfo[r1];
        }
        const uint64_t* target = tables + row_of[root] * words;
        /* 4. The divisors, and 5. their matching. */
        int64_t count = 0, kind = -2, compl = 0;
        int64_t pick[3] = {-1, -1, -1};
        if (!ord_off) {
            int64_t matches = 0;
            for (int64_t row = 1; row < rows; row++) {
                int64_t node = row <= n ? leaves[row - 1] : added[row - n - 1];
                if (node == root || freed[node] == e || tfo[row]) continue;
                count++;
                const uint64_t* t = tables + row * words;
                int direct = bg_rows_equal(t, target, 0, words);
                if (direct || bg_rows_equal(t, target, mask, words)) {
                    matches++;
                    pick[0] = row;
                    compl = direct ? 0 : 2;
                }
            }
            if (count == 0) continue;
            if (matches == 1) kind = 0;
            else if (matches == 0 && (max_nodes < 1 || nd - 1 < min_gain)) continue;
        } else {
            int64_t start = ord_off[r], stop = ord_off[r + 1];
            if (stop - start != rows - 1) {
                status = -2;
                break;
            }
            for (int64_t j = start; j < stop; j++) {
                int64_t node = ord_ids[j];
                if (node == 0 || window[node] != e || seen[node] == e) {
                    status = -2;
                    break;
                }
                seen[node] = e;
                if (node == root || freed[node] == e || tfo[row_of[node]]) continue;
                divs[count++] = row_of[node];
            }
            if (status) break;
            if (count == 0) continue;
            kind = bg_resub_match(tables, words, mask, target, divs, count, nd, min_gain,
                                  max_nodes, max_divisors, max_two, ranked, sims, covers,
                                  pick, &compl);
            if (kind < 0) continue;
        }
        out_kind[r] = kind;
        for (int d = 0; d < 3 && kind >= 0; d++) {
            int64_t row = pick[d];
            if (row >= 0)
                out_div[d * num_roots + r] = row <= n ? leaves[row - 1] : added[row - n - 1];
        }
        out_compl[r] = kind >= 0 ? compl : 0;
        /* Leaves, then the MFFC (a match) or the window (pending). */
        const int64_t* second = kind == -2 ? added : deref;
        int64_t ns = kind == -2 ? nw : nd;
        out_nl[r] = n;
        out_ns[r] = ns;
        if (pos + n + ns <= capacity) {
            for (int64_t i = 0; i < n; i++) buffer[pos + i] = leaves[i];
            for (int64_t i = 0; i < ns; i++) buffer[pos + n + i] = second[i];
        }
        pos += n + ns;
    }
    free(marks); free(rem); free(stack); free(deref); free(row_of);
    free(added); free(tables); free(tfo); free(work);
    return status ? status : pos;
}

/* ---- Refactoring fragments: ISOP, quick factoring, balanced ANDs ----- */

/* The fragment kernel's input limit: a cube is its positive literal mask
 * ORed with its negative one shifted up by BG_FRAGMENT_VARS. */
#define BG_FRAGMENT_VARS 16

/* An ISOP under way: the cover's cubes in the order they are appended,
 * and a stack of table words for the recursion's scratch rows. */
typedef struct {
    uint32_t* cubes;
    int64_t count, cap;
    uint64_t* words;
    int64_t top, words_cap;
    int err;
} bg_isop_t;

/* Is t, a table of k variables, all ones? */
static int bg_table_full(const uint64_t* t, int64_t k)
{
    uint64_t mask = bg_table_mask(k);
    for (int64_t w = 0; w < BG_TABLE_WORDS(k); w++)
        if (t[w] != mask) return 0;
    return 1;
}

/* Does t, a table of k variables, depend on variable v? */
static int bg_table_depends(const uint64_t* t, int64_t k, int64_t v)
{
    if (v < 6) {
        uint64_t negative = ~BG_VAR_TABLES[v];
        for (int64_t w = 0; w < BG_TABLE_WORDS(k); w++)
            if ((t[w] ^ (t[w] >> (1 << v))) & negative) return 1;
        return 0;
    }
    int64_t stride = (int64_t)1 << (v - 6);
    for (int64_t w = 0; w < BG_TABLE_WORDS(k); w++)
        if (!(w & stride) && t[w] != t[w + stride]) return 1;
    return 0;
}

/* The step of repro.synth.isop.isop_pairs at var = k - 1, on bounds of k
 * variables (a table is independent of the variables its step has split
 * off or skipped, so it shrinks to the ones left): appends the cover's
 * cubes to s->cubes in the step's order and writes the cover's table, of
 * k variables, to t.  The step splits on the top-most variable either
 * bound depends on; its cofactors are the halves of the bounds. */
static void bg_isop(bg_isop_t* s, const uint64_t* lower, const uint64_t* upper, int64_t k,
                    uint64_t* t)
{
    int64_t words = BG_TABLE_WORDS(k);
    uint64_t mask = bg_table_mask(k);
    int64_t split = k - 1;
    int zero = 1;
    for (int64_t w = 0; w < words; w++) zero &= lower[w] == 0;
    if (zero || s->err) {
        memset(t, 0, words * sizeof(uint64_t));
        return;
    }
    int full = bg_table_full(upper, k);
    while (!full && split >= 0 && !bg_table_depends(lower, k, split)
           && !bg_table_depends(upper, k, split))
        split--;
    if (full || split < 0) {
        if (s->count == s->cap) {
            uint32_t* grown = realloc(s->cubes, 2 * s->cap * sizeof(uint32_t));
            if (!grown) {
                s->err = 1;
                return;
            }
            s->cubes = grown;
            s->cap *= 2;
        }
        s->cubes[s->count++] = 0;
        for (int64_t w = 0; w < words; w++) t[w] = mask;
        return;
    }
    int64_t half = BG_TABLE_WORDS(split);
    if (s->top + 5 * half > s->words_cap) {  /* never: the stack is sized for the depth */
        s->err = 1;
        return;
    }
    uint64_t* a = s->words + s->top;
    uint64_t* b = a + half;
    uint64_t* t0 = b + half;
    uint64_t* t1 = t0 + half;
    uint64_t* t2 = t1 + half;
    s->top += 5 * half;
    uint64_t cofactors[4];
    const uint64_t *l0 = lower, *l1 = lower + half, *u0 = upper, *u1 = upper + half;
    if (split < 6) {
        uint64_t low = bg_table_mask(split), both = bg_table_mask(split + 1);
        cofactors[0] = lower[0] & low;
        cofactors[1] = (lower[0] & both) >> (1 << split);
        cofactors[2] = upper[0] & low;
        cofactors[3] = (upper[0] & both) >> (1 << split);
        l0 = cofactors;
        l1 = cofactors + 1;
        u0 = cofactors + 2;
        u1 = cofactors + 3;
    }
    /* Minterms only the negative, then only the positive cofactor can
     * cover, then the rest with cubes free of the split variable. */
    int64_t first = s->count;
    for (int64_t w = 0; w < half; w++) a[w] = l0[w] & ~u1[w];
    bg_isop(s, a, u0, split, t0);
    for (int64_t i = first; i < s->count; i++) s->cubes[i] |= 1u << (split + BG_FRAGMENT_VARS);
    first = s->count;
    for (int64_t w = 0; w < half; w++) a[w] = l1[w] & ~u0[w];
    bg_isop(s, a, u1, split, t1);
    for (int64_t i = first; i < s->count; i++) s->cubes[i] |= 1u << split;
    for (int64_t w = 0; w < half; w++) {
        a[w] = (l0[w] & ~t0[w]) | (l1[w] & ~t1[w]);
        b[w] = u0[w] & u1[w];
    }
    bg_isop(s, a, b, split, t2);
    /* The cover's table over split + 1 variables, repeated up to k. */
    if (split >= 6) {
        for (int64_t w = 0; w < half; w++) {
            t[w] = t0[w] | t2[w];
            t[half + w] = t1[w] | t2[w];
        }
        for (int64_t w = 2 * half; w < words; w++) t[w] = t[w - 2 * half];
    } else {
        uint64_t x = t0[0] | t2[0] | (t1[0] | t2[0]) << (1 << split);
        for (int64_t v = split + 1; v < k && v < 6; v++) x |= x << (1 << v);
        for (int64_t w = 0; w < words; w++) t[w] = x;
    }
    s->top -= 5 * half;
}

/* A fragment under construction, as Fragment.from_expression builds it:
 * nodes as fanin literal pairs and its local structural hash, open
 * addressing over slots that hold a node index + 1 (0: empty).  Adding a
 * node that would bring it to limit nodes sets err to 2; err 1 means out
 * of memory. */
typedef struct {
    int64_t leaves, count, cap, limit, buckets;
    int64_t* nodes;
    int64_t* slots;
    int err;
} bg_frag_t;

/* The slot of the node (a, b), or the empty slot where it goes. */
static int64_t bg_frag_slot(const bg_frag_t* f, int64_t a, int64_t b)
{
    int64_t h = (int64_t)(bg_pair_hash(a, b) & (uint64_t)(f->buckets - 1));
    while (f->slots[h]) {
        int64_t i = f->slots[h] - 1;
        if (f->nodes[2 * i] == a && f->nodes[2 * i + 1] == b) break;
        h = (h + 1) & (f->buckets - 1);
    }
    return h;
}

/* Room for cap nodes (the hash at twice that); nonzero when out of memory. */
static int bg_frag_reserve(bg_frag_t* f, int64_t cap)
{
    int64_t* nodes = realloc(f->nodes, 2 * cap * sizeof(int64_t));
    if (!nodes) return 1;
    f->nodes = nodes;
    int64_t* slots = calloc(2 * cap, sizeof(int64_t));
    if (!slots) return 1;
    free(f->slots);
    f->slots = slots;
    f->buckets = 2 * cap;
    f->cap = cap;
    for (int64_t i = 0; i < f->count; i++)
        f->slots[bg_frag_slot(f, f->nodes[2 * i], f->nodes[2 * i + 1])] = i + 1;
    return 0;
}

/* Fragment.add_and with its local structural hash. */
static int64_t bg_frag_and(bg_frag_t* f, int64_t a, int64_t b)
{
    int64_t found = bg_trivial_and(a, b);
    if (found >= 0 || f->err) return found >= 0 ? found : 0;
    if (a > b) {
        found = a;
        a = b;
        b = found;
    }
    int64_t h = bg_frag_slot(f, a, b);
    if (f->slots[h]) return (f->leaves + f->slots[h]) << 1;
    if (f->count + 1 >= f->limit) {
        f->err = 2;
        return 0;
    }
    if (f->count == f->cap) {
        if (bg_frag_reserve(f, 2 * f->cap)) {
            f->err = 1;
            return 0;
        }
        h = bg_frag_slot(f, a, b);
    }
    f->nodes[2 * f->count] = a;
    f->nodes[2 * f->count + 1] = b;
    f->slots[h] = ++f->count;
    return (f->leaves + f->count) << 1;
}

/* repro.synth.fragment._balanced_and, level by level in place. */
static int64_t bg_frag_balanced(bg_frag_t* f, int64_t* lits, int64_t n)
{
    if (n == 0) return 1;
    while (n > 1) {
        int64_t m = 0;
        for (int64_t i = 0; i + 1 < n; i += 2) lits[m++] = bg_frag_and(f, lits[i], lits[i + 1]);
        if (n & 1) lits[m++] = lits[n - 1];
        n = m;
    }
    return lits[0];
}

/* The literal of repro.synth.factor._cube_expr(cube): its literals in
 * increasing variable order, balanced. */
static int64_t bg_frag_cube(bg_frag_t* f, uint32_t cube)
{
    int64_t lits[BG_FRAGMENT_VARS];
    int64_t n = 0;
    for (int64_t v = 0; v < BG_FRAGMENT_VARS; v++) {
        int64_t negative = (cube >> (v + BG_FRAGMENT_VARS)) & 1;
        if (negative || ((cube >> v) & 1)) lits[n++] = ((v + 1) << 1) | negative;
    }
    return bg_frag_balanced(f, lits, n);
}

/* repro.synth.factor.factor_pairs of cubes[0..n), built into f in the
 * post-order of Fragment.from_expression: every operand's nodes before the
 * node that joins them.  The cubes are rewritten in place (a division
 * moves its quotient before its remainder); scratch holds n cubes and lits
 * n literals. */
static int64_t bg_factor(bg_frag_t* f, uint32_t* cubes, int64_t n, uint32_t* scratch,
                         int64_t* lits)
{
    if (n == 0 || f->err) return 0;
    uint32_t common = ~0u;
    for (int64_t i = 0; i < n; i++) {
        if (!cubes[i]) return 1;
        common &= cubes[i];
    }
    if (n == 1) return bg_frag_cube(f, cubes[0]);
    if (common) {
        int64_t head = bg_frag_cube(f, common);
        for (int64_t i = 0; i < n; i++) cubes[i] ^= common;
        return bg_frag_and(f, head, bg_factor(f, cubes, n, scratch, lits));
    }
    /* The most frequent literal, if it appears more than once; ties go to
     * the lower variable, then to the positive literal. */
    int64_t counts[2 * BG_FRAGMENT_VARS] = {0};
    for (int64_t i = 0; i < n; i++)
        for (int64_t l = 0; l < 2 * BG_FRAGMENT_VARS; l++) counts[l] += (cubes[i] >> l) & 1;
    int64_t best = -1, best_count = 1;
    for (int64_t v = 0; v < BG_FRAGMENT_VARS; v++) {
        for (int64_t l = v; l < 2 * BG_FRAGMENT_VARS; l += BG_FRAGMENT_VARS) {
            if (counts[l] > best_count) {
                best = l;
                best_count = counts[l];
            }
        }
    }
    if (best < 0) {  /* no sharing: the flat OR of the cubes */
        for (int64_t i = 0; i < n; i++) lits[i] = bg_frag_cube(f, cubes[i]) ^ 1;
        return bg_frag_balanced(f, lits, n) ^ 1;
    }
    uint32_t bit = 1u << best;
    int64_t q = 0, r = 0;
    for (int64_t i = 0; i < n; i++) {
        if (cubes[i] & bit) cubes[q++] = cubes[i] ^ bit;
        else scratch[r++] = cubes[i];
    }
    memcpy(cubes + q, scratch, r * sizeof(uint32_t));
    int64_t literal = ((best % BG_FRAGMENT_VARS + 1) << 1) | (best >= BG_FRAGMENT_VARS);
    int64_t divided = bg_frag_and(f, literal, bg_factor(f, cubes, q, scratch, lits));
    if (r == 0) return divided;
    int64_t rest = bg_factor(f, cubes + q, r, scratch, lits);
    return bg_frag_and(f, divided ^ 1, rest ^ 1) ^ 1;
}

/* One polarity: the ISOP of the table (n variables) factored into f;
 * returns the fragment's output literal. */
static int64_t bg_polarity(bg_isop_t* s, bg_frag_t* f, const uint64_t* table, int64_t n)
{
    s->count = 0;
    s->top = BG_TABLE_WORDS(n);  /* words[0..top) take the cover's table */
    bg_isop(s, table, table, n, s->words);
    uint32_t* scratch = malloc((s->count + 1) * sizeof(uint32_t));
    int64_t* lits = malloc((s->count + 1) * sizeof(int64_t));
    int64_t output = 0;
    if (s->err || !scratch || !lits) f->err = 1;
    else output = bg_factor(f, s->cubes, s->count, scratch, lits);
    free(scratch);
    free(lits);
    return output;
}

/* repro.synth.refactor._factor_both_polarities of the table of n variables
 * (1..BG_FRAGMENT_VARS, BG_TABLE_WORDS(n) little-endian words, masked):
 * the table and its complement each through the ISOP, quick factoring and
 * the balanced-AND build; the complement's fragment, with its output
 * inverted, wins only with fewer nodes, so its build stops once it has as
 * many.  out[0] gets the output literal, and out[1 + 2i], out[2 + 2i] the
 * fanins of node i when the nodes fit capacity.  Returns the node count
 * (call again with a larger buffer when it exceeds capacity), or -1 when
 * the work arrays cannot be allocated.  All state is per call. */
int64_t bg_factored_fragment(const void* table, int64_t n, int64_t* out, int64_t capacity)
{
    int64_t words = BG_TABLE_WORDS(n);
    bg_isop_t s = {0};
    bg_frag_t fragments[2] = {{0}, {0}};
    s.cap = 64;
    s.cubes = malloc(s.cap * sizeof(uint32_t));
    s.words_cap = 7 * words + 64;
    s.words = malloc(s.words_cap * sizeof(uint64_t));
    uint64_t* tables = malloc(2 * words * sizeof(uint64_t));
    int err = !s.cubes || !s.words || !tables;
    for (int p = 0; p < 2 && !err; p++) {
        fragments[p].leaves = n;
        fragments[p].limit = INT64_MAX;
        err = bg_frag_reserve(&fragments[p], 64);
    }
    int64_t output = 0, best = 0;
    if (!err) {
        memcpy(tables, table, words * sizeof(uint64_t));
        output = bg_polarity(&s, &fragments[0], tables, n);
        err = fragments[0].err;
    }
    if (!err && fragments[0].count > 0) {
        for (int64_t w = 0; w < words; w++) tables[words + w] = tables[w] ^ bg_table_mask(n);
        fragments[1].limit = fragments[0].count;
        int64_t negative = bg_polarity(&s, &fragments[1], tables + words, n);
        err = fragments[1].err == 1;
        if (!fragments[1].err) {
            best = 1;
            output = negative ^ 1;
        }
    }
    int64_t count = err ? -1 : fragments[best].count;
    if (!err) {
        out[0] = output;
        if (count <= capacity) memcpy(out + 1, fragments[best].nodes, 2 * count * sizeof(int64_t));
    }
    for (int p = 0; p < 2; p++) {
        free(fragments[p].nodes);
        free(fragments[p].slots);
    }
    free(s.cubes);
    free(s.words);
    free(tables);
    return count;
}
"""


def cache_dir() -> str:
    """The compile-cache directory (``BOOLGEBRA_NATIVE_CACHE`` or XDG default)."""
    path = os.environ.get(ENV_CACHE)
    if not path:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
        path = os.path.join(base, "boolgebra", "native")
    return path


def _source_tag() -> str:
    return hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:12]


def library_path() -> str:
    """Where the cc-built shared library lives (content-hashed by source)."""
    return os.path.join(cache_dir(), f"boolgebra_kernels_{_source_tag()}.so")


def find_compiler() -> Optional[str]:
    """The system C compiler to build the cc engine with, if any."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


_BUILD_LOCK = threading.Lock()


def build_library() -> str:
    """Compile (or reuse) the kernel shared library; returns its path.

    The build is atomic — the library is compiled to a temporary name and
    moved into place — so concurrent workers racing on a cold cache all end
    up loading one complete artifact.  Raises on any failure (no compiler,
    compile error, unwritable cache dir); callers degrade per-op.
    """
    target = library_path()
    if os.path.exists(target):
        _COMPILE_CACHE.labels(engine="cc", event="hit").inc()
        return target
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    with _BUILD_LOCK:
        if os.path.exists(target):
            _COMPILE_CACHE.labels(engine="cc", event="hit").inc()
            return target
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        fd, source = tempfile.mkstemp(suffix=".c", dir=directory)
        scratch = f"{target}.tmp{os.getpid()}"
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(_C_SOURCE)
            subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", scratch, source],
                check=True,
                capture_output=True,
            )
            os.replace(scratch, target)
            _COMPILE_CACHE.labels(engine="cc", event="build").inc()
        finally:
            for leftover in (source, scratch):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    return target


class CcKernels:
    """ctypes bindings over the cc-built shared library.

    Thin and policy-free: every scan method takes the address of an int64
    args block laid out as the kernel source documents, filled by the
    backend, which checks every index and keeps the arrays alive across the
    call; :meth:`factored_fragment` takes its few arguments directly.
    """

    engine = "cc"

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        lib.bg_local_cut_tables.argtypes = [ptr]
        lib.bg_local_cut_tables.restype = ctypes.c_int
        lib.bg_snapshot_cut_tables.argtypes = [ptr]
        lib.bg_snapshot_cut_tables.restype = ctypes.c_int
        lib.bg_rewrite_scan.argtypes = [ptr]
        lib.bg_rewrite_scan.restype = i64
        lib.bg_refactor_cut_tables.argtypes = [ptr]
        lib.bg_refactor_cut_tables.restype = ctypes.c_int
        lib.bg_resub_scan.argtypes = [ptr]
        lib.bg_resub_scan.restype = i64
        lib.bg_factored_fragment.argtypes = [ctypes.c_char_p, i64, ptr, i64]
        lib.bg_factored_fragment.restype = i64
        self._lib = lib
        self.path = path

    def local_cut_tables(self, args_ptr: int) -> int:
        """Run ``bg_local_cut_tables`` on a filled args block (nonzero: failed)."""
        return self._lib.bg_local_cut_tables(args_ptr)

    def snapshot_cut_tables(self, args_ptr: int) -> int:
        """Run ``bg_snapshot_cut_tables`` on a filled args block (nonzero: failed)."""
        return self._lib.bg_snapshot_cut_tables(args_ptr)

    def rewrite_scan(self, args_ptr: int) -> int:
        """Run ``bg_rewrite_scan`` on a filled args block: entries needed, or -1."""
        return self._lib.bg_rewrite_scan(args_ptr)

    def refactor_cut_tables(self, args_ptr: int) -> int:
        """Run ``bg_refactor_cut_tables`` on a filled args block (nonzero: failed)."""
        return self._lib.bg_refactor_cut_tables(args_ptr)

    def resub_scan(self, args_ptr: int) -> int:
        """Run ``bg_resub_scan`` on a filled args block: entries needed, or < 0."""
        return self._lib.bg_resub_scan(args_ptr)

    def factored_fragment(self, table: bytes, num_vars: int, out, capacity: int) -> int:
        """Run ``bg_factored_fragment`` on a table's words: nodes needed, or -1."""
        return self._lib.bg_factored_fragment(table, num_vars, out, capacity)


#: Cached engine resolution: (kernels-or-None, reason).  Keyed by the cache
#: directory so tests overriding BOOLGEBRA_NATIVE_CACHE get a fresh probe.
_ENGINE: Optional[Tuple[Optional[CcKernels], str, str]] = None
_ENGINE_LOCK = threading.Lock()


def load_engine() -> Tuple[Optional[CcKernels], str]:
    """Resolve the compiled engine once per process: cc, else None.

    Returns ``(kernels, reason)``; ``kernels`` is None when the library can
    be neither loaded nor built, and ``reason`` says why (surfaced through
    ``op_support()``).
    """
    global _ENGINE
    key = cache_dir()
    with _ENGINE_LOCK:
        if _ENGINE is not None and _ENGINE[2] == key:
            return _ENGINE[0], _ENGINE[1]
        kernels: Optional[CcKernels] = None
        reason = ""
        try:
            kernels = CcKernels(build_library())
        except Exception as error:
            reason = f"cc: {type(error).__name__}"
        _ENGINE = (kernels, reason, key)
        return kernels, reason


def reset_engine_cache() -> None:
    """Drop the cached engine resolution (tests overriding the environment)."""
    global _ENGINE
    with _ENGINE_LOCK:
        _ENGINE = None
