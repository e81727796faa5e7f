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
and the backend runs every op on the reference code.

Every kernel here is exact integer arithmetic (XOR/AND/popcount on uint64
words); no floating point is ever compiled, so bit-identity with the
reference backend is a property of the loop order, which mirrors
:class:`repro.backend.reference.ReferenceBackend` statement for statement.
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

import numpy as np

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

/* values[ids[r]] = (values[f0v[r]] ^ f0m[r]) & (values[f1v[r]] ^ f1m[r]),
 * one pass over the CSR level slice, no temporaries. */
void bg_simulate_level_step(
    uint64_t* values, int64_t num_words,
    const int64_t* ids, const int64_t* f0v, const uint64_t* f0m,
    const int64_t* f1v, const uint64_t* f1m, int64_t n)
{
    for (int64_t row = 0; row < n; row++) {
        uint64_t* dst = values + ids[row] * num_words;
        const uint64_t* a = values + f0v[row] * num_words;
        const uint64_t* b = values + f1v[row] * num_words;
        uint64_t m0 = f0m[row];
        uint64_t m1 = f1m[row];
        for (int64_t w = 0; w < num_words; w++)
            dst[w] = (a[w] ^ m0) & (b[w] ^ m1);
    }
}

/* Row-major (row, a, b) triples with popcount(sig0[row,a] | sig1[row,b])
 * <= k — the same C order np.nonzero(feasible) yields. */
int64_t bg_cut_merge_filter(
    const uint64_t* sig0, const uint64_t* sig1,
    int64_t rows, int64_t width, int64_t k,
    int64_t* out_row, int64_t* out_a, int64_t* out_b)
{
    int64_t count = 0;
    for (int64_t row = 0; row < rows; row++) {
        const uint64_t* s0 = sig0 + row * width;
        const uint64_t* s1 = sig1 + row * width;
        for (int64_t a = 0; a < width; a++) {
            uint64_t sa = s0[a];
            for (int64_t b = 0; b < width; b++) {
                if (BG_POPCOUNT(sa | s1[b]) <= k) {
                    out_row[count] = row;
                    out_a[count] = a;
                    out_b[count] = b;
                    count++;
                }
            }
        }
    }
    return count;
}

/* Exact cone walk: same monotone table fill as the Python reference, with
 * per-call freshness via an epoch-stamped scratch instead of a dict.
 * Returns nonzero when the pending stack would overflow (caller falls
 * back); tables/stamp are num_slots-sized scratch owned by the caller.
 *
 * All operands arrive through one int64 args block (pointers stored as
 * int64, mask as the two's-complement image of its uint64 value): the walk
 * is called tens of thousands of times per sweep and a 13-argument ctypes
 * call costs more than the walk itself, so the Python side keeps a
 * persistent block and only rewrites the four per-call slots.
 *
 * args: [0]=fanin0 [1]=fanin1 [2]=leaves [3]=leaf_tables [4]=tables
 *       [5]=stamp [6]=stack [7]=stack_cap [8]=root [9]=num_leaves
 *       [10]=mask [11]=epoch [12]=out (uint64*, receives the table) */
int bg_cut_table_exact(const int64_t* args)
{
    const int64_t* fanin0 = (const int64_t*)args[0];
    const int64_t* fanin1 = (const int64_t*)args[1];
    const int64_t* leaves = (const int64_t*)args[2];
    const uint64_t* leaf_tables = (const uint64_t*)args[3];
    uint64_t* tables = (uint64_t*)args[4];
    uint32_t* stamp = (uint32_t*)args[5];
    int64_t* stack = (int64_t*)args[6];
    int64_t stack_cap = args[7];
    int64_t root = args[8];
    int64_t num_leaves = args[9];
    uint64_t mask = (uint64_t)args[10];
    uint32_t epoch = (uint32_t)args[11];
    uint64_t* out = (uint64_t*)args[12];
    tables[0] = 0;
    stamp[0] = epoch;
    for (int64_t i = 0; i < num_leaves; i++) {
        tables[leaves[i]] = leaf_tables[i];
        stamp[leaves[i]] = epoch;
    }
    if (stamp[root] == epoch) {
        *out = tables[root];
        return 0;
    }
    int64_t sp = 0;
    stack[sp++] = root;
    while (sp > 0) {
        int64_t node = stack[sp - 1];
        int64_t f0 = fanin0[node];
        int64_t f1 = fanin1[node];
        int64_t v0 = f0 >> 1;
        int64_t v1 = f1 >> 1;
        int k0 = stamp[v0] == epoch;
        int k1 = stamp[v1] == epoch;
        if (k0 && k1) {
            uint64_t t0 = tables[v0];
            uint64_t t1 = tables[v1];
            if (f0 & 1) t0 ^= mask;
            if (f1 & 1) t1 ^= mask;
            tables[node] = t0 & t1;
            stamp[node] = epoch;
            sp--;
        } else {
            if (sp + 2 > stack_cap) return 1;
            if (!k0) stack[sp++] = v0;
            if (!k1) stack[sp++] = v1;
        }
    }
    *out = tables[root];
    return 0;
}

/* ---- Whole-level priority-cut merge --------------------------------- */

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

/* Merge the fanin cut lists of every node of one level into its stored
 * (non-trivial) cut list: the compiled form of the Python merge loop in
 * repro.aig.cuts (cut_merge_filter feasibility prefilter + _insert_cut),
 * replicated decision for decision — folded-signature popcount prefilter,
 * exact sorted-union, antichain maintenance (reject dominated inserts,
 * drop dominated stored cuts), and the priority limit with its
 * sorted-prefix state machine (capacity shortcut, bisect insert of a lone
 * appended tail, stable sort-and-truncate otherwise).  Any change to the
 * Python merge semantics must be applied here too, or the asserted
 * identity between the enumeration paths breaks.
 *
 * Cut lists arrive as padded per-row matrices: leaves[width][k] (each cut's
 * leaves sorted ascending), sizes[width], sigs[width], counts[row].  Rows
 * flagged in skip[] (memoized merges) are left empty for the caller to
 * fill.  Output rows use the same layout with capacity width >= limit + 1.
 */
void bg_cut_level_merge(
    const int64_t* l0, const int64_t* s0, const uint64_t* g0, const int64_t* n0,
    const int64_t* l1, const int64_t* s1, const uint64_t* g1, const int64_t* n1,
    const uint8_t* skip,
    int64_t count, int64_t width, int64_t k, int64_t limit,
    int64_t* out_l, int64_t* out_s, uint64_t* out_g, int64_t* out_n)
{
    for (int64_t row = 0; row < count; row++) {
        out_n[row] = 0;
        if (skip[row]) continue;
        const int64_t* row_l0 = l0 + row * width * k;
        const int64_t* row_s0 = s0 + row * width;
        const uint64_t* row_g0 = g0 + row * width;
        const int64_t* row_l1 = l1 + row * width * k;
        const int64_t* row_s1 = s1 + row * width;
        const uint64_t* row_g1 = g1 + row * width;
        int64_t* ol = out_l + row * width * k;
        int64_t* os = out_s + row * width;
        uint64_t* og = out_g + row * width;
        int64_t length = 0;
        int64_t sorted_len = 0;
        for (int64_t a = 0; a < n0[row]; a++) {
            const int64_t* la = row_l0 + a * k;
            int64_t sa = row_s0[a];
            uint64_t siga = row_g0[a];
            for (int64_t b = 0; b < n1[row]; b++) {
                uint64_t sig = siga | row_g1[b];
                if (BG_POPCOUNT(sig) > k) continue;
                const int64_t* lb = row_l1 + b * k;
                int64_t sb = row_s1[b];
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
        out_n[row] = length;
    }
}

/* min(popcount(t ^ target), popcount(t ^ target ^ mask)) per divisor —
 * the reference's similarity metric over packed multi-word tables. */
void bg_resub_similarity(
    const uint64_t* packed, const uint64_t* target, const uint64_t* mask,
    int64_t n, int64_t words, int64_t* out)
{
    for (int64_t i = 0; i < n; i++) {
        const uint64_t* t = packed + i * words;
        int64_t agree = 0;
        int64_t compl_agree = 0;
        for (int64_t w = 0; w < words; w++) {
            uint64_t delta = t[w] ^ target[w];
            agree += BG_POPCOUNT(delta);
            compl_agree += BG_POPCOUNT(delta ^ mask[w]);
        }
        out[i] = agree < compl_agree ? agree : compl_agree;
    }
}

/* First target == maybe_not(AND(+-a, +-b)) pair over ranked divisors, in
 * the reference's exact checking order: (i, j > i) row-major, complement
 * combinations FF/FT/TF/TT, direct output before complemented.  combo
 * encodes (compl_a << 2) | (compl_b << 1) | compl_out. */
int bg_resub_one_match(
    const uint64_t* packed, const uint64_t* target, const uint64_t* mask,
    int64_t n, int64_t words,
    int64_t* out)
{
    for (int64_t i = 0; i < n; i++) {
        const uint64_t* ta = packed + i * words;
        for (int64_t j = i + 1; j < n; j++) {
            const uint64_t* tb = packed + j * words;
            for (int ca = 0; ca < 2; ca++) {
                for (int cb = 0; cb < 2; cb++) {
                    int direct_ok = 1;
                    int inverted_ok = 1;
                    for (int64_t w = 0; w < words; w++) {
                        uint64_t a = ca ? ta[w] ^ mask[w] : ta[w];
                        uint64_t b = cb ? tb[w] ^ mask[w] : tb[w];
                        uint64_t conj = a & b;
                        if (conj != target[w]) direct_ok = 0;
                        if ((conj ^ mask[w]) != target[w]) inverted_ok = 0;
                        if (!direct_ok && !inverted_ok) break;
                    }
                    if (direct_ok) {
                        out[0] = i; out[1] = j; out[2] = (ca << 2) | (cb << 1);
                        return 1;
                    }
                    if (inverted_ok) {
                        out[0] = i; out[1] = j; out[2] = (ca << 2) | (cb << 1) | 1;
                        return 1;
                    }
                }
            }
        }
    }
    return 0;
}

/* Dirty-bitmap conflict screen of the sweep-commit loop. */
int bg_bitmap_any(const uint8_t* bitmap, const int64_t* idx, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (bitmap[idx[i]]) return 1;
    return 0;
}

void bg_bitmap_mark(uint8_t* bitmap, const int64_t* idx, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        bitmap[idx[i]] = 1;
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


def _as_signed_word(value: int) -> int:
    """The int64 two's-complement image of a uint64 value (bit-identical).

    The packed args block of the cone walk is one int64 array; masks like
    the 6-variable ``2**64 - 1`` exceed int64 range, so they travel as
    their signed bit pattern and the C side casts straight back.
    """
    return value - 0x10000000000000000 if value >= 0x8000000000000000 else value


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

    Thin and policy-free: every method assumes the backend already checked
    dtypes, contiguity and profitability.  Arrays are passed as raw data
    pointers (the caller keeps them alive across the call).
    """

    engine = "cc"

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        lib.bg_simulate_level_step.argtypes = [ptr, i64, ptr, ptr, ptr, ptr, ptr, i64]
        lib.bg_simulate_level_step.restype = None
        lib.bg_cut_merge_filter.argtypes = [ptr, ptr, i64, i64, i64, ptr, ptr, ptr]
        lib.bg_cut_merge_filter.restype = i64
        lib.bg_cut_table_exact.argtypes = [ptr]
        lib.bg_cut_table_exact.restype = ctypes.c_int
        lib.bg_cut_level_merge.argtypes = [
            ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
            i64, i64, i64, i64, ptr, ptr, ptr, ptr,
        ]
        lib.bg_cut_level_merge.restype = None
        lib.bg_resub_similarity.argtypes = [ptr, ptr, ptr, i64, i64, ptr]
        lib.bg_resub_similarity.restype = None
        lib.bg_resub_one_match.argtypes = [ptr, ptr, ptr, i64, i64, ptr]
        lib.bg_resub_one_match.restype = ctypes.c_int
        lib.bg_bitmap_any.argtypes = [ptr, ptr, i64]
        lib.bg_bitmap_any.restype = ctypes.c_int
        lib.bg_bitmap_mark.argtypes = [ptr, ptr, i64]
        lib.bg_bitmap_mark.restype = None
        self._lib = lib
        # Prebound function objects: the hot wrappers skip two attribute
        # lookups per call, which matters at cone-walk call rates.
        self._fn_simulate = lib.bg_simulate_level_step
        self._fn_merge = lib.bg_cut_merge_filter
        self._fn_cone = lib.bg_cut_table_exact
        self._fn_level_merge = lib.bg_cut_level_merge
        self._fn_similarity = lib.bg_resub_similarity
        self._fn_one_match = lib.bg_resub_one_match
        self._fn_bitmap_any = lib.bg_bitmap_any
        self._fn_bitmap_mark = lib.bg_bitmap_mark
        self.path = path

    def simulate_level_step(self, values, ids, f0v, f0m, f1v, f1m) -> None:
        self._fn_simulate(
            values.ctypes.data,
            values.shape[1],
            ids.ctypes.data,
            f0v.ctypes.data,
            f0m.ctypes.data,
            f1v.ctypes.data,
            f1m.ctypes.data,
            ids.shape[0],
        )

    def cut_merge_filter(self, sig0, sig1, k) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, width = sig0.shape
        capacity = rows * width * width
        out_row = np.empty(capacity, np.int64)
        out_a = np.empty(capacity, np.int64)
        out_b = np.empty(capacity, np.int64)
        count = self._fn_merge(
            sig0.ctypes.data,
            sig1.ctypes.data,
            rows,
            width,
            int(k),
            out_row.ctypes.data,
            out_a.ctypes.data,
            out_b.ctypes.data,
        )
        return out_row[:count], out_a[:count], out_b[:count]

    @staticmethod
    def _cone_args(fanin0, fanin1, leaves, tables, stamp, stack, out) -> np.ndarray:
        args = np.zeros(13, np.int64)
        args[0] = fanin0.ctypes.data
        args[1] = fanin1.ctypes.data
        args[2] = leaves.ctypes.data
        args[4] = tables.ctypes.data
        args[5] = stamp.ctypes.data
        args[6] = stack.ctypes.data
        args[7] = stack.shape[0]
        args[12] = out.ctypes.data
        return args

    def cone_walker(self, fanin0, fanin1, leaves, tables, stamp, stack, out):
        """A closure over ``bg_cut_table_exact`` with every stable pointer
        pre-resolved into a persistent args block.

        The ``.ctypes`` property allocates an interface object per access
        and a many-argument ctypes call marshals each operand separately;
        at ~40k cone walks per sweep that overhead dwarfs the walk itself.
        So the per-snapshot scratch arrays are resolved to raw pointers
        exactly once, and each call rewrites only the four per-call slots
        of the args block.  The caller owns the arrays (and must keep them
        alive by holding this walker alongside them), fills ``leaves`` in
        place before each call, and passes the process-cached per-arity
        leaf-table array with its per-arity mask, both memoised by the
        array's identity.
        """
        fn = self._fn_cone
        args = self._cone_args(fanin0, fanin1, leaves, tables, stamp, stack, out)
        args_ptr = args.ctypes.data
        arity_cache = {}

        def walk(root, num_leaves, leaf_tables, mask, epoch):
            cached = arity_cache.get(num_leaves)
            if cached is None or cached[0] is not leaf_tables:
                cached = (leaf_tables, leaf_tables.ctypes.data, _as_signed_word(mask))
                arity_cache[num_leaves] = cached
            args[3] = cached[1]
            args[8] = root
            args[9] = num_leaves
            args[10] = cached[2]
            args[11] = epoch
            err = fn(args_ptr)
            return err, int(out[0])

        return walk

    def cut_level_merge(
        self, l0, s0, g0, n0, l1, s1, g1, n1, skip, k, limit, out_l, out_s, out_g, out_n
    ) -> None:
        count, width = s0.shape
        self._fn_level_merge(
            l0.ctypes.data,
            s0.ctypes.data,
            g0.ctypes.data,
            n0.ctypes.data,
            l1.ctypes.data,
            s1.ctypes.data,
            g1.ctypes.data,
            n1.ctypes.data,
            skip.ctypes.data,
            count,
            width,
            int(k),
            int(limit),
            out_l.ctypes.data,
            out_s.ctypes.data,
            out_g.ctypes.data,
            out_n.ctypes.data,
        )

    def resub_similarity(self, packed, target, mask) -> np.ndarray:
        n, words = packed.shape
        out = np.empty(n, np.int64)
        self._fn_similarity(
            packed.ctypes.data,
            target.ctypes.data,
            mask.ctypes.data,
            n,
            words,
            out.ctypes.data,
        )
        return out

    def resub_one_match(self, packed, target, mask) -> Optional[Tuple[int, int, int]]:
        n, words = packed.shape
        out = np.empty(3, np.int64)
        found = self._fn_one_match(
            packed.ctypes.data,
            target.ctypes.data,
            mask.ctypes.data,
            n,
            words,
            out.ctypes.data,
        )
        if not found:
            return None
        return int(out[0]), int(out[1]), int(out[2])

    def bitmap_any(self, bitmap, idx) -> bool:
        return bool(
            self._fn_bitmap_any(bitmap.ctypes.data, idx.ctypes.data, idx.shape[0])
        )

    def bitmap_mark(self, bitmap, idx) -> None:
        self._fn_bitmap_mark(bitmap.ctypes.data, idx.ctypes.data, idx.shape[0])


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
