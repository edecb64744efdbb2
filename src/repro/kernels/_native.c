/* Native kernels for the inner loops that dominate every benchmark:
 * the router's tree commit and synchronized hop loop
 * (sim/engine/batch.py), the builder's thresholded frontier sweep
 * and cluster-tree pass (core/build/vectorized.py), the compile
 * pass that writes the entry records and label bits
 * (sim/engine/compile.py), and the passes a patch makes over every
 * entry: the splice (core/build/patch.py) and the derived structures
 * of assemble_arrays (core/build/arrays.py).
 *
 * Deliberately plain C99 + libc (and POSIX mmap), no Python.h: the
 * library is loaded through ctypes, so a bare `cc -O3 -fPIC -shared`
 * against the system toolchain is the whole build and no Python
 * development headers are needed.  All array arguments are raw pointers into numpy buffers:
 * per-call columns the wrappers pin as contiguous int64/float64/uint8,
 * and the compiled scheme's own columns, which its construction check
 * guarantees to be contiguous int64 or exactly the record layouts below.
 * No kernel keeps global state, so threads may run any of them at once
 * on disjoint output rows (ctypes releases the GIL for the call).
 *
 * All kernels replicate the numpy reference paths bit-for-bit:
 *
 * - tz_commit resolves each row's committed tree with the same 4k-5
 *   level order or section-4 handshake alternation as the numpy
 *   select_trees / select_trees_handshake.  Every lookup there is an
 *   exact-key searchsorted, so any search that finds the same unique
 *   key returns the same entry index.
 * - tz_hop_loop walks each row independently.  The numpy loop advances
 *   all rows one synchronized hop per array step, but weight accumulates
 *   per row in hop order either way, so a scalar walk sums the exact
 *   same float64 values in the exact same order.
 * - tz_frontier_sweep runs a FIFO label-correcting (SPFA-style) pass
 *   per center over an adjacency copy pre-sorted by a conservative
 *   per-arc relax bound.  IEEE addition is monotone for the positive
 *   weights the builder feeds it, so every convergent relaxation
 *   schedule — Dijkstra, the numpy synchronized sweep, or this FIFO
 *   queue — reaches the identical least fixpoint, value by value, and
 *   the strict `nd < thr[v]` prune admits exactly the same pairs.
 * - tz_cluster_trees computes each SPT parent from the same float64 sum
 *   d(w,u) + wt and exact equality as the numpy tight-arc sweep (the
 *   arc's weight is stored once per edge, addition commutes), takes the
 *   same minimum id, and orders children by the same distinct
 *   (-size, id) key as the numpy lexsort; everything after that is
 *   integer arithmetic.
 * - tz_compile_records copies each resolved step record as it lies and
 *   links each neighbour by an exact-key lookup on strictly ascending
 *   keys, where a checked hint, a slice search and numpy's global
 *   searchsorted can only name the same unique entry.  Its label bits
 *   are integer sums of the same bit lengths numpy reads off frexp.
 * - tz_splice copies rows and adds the same integer shifts as the
 *   numpy splice; the assemble passes make the same comparisons as
 *   numpy's masks, find the same unique keys as its searchsorted, and a
 *   stable counting sort orders entries as a stable argsort does.
 *
 * The hop loop is memory-latency-bound (every hop gathers from tables
 * far larger than cache), so it interleaves a block of rows and issues
 * a software prefetch for each row's next record while the other rows
 * advance — the same memory-level parallelism the numpy gathers get
 * from vectorization, without the per-round array traffic.  Entry
 * records are one struct per entry — the layout the scheme is compiled
 * into and stored in, read here where it lies, memory-mapped or not —
 * so a hop touches two cache lines instead of thirteen columns, and the
 * record lookup after a light-port crossing binary-searches only the
 * committed tree's entry slice, not the global key table.
 */

#define _GNU_SOURCE /* mremap */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(p) __builtin_prefetch((const void *)(p))
#else
#define PREFETCH(p) ((void)(p))
#endif

/* Failure codes: keep in sync with repro.sim.engine.batch.FAIL_*. */
#define FAIL_NONE 0
#define FAIL_NO_TREE 1
#define FAIL_NO_RECORD 2
#define FAIL_ROOT_EXIT 3
#define FAIL_LABEL 4
#define FAIL_PORT 5
#define FAIL_DEAD_LINK 6
#define FAIL_TTL 7

/* Entry-position sentinel: crossed into a vertex with no record. */
#define LOST (-2)

/* ------------------------------------------------------------------ */
/* Router hop loop                                                     */
/* ------------------------------------------------------------------ */

/* One tree entry: field order and widths must match ENT_DTYPE in
 * repro/sim/engine/compile.py exactly (13 × 8 bytes, no padding).  Its
 * key lives in the separate dense key array, which searches read. */
typedef struct {
    int64_t vertex;
    int64_t f;           /* DFS number */
    int64_t finish;
    int64_t heavy_finish;
    int64_t light_depth;
    int64_t parent_epos;
    double parent_wt;
    int64_t parent_edge;
    int64_t parent_next;
    int64_t heavy_epos;
    double heavy_wt;
    int64_t heavy_edge;
    int64_t heavy_next;
} ent_rec;

/* One half-arc of the ported graph: matches STEP_DTYPE in compile.py. */
typedef struct {
    int64_t next;
    int64_t edge;
    double wt;
} step_rec;

/* Lower-bound search for `key` inside the sorted key slice [lo, hi). */
static int64_t find_key(const int64_t *keys, int64_t lo, int64_t hi,
                        int64_t key)
{
    const int64_t end = hi;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (keys[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return (lo < end && keys[lo] == key) ? lo : -1;
}

/* Interleaving width: enough in-flight rows to keep the memory system
 * saturated with independent loads, small enough that all slot state
 * stays in registers/L1. */
#define HOP_BATCH 64

/* Walk every committed row to its outcome.  Returns the number of
 * synchronized rounds the numpy loop would have executed (the maximum
 * over rows of the iteration count while that row was in flight), which
 * feeds the route.hop_iterations counter.  `fail` is read for rows that
 * failed at commit time (skipped) and written with the outcome code. */
int64_t tz_hop_loop(
    int64_t count,
    const int64_t *start,            /* committed source entry per row */
    const int64_t *dst_e,            /* destination entry per row */
    const int64_t *dst_v,            /* destination vertex per row */
    const int64_t *target_f,         /* destination DFS number */
    const int64_t *tree,             /* committed tree root */
    const int64_t *lp_lo,            /* light-port slice bounds */
    const int64_t *lp_hi,
    uint8_t *delivered,              /* out (count) */
    double *weight,                  /* out (count) */
    int64_t *hops,                   /* out (count) */
    int8_t *fail,                    /* in/out (count) */
    int64_t n,
    const ent_rec *ent,              /* (E) entry records */
    const int64_t *keys,             /* (E) sorted entry keys */
    const int64_t *tree_indptr,      /* (n+1) entry slice per tree root */
    const int64_t *lp_data,
    const int64_t *g_indptr,
    const step_rec *step,            /* (2m) half-arc records */
    const uint8_t *dead_masks,       /* NULL or (T, mask_width) row-major */
    const int64_t *trial,            /* NULL or per-row trial index */
    int64_t mask_width,
    int64_t ttl)
{
    int64_t s_row[HOP_BATCH], s_cur[HOP_BATCH], s_lost[HOP_BATCH];
    int64_t s_h[HOP_BATCH], s_it[HOP_BATCH], s_de[HOP_BATCH];
    int64_t s_dv[HOP_BATCH], s_tf[HOP_BATCH], s_lo[HOP_BATCH];
    int64_t s_hi[HOP_BATCH], s_tlo[HOP_BATCH], s_thi[HOP_BATCH];
    int64_t s_key[HOP_BATCH];
    double s_w[HOP_BATCH];
    const uint8_t *s_mask[HOP_BATCH];
    int64_t rounds = 0, next_row = 0;
    int nslots = 0;

#define SLOT_LOAD(s)                                                     \
    do {                                                                 \
        int64_t row_ = -1;                                               \
        while (next_row < count) {                                       \
            int64_t i_ = next_row++;                                     \
            if (fail[i_] == FAIL_NONE) {                                 \
                row_ = i_;                                               \
                break;                                                   \
            }                                                            \
        }                                                                \
        if (row_ < 0) {                                                  \
            s_row[s] = -1;                                               \
        } else {                                                         \
            const int64_t tr_ = tree[row_];                              \
            s_row[s] = row_;                                             \
            s_cur[s] = start[row_];                                      \
            s_lost[s] = -1;                                              \
            s_h[s] = 0;                                                  \
            s_it[s] = 0;                                                 \
            s_w[s] = 0.0;                                                \
            s_de[s] = dst_e[row_];                                       \
            s_dv[s] = dst_v[row_];                                       \
            s_tf[s] = target_f[row_];                                    \
            s_lo[s] = lp_lo[row_];                                       \
            s_hi[s] = lp_hi[row_];                                       \
            s_tlo[s] = tr_ >= 0 ? tree_indptr[tr_] : 0;                  \
            s_thi[s] = tr_ >= 0 ? tree_indptr[tr_ + 1] : 0;              \
            s_key[s] = tr_ >= 0 ? tr_ * n : 0;                           \
            s_mask[s] =                                                  \
                dead_masks ? dead_masks + trial[row_] * mask_width : 0;  \
            if (s_cur[s] >= 0) {                                         \
                PREFETCH(&ent[s_cur[s]]);                                \
                PREFETCH((const char *)&ent[s_cur[s]] + 64);             \
            }                                                            \
        }                                                                \
    } while (0)

    for (int s = 0; s < HOP_BATCH; s++) {
        SLOT_LOAD(s);
        if (s_row[s] < 0)
            break;
        nslots++;
    }

    while (nslots) {
        for (int s = 0; s < nslots;) {
            const int64_t cur = s_cur[s];
            int8_t code = FAIL_NONE;
            uint8_t del = 0;
            int retire = 0;
            int64_t alive = 0;
            if (s_it[s] >= ttl) {
                /* survived every round: loop */
                code = FAIL_TTL;
                retire = 1;
                alive = ttl;
            } else if (cur == s_de[s] ||
                       (cur == LOST && s_lost[s] == s_dv[s])) {
                /* arrival first, exactly as the reference decide: entry
                 * equality, or a recordless message that landed on the
                 * destination vertex itself */
                del = 1;
                retire = 1;
                alive = s_it[s] + 1;
            } else if (cur == LOST) {
                code = FAIL_NO_RECORD;
                retire = 1;
                alive = s_it[s] + 1;
            } else {
                const ent_rec *r = &ent[cur];
                const int64_t tf = s_tf[s];
                const int64_t rec_f = r->f;
                int64_t nxt = -1, edge = -1, new_lost = -1;
                double wt = 0.0;
                if (tf < rec_f || tf > r->finish) {
                    /* outside the record's DFS interval: up to parent */
                    nxt = r->parent_epos;
                    wt = r->parent_wt;
                    edge = r->parent_edge;
                    if (nxt == -1)
                        code = FAIL_ROOT_EXIT;
                    else if (nxt == LOST)
                        new_lost = r->parent_next;
                } else if (tf >= rec_f + 1 && tf <= r->heavy_finish) {
                    /* inside the heavy child's interval */
                    nxt = r->heavy_epos;
                    wt = r->heavy_wt;
                    edge = r->heavy_edge;
                    if (nxt == -1)
                        code = FAIL_PORT;
                    else if (nxt == LOST)
                        new_lost = r->heavy_next;
                } else {
                    /* light child: next port from the destination label */
                    const int64_t lp_pos = s_lo[s] + r->light_depth;
                    if (lp_pos >= s_hi[s]) {
                        code = FAIL_LABEL;
                    } else {
                        const int64_t port = lp_data[lp_pos];
                        const int64_t at = r->vertex;
                        const int64_t sp = g_indptr[at] + port - 1;
                        if (port < 1 || sp >= g_indptr[at + 1]) {
                            code = FAIL_PORT;
                        } else {
                            const step_rec *st = &step[sp];
                            const int64_t landed = st->next;
                            /* A tree whose slice holds all n vertices
                             * (a top-level landmark tree — the common
                             * commit for far pairs) indexes directly:
                             * slice keys are tr*n + 0..n-1 in order. */
                            const int64_t pos =
                                s_thi[s] - s_tlo[s] == n
                                    ? s_tlo[s] + landed
                                    : find_key(keys, s_tlo[s], s_thi[s],
                                               s_key[s] + landed);
                            if (pos >= 0) {
                                nxt = pos;
                            } else {
                                nxt = LOST;
                                new_lost = landed;
                            }
                            wt = st->wt;
                            edge = st->edge;
                        }
                    }
                }
                if (code != FAIL_NONE) {
                    retire = 1;
                    alive = s_it[s] + 1;
                } else if (s_mask[s] && edge >= 0 && s_mask[s][edge]) {
                    code = FAIL_DEAD_LINK;
                    retire = 1;
                    alive = s_it[s] + 1;
                } else {
                    s_w[s] += wt;
                    s_h[s] += 1;
                    s_cur[s] = nxt;
                    s_lost[s] = new_lost;
                    s_it[s] += 1;
                    if (nxt >= 0) {
                        PREFETCH(&ent[nxt]);
                        PREFETCH((const char *)&ent[nxt] + 64);
                    }
                }
            }
            if (retire) {
                const int64_t i = s_row[s];
                delivered[i] = del;
                weight[i] = s_w[s];
                hops[i] = s_h[s];
                if (!del)
                    fail[i] = code;
                if (alive > rounds)
                    rounds = alive;
                SLOT_LOAD(s);
                if (s_row[s] >= 0) {
                    s++;
                } else {
                    nslots--;
                    if (s < nslots) { /* compact: steal the last slot */
                        s_row[s] = s_row[nslots];
                        s_cur[s] = s_cur[nslots];
                        s_lost[s] = s_lost[nslots];
                        s_h[s] = s_h[nslots];
                        s_it[s] = s_it[nslots];
                        s_w[s] = s_w[nslots];
                        s_de[s] = s_de[nslots];
                        s_dv[s] = s_dv[nslots];
                        s_tf[s] = s_tf[nslots];
                        s_lo[s] = s_lo[nslots];
                        s_hi[s] = s_hi[nslots];
                        s_tlo[s] = s_tlo[nslots];
                        s_thi[s] = s_thi[nslots];
                        s_key[s] = s_key[nslots];
                        s_mask[s] = s_mask[nslots];
                    }
                }
            } else {
                s++;
            }
        }
    }
#undef SLOT_LOAD
    return rounds;
}

/* ------------------------------------------------------------------ */
/* Router tree commit                                                  */
/* ------------------------------------------------------------------ */

/* Entry index of (tree w, vertex v), or -1 when v has no record in T_w.
 * Only T_w's slice is searched; a slice holding all n vertices is
 * indexed directly, as in tz_hop_loop.  A w outside [0, n) names no
 * tree (its keys could not be in the table either). */
static int64_t tree_entry(const int64_t *keys, const int64_t *tree_indptr,
                          int64_t n, int64_t w, int64_t v)
{
    if (w < 0 || w >= n)
        return -1;
    const int64_t lo = tree_indptr[w], hi = tree_indptr[w + 1];
    if (hi - lo == n)
        return lo + v;
    return find_key(keys, lo, hi, w * n + v);
}

/* Commit every row to a tree and write the eight columns the numpy
 * BatchRouter._commit returns.  Trivial rows (s == t) and rows with no
 * usable tree get the same defaults as the numpy path. */
void tz_commit(
    int64_t count,
    const int64_t *src,
    const int64_t *dst,
    int8_t *fail,                    /* out (count), and the 7 below */
    int64_t *tree,
    int64_t *header,
    int64_t *dest_f,
    int64_t *lp_lo,
    int64_t *lp_hi,
    int64_t *epos_src,
    int64_t *epos_dst,
    int64_t n,
    int64_t k,
    int64_t id_bits,
    int64_t handshake,
    const ent_rec *ent,              /* (E) entry records (for f) */
    const int64_t *keys,             /* (E) sorted entry keys */
    const int64_t *tree_indptr,      /* (n+1) entry slice per tree root */
    const int64_t *label_bits,       /* (E) tree-label bits per entry */
    const int64_t *lp_indptr,        /* (E+1) light-port CSR */
    const int64_t *mem_keys,         /* (M) sorted source*n + member */
    const int64_t *mem_epos,         /* (M) entry of (source, member) */
    const int64_t *mem_indptr,       /* (n+1) member-map slice per source */
    const int64_t *root_epos,        /* (n) entry of (v, v) */
    const int64_t *pivot)            /* (k, n) row-major */
{
    for (int64_t i = 0; i < count; i++) {
        const int64_t s = src[i], t = dst[i];
        int64_t w = -1, ep = -1, sp = -1;
        if (s == t) {
            /* trivial: no tree, both entries share a sentinel */
        } else if (handshake) {
            /* start at T_s; while the passive endpoint has no record,
             * swap roles and move to the active one's next pivot */
            int64_t x = s, y = t, cw = s;
            int found = tree_entry(keys, tree_indptr, n, cw, y) >= 0;
            for (int64_t level = 1; !found && level < k; level++) {
                const int64_t tmp = x;
                x = y;
                y = tmp;
                cw = pivot[level * n + x];
                found = tree_entry(keys, tree_indptr, n, cw, y) >= 0;
            }
            if (found) {
                ep = tree_entry(keys, tree_indptr, n, cw, t);
                sp = tree_entry(keys, tree_indptr, n, cw, s);
                if (ep >= 0 && sp >= 0)
                    w = cw;
            }
        } else {
            /* level 0: the destination is in the source's own cluster */
            const int64_t j =
                find_key(mem_keys, mem_indptr[s], mem_indptr[s + 1], s * n + t);
            if (j >= 0) {
                w = s;
                ep = mem_epos[j];
                sp = root_epos[s];
            } else {
                /* levels 1..k-1: the first pivot tree holding the
                 * source decides; a missing destination record there
                 * fails the row */
                for (int64_t level = 1; level < k; level++) {
                    const int64_t cw = pivot[level * n + t];
                    const int64_t spos = tree_entry(keys, tree_indptr, n, cw, s);
                    if (spos < 0)
                        continue;
                    const int64_t dpos = tree_entry(keys, tree_indptr, n, cw, t);
                    if (dpos >= 0) {
                        w = cw;
                        ep = dpos;
                        sp = spos;
                    }
                    break;
                }
            }
        }
        tree[i] = w;
        if (w >= 0) {
            fail[i] = FAIL_NONE;
            header[i] = 2 * id_bits + label_bits[ep];
            dest_f[i] = ent[ep].f;
            lp_lo[i] = lp_indptr[ep];
            lp_hi[i] = lp_indptr[ep + 1];
            epos_src[i] = sp;
            epos_dst[i] = ep;
        } else {
            fail[i] = s == t ? FAIL_NONE : FAIL_NO_TREE;
            header[i] = 2 * id_bits;
            dest_f[i] = 0;
            lp_lo[i] = 0;
            lp_hi[i] = 0;
            epos_src[i] = -7;
            epos_dst[i] = -7;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Builder frontier sweep                                              */
/* ------------------------------------------------------------------ */

/* One arc of the lim-sorted adjacency copy.  `lim` is a conservative
 * upper bound on any settled distance du that could still pass the
 * prune through this arc: fl(du + wt) < thr[v] implies (with u the
 * unit roundoff) du < thr[v]*(1+2u) - wt, and `lim` is computed one
 * multiply and two ulp-bumps above that, so `du > lim` proves the arc
 * (and, with arcs sorted by lim descending, every later arc of the
 * vertex) cannot relax.  False positives are harmless — the exact IEEE
 * comparison still guards the relax itself. */
typedef struct {
    double lim;
    int64_t v;
    double wt;
} parc;

/* nextafter(x, +inf) by bit-twiddling: the lim build calls this twice
 * per arc and libm's nextafter is an order of magnitude slower. */
static inline double up_ulp(double x)
{
    union {
        double d;
        uint64_t b;
    } u;
    u.d = x;
    if (u.b == 0x8000000000000000ULL)
        u.b = 1; /* -0 -> smallest positive subnormal */
    else if (u.b >> 63)
        u.b--; /* negative: toward zero */
    else if (u.d != (double)(1.0 / 0.0))
        u.b++; /* positive finite (and NaN stays NaN-ish; thr has none) */
    return u.d;
}

/* Sort one center's settled vertex ids ascending (ids are distinct).
 * Hand-rolled quicksort + insertion sort over bare int64 — qsort's
 * indirect comparator calls dominate the sweep at small slice sizes,
 * and sorting 8-byte ids (then gathering distances from the per-vertex
 * state, still cache-hot) moves half the bytes of sorting key/distance
 * pairs. */
static void sort_ids(int64_t *a, int64_t len)
{
    while (len > 24) {
        /* median-of-3 pivot */
        int64_t mid = len >> 1;
        int64_t p = a[0], q = a[mid], r = a[len - 1];
        int64_t piv = p < q ? (q < r ? q : (p < r ? r : p))
                            : (p < r ? p : (q < r ? r : q));
        int64_t i = 0, j = len - 1;
        for (;;) {
            while (a[i] < piv)
                i++;
            while (a[j] > piv)
                j--;
            if (i >= j)
                break;
            int64_t t = a[i];
            a[i] = a[j];
            a[j] = t;
            i++;
            j--;
        }
        /* recurse into the smaller side, loop on the larger */
        if (j + 1 < len - j - 1) {
            sort_ids(a, j + 1);
            a += j + 1;
            len -= j + 1;
        } else {
            sort_ids(a + j + 1, len - j - 1);
            len = j + 1;
        }
    }
    for (int64_t i = 1; i < len; i++) {
        int64_t t = a[i];
        int64_t j = i;
        while (j > 0 && a[j - 1] > t) {
            a[j] = a[j - 1];
            j--;
        }
        a[j] = t;
    }
}

/* Buffers of the frontier sweep come straight from the OS, with their
 * mapping length in a 64-byte header.  They are the largest a pool
 * worker allocates (the outputs grow to megabytes per level), and
 * glibc's malloc gives each thread an arena that keeps freed pages for
 * reuse: one such reserve per worker, on top of the caller's, raised
 * churn's peak RSS by 12-18 MB.  mmap/munmap hands every page back.
 * malloc_trim(0) after each free gave back as much but made churn
 * epochs ~10% slower: it trims every arena, the caller's too, whose
 * freed pages numpy then faults in again. */
#define OS_HEAD 64

static void *os_alloc(size_t bytes)
{
    const size_t len = bytes + OS_HEAD;
    char *p = mmap(NULL, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        return NULL;
    *(size_t *)p = len;
    return p + OS_HEAD;
}

static void os_free(void *q)
{
    if (q) {
        char *p = (char *)q - OS_HEAD;
        munmap(p, *(size_t *)p);
    }
}

/* q grown to `bytes` with its first `keep` bytes (q itself is then
 * gone), or NULL with q untouched.  Linux moves the pages (mremap), so
 * growth neither copies nor holds both buffers at once; elsewhere a
 * fresh buffer takes a copy. */
static void *os_grow(void *q, size_t keep, size_t bytes)
{
    if (!q)
        return os_alloc(bytes);
#ifdef __linux__
    char *p = (char *)q - OS_HEAD;
    const size_t len = bytes + OS_HEAD;
    char *r = mremap(p, *(size_t *)p, len, MREMAP_MAYMOVE);
    if (r == MAP_FAILED)
        return NULL;
    *(size_t *)r = len;
    (void)keep;
    return r + OS_HEAD;
#else
    void *r = os_alloc(bytes);
    if (r && keep)
        memcpy(r, q, keep);
    if (r)
        os_free(q);
    return r;
#endif
}

/* Lim-sorted adjacency of vertices [lo, hi): arcs[indptr[u] ..
 * indptr[u+1]) holds u's arcs sorted by lim descending.  thr is shared
 * by every center of a level, so one copy serves the whole level's
 * sweep, and vertex ranges fill it independently.  Degrees are small
 * (insertion sort beats anything with setup cost) and an inf threshold
 * yields lim = inf, which never triggers the sweep's break. */
void tz_frontier_arcs(
    int64_t lo,
    int64_t hi,
    const int64_t *indptr,
    const int64_t *adj,
    const double *wts,
    const double *thr,
    parc *arcs)                      /* out: rows indptr[lo] .. indptr[hi] */
{
    for (int64_t u = lo; u < hi; u++) {
        const int64_t a0 = indptr[u], a1 = indptr[u + 1];
        for (int64_t a = a0; a < a1; a++) {
            const double x = thr[adj[a]] * (1.0 + 4.0 * DBL_EPSILON);
            parc p;
            p.lim = up_ulp(up_ulp(x - wts[a]));
            p.v = adj[a];
            p.wt = wts[a];
            int64_t j = a;
            while (j > a0 && arcs[j - 1].lim < p.lim) {
                arcs[j] = arcs[j - 1];
                j--;
            }
            arcs[j] = p;
        }
    }
}

/* Thresholded shortest paths from every center; emits the same sorted
 * (center * n + vertex, distance) state the numpy sweep converges to.
 * Per center this runs FIFO label-correcting (SPFA) rather than a
 * heap: for positive weights any convergent relaxation schedule
 * reaches the same least fixpoint value-by-value under IEEE rounding,
 * and dropping the heap removes the serial pop/sift dependency chain
 * that dominates a one-settle-at-a-time loop.  It scans the
 * tz_frontier_arcs copy, whose per-vertex slices are sorted by the
 * conservative relax bound `lim` descending, so each scan breaks at
 * the first arc the settled distance can no longer pass — on
 * thresholded cluster levels that skips roughly two-thirds of the arc
 * volume.  Each call keeps its own per-vertex state, so threads may
 * sweep disjoint center ranges over one arc copy at once.
 * `centers` must be sorted ascending so the concatenated per-center
 * slices come out globally key-sorted.  Returns the pair count (the
 * caller copies out of *out_keys / *out_dist and frees both through
 * tz_free), or -1 on allocation failure.  stats[0] collects emitted
 * settles, stats[1] scanned-vertex arc degrees. */
/* All per-vertex sweep state on one cache line per vertex: the relax
 * loop's random accesses (threshold, epoch stamps, tentative distance)
 * then cost one line touch instead of four array touches. */
typedef struct {
    int64_t stamp; /* epoch of the last tentative distance */
    int64_t done;  /* epoch of settlement */
    double dist;   /* tentative distance (valid when stamp matches) */
    double thr;    /* strict prune bound d(A_{i+1}, v) */
} vstate;

int64_t tz_frontier_sweep(
    int64_t n,
    const int64_t *indptr,
    const parc *arcs,                /* tz_frontier_arcs of all n vertices */
    int64_t ncenters,
    const int64_t *centers,
    const double *thr,
    int64_t **out_keys,
    double **out_dist,
    int64_t *stats)
{
    vstate *vs = os_alloc((size_t)n * sizeof(vstate));
    int64_t *sett = os_alloc((size_t)n * sizeof(int64_t)); /* per-center */
    int64_t *queue = os_alloc((size_t)(n + 1) * sizeof(int64_t));
    const int64_t qcap = n + 1; /* FIFO ring; a vertex queues at most once */
    int64_t *keys = NULL;
    double *dout = NULL;
    int64_t count = 0, out_cap = 0;
    int64_t settled = 0, relaxed = 0;
    int oom = (!vs || !sett || !queue);
    for (int64_t i = 0; !oom && i < n; i++) {
        vs[i].stamp = -1;
        vs[i].done = -1;
        vs[i].thr = thr[i];
    }
    for (int64_t e = 0; e < ncenters && !oom; e++) {
        const int64_t w = centers[e];
        int64_t sett_len = 0, qh = 0, qt = 0;
        vs[w].dist = 0.0;
        vs[w].stamp = e;
        vs[w].done = e; /* done == e: currently queued */
        sett[sett_len++] = w;
        queue[qt++] = w;
        while (qh != qt) {
            const int64_t u = queue[qh];
            qh = qh + 1 == qcap ? 0 : qh + 1;
            vs[u].done = ~e; /* dequeued; may re-queue if improved */
            const double du = vs[u].dist;
            const int64_t a_end = indptr[u + 1];
            relaxed += a_end - indptr[u];
            for (int64_t a = indptr[u]; a < a_end; a++) {
                if (du > arcs[a].lim)
                    break; /* no later arc of u can pass the prune */
                const int64_t v = arcs[a].v;
                const double nd = du + arcs[a].wt;
                vstate *sv = &vs[v];
                /* strict prune at d(A_{i+1}, v), as in the numpy sweep */
                if (nd < sv->thr && (sv->stamp != e || nd < sv->dist)) {
                    if (sv->stamp != e) {
                        sv->stamp = e;
                        sett[sett_len++] = v;
                    }
                    sv->dist = nd;
                    if (sv->done != e) {
                        sv->done = e;
                        queue[qt] = v;
                        qt = qt + 1 == qcap ? 0 : qt + 1;
                    }
                }
            }
        }
        /* Emit this center's slice in vertex order (centers ascending
         * makes the concatenation globally key-sorted).  Settled
         * distances stay valid in vs[] until a later epoch reuses the
         * vertex, so sort the bare ids and gather the distances. */
        sort_ids(sett, sett_len);
        if (count + sett_len > out_cap) {
            int64_t nc = out_cap ? out_cap * 2 : 4096;
            while (nc < count + sett_len)
                nc *= 2;
            int64_t *nk = os_grow(keys, (size_t)count * sizeof(int64_t),
                                  (size_t)nc * sizeof(int64_t));
            if (nk)
                keys = nk;
            double *ndp = os_grow(dout, (size_t)count * sizeof(double),
                                  (size_t)nc * sizeof(double));
            if (ndp)
                dout = ndp;
            if (!nk || !ndp) {
                oom = 1;
                break;
            }
            out_cap = nc;
        }
        const int64_t base = w * n;
        for (int64_t i = 0; i < sett_len; i++) {
            keys[count + i] = base + sett[i];
            dout[count + i] = vs[sett[i]].dist;
        }
        count += sett_len;
        settled += sett_len;
    }
    os_free(vs);
    os_free(sett);
    os_free(queue);
    if (oom) {
        os_free(keys);
        os_free(dout);
        return -1;
    }
    *out_keys = keys;
    *out_dist = dout;
    if (stats) {
        stats[0] = settled;
        stats[1] = relaxed;
    }
    return count;
}

/* ------------------------------------------------------------------ */
/* Builder cluster-tree pass                                           */
/* ------------------------------------------------------------------ */

/* Return codes of tz_cluster_trees: keep in sync with kernels/trees.py. */
#define TREES_OOM (-1)
#define TREES_ORPHAN (-2)

/* Vertex -> entry slot of the cluster being built, valid while stamp
 * equals that cluster's first entry index. */
typedef struct {
    int64_t stamp;
    int64_t local;
} vslot;

/* Longest run of equal key / n in the key-sorted entries [lo, hi): the
 * largest cluster, which sizes the per-cluster scratch. */
static int64_t max_cluster(int64_t n, const int64_t *keys, int64_t lo,
                           int64_t hi)
{
    int64_t smax = 0;
    for (int64_t a = lo, b; a < hi; a = b) {
        const int64_t w = keys[a] / n;
        for (b = a + 1; b < hi && keys[b] / n == w; b++)
            ;
        if (b - a > smax)
            smax = b - a;
    }
    return smax;
}

/* SPT parents and §2 heavy-light records of the clusters in entries
 * [lo, hi) (cut at cluster boundaries), one linear pass per cluster
 * over its key-sorted entries [a, b):
 *
 * 1. parent of member v: the smallest-id member u with
 *    dist(u) + wt(v,u) == dist(v).  v's adjacency row is sorted by head,
 *    so the first tight in-cluster neighbour is the minimum; wt(v,u) is
 *    the same float64 as wt(u,v) and IEEE addition commutes, so the sum
 *    is the one the numpy tight-arc sweep compares;
 * 2. child lists by counting sort, a BFS order from the center, and
 *    subtree sizes accumulated back to front over it;
 * 3. each child list sorted by (-size, id) — the heavy child first;
 * 4. DFS numbers without a DFS: in BFS order (parents first) the j-th
 *    child of x gets f(x) + 1 + the sizes of children 0..j-1, and light
 *    depth grows by one at every child but the first.
 *
 * Every array is the whole entry column and the pass writes only rows
 * [lo, hi) (lp_indptr: rows lo+1 .. hi), so entry links come out
 * global and threads may run disjoint ranges at once.  The light-port
 * sequences follow in tz_light_ports, once the caller has placed each
 * range's share of lp_data; until then lp_indptr[e + 1] holds the port
 * at entry e's parent toward it (0 at a root).  Returns the sum of the
 * range's light depths (its lp_data length), TREES_OOM, or TREES_ORPHAN
 * when some non-center entry has no tight in-cluster predecessor (or is
 * not connected to its center through them). */
int64_t tz_cluster_trees(
    int64_t n,
    int64_t lo,                      /* entry range [lo, hi) */
    int64_t hi,
    const int64_t *keys,             /* (E) sorted center * n + member */
    const double *dist,              /* (E) */
    const int64_t *indptr,
    const int64_t *adj,
    const double *wts,
    const int64_t *port_of_arc,
    int64_t *parent,                 /* out (E): parent vertex, -1 at root */
    int64_t *parent_epos,            /* out (E), and the seven below */
    int64_t *heavy_epos,
    int64_t *f,
    int64_t *finish,
    int64_t *heavy_finish,
    int64_t *light_depth,
    int64_t *parent_port,
    int64_t *heavy_port,
    int64_t *lp_indptr)              /* out (E+1): down port at row e+1 */
{
    const size_t cap = (size_t)max_cluster(n, keys, lo, hi) + 1;
    vslot *slot = malloc((size_t)(n ? n : 1) * sizeof(vslot));
    int64_t *par = malloc(cap * sizeof(int64_t));       /* local parent */
    int64_t *cptr = malloc((cap + 1) * sizeof(int64_t)); /* child CSR */
    int64_t *kids = malloc(cap * sizeof(int64_t));
    int64_t *order = malloc(cap * sizeof(int64_t));     /* BFS order */
    int64_t *size = malloc(cap * sizeof(int64_t));
    int64_t *down = malloc(cap * sizeof(int64_t)); /* parent's port to it */
    int64_t rc = 0, lp_len = 0;
    if (!slot || !par || !cptr || !kids || !order || !size || !down)
        rc = TREES_OOM;
    for (int64_t v = 0; rc == 0 && v < n; v++)
        slot[v].stamp = -1;
    for (int64_t a = lo, b; rc == 0 && a < hi; a = b) {
        const int64_t w = keys[a] / n, base = w * n;
        for (b = a + 1; b < hi && keys[b] / n == w; b++)
            ;
        const int64_t s = b - a;
        const int full = s == n; /* member v sits at local index v */
        if (!full)
            for (int64_t i = 0; i < s; i++) {
                slot[keys[a + i] - base].stamp = a;
                slot[keys[a + i] - base].local = i;
            }

        /* 1. parents, ports, child counts */
        int64_t root = -1;
        memset(cptr, 0, (size_t)(s + 1) * sizeof(int64_t));
        for (int64_t i = 0; i < s; i++) {
            const int64_t e = a + i, v = keys[e] - base;
            if (v == w) {
                root = i;
                par[i] = -1;
                down[i] = 0;
                parent[e] = -1;
                parent_epos[e] = -1;
                parent_port[e] = 0;
                continue;
            }
            const double dv = dist[e];
            int64_t arc = indptr[v], j = -1;
            for (const int64_t arc_end = indptr[v + 1]; arc < arc_end; arc++) {
                const int64_t u = adj[arc];
                const int64_t ju =
                    full ? u : (slot[u].stamp == a ? slot[u].local : -1);
                if (ju >= 0 && dist[a + ju] + wts[arc] == dv) {
                    j = ju;
                    break;
                }
            }
            if (j < 0) {
                rc = TREES_ORPHAN;
                break;
            }
            const int64_t u = adj[arc];
            par[i] = j;
            cptr[j + 1]++;
            parent[e] = u;
            parent_epos[e] = a + j;
            parent_port[e] = port_of_arc[arc];
            down[i] = port_of_arc[find_key(adj, indptr[u], indptr[u + 1], v)];
        }
        if (rc == 0 && root < 0)
            rc = TREES_ORPHAN;
        if (rc)
            break;

        /* 2. child lists (ascending id), BFS order, subtree sizes */
        for (int64_t i = 0; i < s; i++)
            cptr[i + 1] += cptr[i];
        for (int64_t i = 0; i < s; i++)
            if (par[i] >= 0)
                kids[cptr[par[i]]++] = i;
        for (int64_t i = s; i > 0; i--) /* undo the fill's cursor shift */
            cptr[i] = cptr[i - 1];
        cptr[0] = 0;
        int64_t tail = 1;
        order[0] = root;
        for (int64_t h = 0; h < tail; h++) {
            const int64_t x = order[h];
            for (int64_t c = cptr[x]; c < cptr[x + 1]; c++)
                order[tail++] = kids[c];
        }
        if (tail != s) { /* some entry's tight parents never reach w */
            rc = TREES_ORPHAN;
            break;
        }
        for (int64_t i = 0; i < s; i++)
            size[i] = 1;
        for (int64_t h = s - 1; h > 0; h--)
            size[par[order[h]]] += size[order[h]];

        /* 3. heavy-first child order: (-size, id) as one distinct key */
        for (int64_t x = 0; x < s; x++) {
            const int64_t c0 = cptr[x], c1 = cptr[x + 1];
            if (c1 - c0 < 2)
                continue;
            for (int64_t c = c0; c < c1; c++)
                kids[c] = (s - size[kids[c]]) * s + kids[c];
            sort_ids(kids + c0, c1 - c0);
            for (int64_t c = c0; c < c1; c++)
                kids[c] %= s;
        }

        /* 4. DFS intervals, heavy links, light depth */
        int64_t *F = f + a, *LD = light_depth + a;
        F[root] = 0;
        LD[root] = 0;
        for (int64_t h = 0; h < s; h++) {
            const int64_t x = order[h], e = a + x;
            int64_t next = F[x] + 1;
            for (int64_t c = cptr[x]; c < cptr[x + 1]; c++) {
                F[kids[c]] = next;
                LD[kids[c]] = LD[x] + (c > cptr[x]);
                next += size[kids[c]];
            }
            finish[e] = F[x] + size[x] - 1;
            lp_indptr[e + 1] = down[x];
            if (cptr[x + 1] > cptr[x]) {
                const int64_t hc = kids[cptr[x]];
                heavy_epos[e] = a + hc;
                heavy_finish[e] = F[x] + size[hc];
                heavy_port[e] = down[hc];
            } else {
                heavy_epos[e] = -1;
                heavy_finish[e] = F[x];
                heavy_port[e] = 0;
            }
            lp_len += LD[x];
        }
    }
    free(slot);
    free(par);
    free(cptr);
    free(kids);
    free(order);
    free(size);
    free(down);
    return rc ? rc : lp_len;
}

/* Light-port sequences of the clusters in entries [lo, hi), from
 * tz_cluster_trees' columns: entry x's sequence is its parent's
 * followed, when x is a light child (one light edge deeper than its
 * parent), by the port at the parent toward x, which tz_cluster_trees
 * left in lp_indptr[x + 1].  Replaces lp_indptr[lo+1 .. hi] with
 * running sums of the light depths from lp_base (the lp_data length of
 * all earlier entries) and fills lp_data there, parents before
 * children in DFS order.  Returns 0 or TREES_OOM. */
int64_t tz_light_ports(
    int64_t n,
    int64_t lo,                      /* entry range [lo, hi) */
    int64_t hi,
    int64_t lp_base,
    const int64_t *keys,             /* (E) sorted center * n + member */
    const int64_t *parent_epos,      /* (E) tz_cluster_trees columns */
    const int64_t *f,
    const int64_t *light_depth,
    int64_t *lp_indptr,              /* in: down ports; out (E+1) */
    int64_t *lp_data)                /* out */
{
    const size_t cap = (size_t)max_cluster(n, keys, lo, hi) + 1;
    int64_t *by_f = malloc(cap * sizeof(int64_t)); /* DFS number -> local */
    int64_t *down = malloc(cap * sizeof(int64_t));
    int64_t rc = (!by_f || !down) ? TREES_OOM : 0;
    int64_t at = lp_base;
    for (int64_t a = lo, b; rc == 0 && a < hi; a = b) {
        const int64_t w = keys[a] / n;
        for (b = a + 1; b < hi && keys[b] / n == w; b++)
            ;
        for (int64_t e = a; e < b; e++) {
            by_f[f[e]] = e - a;
            down[e - a] = lp_indptr[e + 1];
            at += light_depth[e];
            lp_indptr[e + 1] = at;
        }
        for (int64_t h = 1; h < b - a; h++) {
            const int64_t x = a + by_f[h], p = parent_epos[x];
            const int64_t ld = light_depth[x], lp = light_depth[p];
            if (ld == 0)
                continue;
            int64_t *dst = lp_data + (lp_indptr[x + 1] - ld);
            if (lp)
                memcpy(dst, lp_data + (lp_indptr[p + 1] - lp),
                       (size_t)lp * sizeof(int64_t));
            if (ld > lp)
                dst[lp] = down[x - a];
        }
    }
    free(by_f);
    free(down);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Compile: entry records                                              */
/* ------------------------------------------------------------------ */

/* Return codes of tz_compile_records: keep in sync with
 * kernels/records.py.  Each names what the pass refused at *bad. */
#define RECORDS_KEYS (-1)   /* keys not strictly ascending in [0, n*n) */
#define RECORDS_MEMBER (-2) /* a member that is not its key mod n */
#define RECORDS_PARENT (-3) /* a parent port outside [0, deg(member)] */
#define RECORDS_HEAVY (-4)  /* a heavy port outside [0, deg(member)] */
#define RECORDS_LIGHT (-5)  /* a light-port slice outside [0, len(lp_data)] */

/* One tree's slice [lo, hi) of the key-sorted entries; its keys are
 * base + member, and full marks a slice holding all n members. */
typedef struct {
    const int64_t *keys;
    int64_t lo, hi, base;
    int full;
} tree_slice;

/* Resolve one parent or heavy move of member v through its step row
 * (port 0 = no move) and link the neighbour back to its entry in the
 * same tree: the hint when it lies in the slice and holds the key,
 * else a search of the slice, else LOST.  Both shortcuts are measured:
 * under the build's own ports the hint halves the pass, and the full-n
 * index halves a hint-less one (bench_kernels gates the hint). */
static void resolve_move(const tree_slice *t, const step_rec *row,
                         int64_t port, int64_t hint, int64_t *epos,
                         double *wt, int64_t *edge, int64_t *next)
{
    if (port == 0) {
        *epos = -1;
        *wt = 0.0;
        *edge = -1;
        *next = -1;
        return;
    }
    const step_rec *st = &row[port - 1];
    const int64_t key = t->base + st->next;
    int64_t pos;
    if (hint >= t->lo && hint < t->hi && t->keys[hint] == key)
        pos = hint;
    else if (t->full)
        pos = t->lo + st->next;
    else
        pos = find_key(t->keys, t->lo, t->hi, key);
    *epos = pos >= 0 ? pos : LOST;
    *wt = st->wt;
    *edge = st->edge;
    *next = st->next;
}

/* frexp's exponent of (double)x, which is x's bit length for
 * 0 <= x < 2^53: the numpy label-bit reference takes bit lengths as
 * np.frexp(x.astype(float64))[1], so this reads the same field of the
 * same double (every int64 converts to 0 or a normal double). */
static inline int64_t frexp_exp(int64_t x)
{
    union {
        double d;
        uint64_t b;
    } u;
    u.d = (double)x;
    const int64_t biased = (int64_t)((u.b >> 52) & 0x7ff);
    return biased ? biased - 1022 : 0;
}

/* Write every entry record of a compiled scheme in one pass over the
 * key-sorted entries, tree slice by tree slice: the five tree-record
 * fields as given, then each parent and heavy port resolved through
 * step[g_indptr[v] + port - 1] to neighbour, weight and edge, and the
 * neighbour linked to its entry in the same tree.  The hints (NULL when
 * the caller has none) are the build's own entry links; they are
 * checked, never trusted, so any hint yields the same record.
 *
 * Given the light-port CSR (lp_indptr may be NULL), the pass checks
 * every entry's slice lp_indptr[e] .. lp_indptr[e+1] against
 * [0, lp_len] and, unless label_bits is NULL, writes the entry's
 * encoded tree-label bits (label_codec.tree_label_bits): the DFS number
 * at the width of its tree, bit_length(slice length - 1), then the
 * light-port count Elias-delta coded as count + 1 and each port of the
 * slice Elias-gamma coded.
 *
 * Keys strictly ascend, so each is unique: a checked hint, a search of
 * the tree's slice and numpy's global searchsorted name the same entry,
 * and a key missing from its slice is missing everywhere, since tree
 * w's keys all lie in [w*n, (w+1)*n).
 *
 * Refuses, before resolving the entry at fault, what numpy would
 * resolve wrongly: keys out of order or range, a member that is not
 * its key mod n, a port past its member's row, and a light-port slice
 * outside lp_data.  Returns 0 or a RECORDS_* code with the entry at
 * *bad.
 *
 * Every array is the whole entry column and the pass covers only
 * entries [lo, hi), which the caller cuts where the tree id strictly
 * grows: those are slice boundaries of the one-range pass too, so a
 * range's records, and the first fault it names, are the ones the
 * one-range pass would write and name, and threads may run disjoint
 * ranges at once. */
int64_t tz_compile_records(
    int64_t n,
    int64_t lo,                      /* entry range [lo, hi) */
    int64_t hi,
    const int64_t *keys,             /* (E) tree * n + member */
    const int64_t *vertex,           /* (E) tree-record fields */
    const int64_t *f,
    const int64_t *finish,
    const int64_t *heavy_finish,
    const int64_t *light_depth,
    const int64_t *parent_port,      /* (E) 0 = none */
    const int64_t *heavy_port,
    const int64_t *parent_hint,      /* NULL or (E) entry-link hints */
    const int64_t *heavy_hint,
    const int64_t *g_indptr,         /* (n+1) step row per vertex */
    const step_rec *step,            /* (2m) half-arc records */
    const int64_t *lp_indptr,        /* NULL or (E+1) light-port slices */
    const int64_t *lp_data,          /* (lp_len) light ports */
    int64_t lp_len,
    ent_rec *ent,                    /* out (E) */
    int64_t *label_bits,             /* out (E), or NULL: not wanted */
    int64_t *bad)                    /* out: the refused entry */
{
    const int64_t span = n * n;
    tree_slice t = {keys, 0, 0, 0, 0};
    for (int64_t a = lo, b; a < hi; a = b) {
        if (keys[a] < 0 || keys[a] >= span) {
            *bad = a;
            return RECORDS_KEYS;
        }
        const int64_t base = keys[a] / n * n, end = base + n;
        for (b = a + 1; b < hi && keys[b] < end; b++)
            if (keys[b] <= keys[b - 1]) {
                *bad = b;
                return RECORDS_KEYS;
            }
        t.lo = a;
        t.hi = b;
        t.base = base;
        t.full = b - a == n;
        const int64_t f_width = frexp_exp(b - a - 1);
        for (int64_t e = a; e < b; e++) {
            const int64_t v = vertex[e];
            if (v != keys[e] - base) {
                *bad = e;
                return RECORDS_MEMBER;
            }
            const int64_t deg = g_indptr[v + 1] - g_indptr[v];
            const int64_t pp = parent_port[e], hp = heavy_port[e];
            if (pp < 0 || pp > deg) {
                *bad = e;
                return RECORDS_PARENT;
            }
            if (hp < 0 || hp > deg) {
                *bad = e;
                return RECORDS_HEAVY;
            }
            const int64_t p0 = lp_indptr ? lp_indptr[e] : 0;
            const int64_t p1 = lp_indptr ? lp_indptr[e + 1] : 0;
            if (p0 < 0 || p1 < p0 || p1 > lp_len) {
                *bad = e;
                return RECORDS_LIGHT;
            }
            if (label_bits) {
                const int64_t bl = frexp_exp(p1 - p0 + 1);
                int64_t bits = f_width + 2 * (frexp_exp(bl) - 1) + 1 + bl - 1;
                for (int64_t p = p0; p < p1; p++)
                    bits += 2 * (frexp_exp(lp_data[p]) - 1) + 1;
                label_bits[e] = bits;
            }
            const step_rec *row = step + g_indptr[v];
            ent_rec *r = &ent[e];
            r->vertex = v;
            r->f = f[e];
            r->finish = finish[e];
            r->heavy_finish = heavy_finish[e];
            r->light_depth = light_depth[e];
            resolve_move(&t, row, pp, parent_hint ? parent_hint[e] : -1,
                         &r->parent_epos, &r->parent_wt, &r->parent_edge,
                         &r->parent_next);
            resolve_move(&t, row, hp, heavy_hint ? heavy_hint[e] : -1,
                         &r->heavy_epos, &r->heavy_wt, &r->heavy_edge,
                         &r->heavy_next);
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Patch: splice                                                       */
/* ------------------------------------------------------------------ */

/* How tz_splice moves a column's rows: keep in sync with
 * kernels/splice.py.  Every column is 8 bytes a row. */
#define SPLICE_COPY 0   /* int64 rows as they lie */
#define SPLICE_REAL 1   /* float64 rows as they lie (compared as doubles) */
#define SPLICE_LINK 2   /* entry links: v >= 0 moves by at - src, else -1 */
#define SPLICE_OFFSET 3 /* light-port offsets: every row moves by shift[r] */

/* Row v of run r's source, moved into place the way `kind` says. */
static inline int64_t moved(int64_t kind, int64_t v, int64_t link_shift,
                            int64_t offset)
{
    if (kind == SPLICE_LINK)
        return link_shift == 0 ? v : (v >= 0 ? v + link_shift : -1);
    if (kind == SPLICE_OFFSET)
        return v + offset;
    return v;
}

/* Output rows [lo, hi) of every column, written run by run: run r's
 * rows start at src[r] in its source (the rebuild's columns when
 * dirty[r], else the parent's) and land at output rows at[r] ..
 * at[r+1].  A plain column takes one memcpy per run, a link or offset
 * column one shifted copy.  Rows of different ranges are disjoint, so
 * threads may write one set of columns at once.  Matches the numpy
 * _splice of core/build/patch.py row for row. */
void tz_splice(
    int64_t lo,                      /* output rows [lo, hi) */
    int64_t hi,
    int64_t nruns,
    const int64_t *dirty,            /* (nruns) */
    const int64_t *src,              /* (nruns) */
    const int64_t *at,               /* (nruns + 1) */
    const int64_t *shift,            /* (nruns) SPLICE_OFFSET shift, or NULL */
    int64_t ncols,
    const int64_t *kinds,            /* (ncols) SPLICE_* */
    const int64_t *const *old,       /* (ncols) the parent's columns */
    const int64_t *const *fresh,     /* (ncols) the rebuild's columns */
    int64_t *const *out)             /* (ncols) output columns */
{
    if (lo >= hi || nruns == 0)
        return;
    /* the last run starting at or before lo */
    int64_t a = 0, b = nruns;
    while (b - a > 1) {
        const int64_t mid = a + ((b - a) >> 1);
        if (at[mid] <= lo)
            a = mid;
        else
            b = mid;
    }
    for (int64_t r = a; r < nruns && at[r] < hi; r++) {
        const int64_t row0 = at[r] > lo ? at[r] : lo;
        const int64_t row1 = at[r + 1] < hi ? at[r + 1] : hi;
        if (row0 >= row1)
            continue;
        const int64_t from = src[r] + (row0 - at[r]);
        const int64_t link_shift = at[r] - src[r];
        const int64_t offset = shift ? shift[r] : 0;
        for (int64_t c = 0; c < ncols; c++) {
            const int64_t *col = (dirty[r] ? fresh[c] : old[c]) + from;
            int64_t *dst = out[c] + row0;
            const int64_t kind = kinds[c];
            if (kind == SPLICE_COPY || kind == SPLICE_REAL ||
                (kind == SPLICE_LINK && link_shift == 0)) {
                memcpy(dst, col, (size_t)(row1 - row0) * sizeof(int64_t));
                continue;
            }
            for (int64_t i = 0; i < row1 - row0; i++)
                dst[i] = moved(kind, col[i], link_shift, offset);
        }
    }
}

/* When no block moves: same[c] = 1 when every dirty run of column c,
 * moved as tz_splice moves it, already equals the parent's rows where
 * it lands (floats compared as doubles, as numpy's array_equal does),
 * so the column can be shared instead of written.  Offset columns move
 * with the blocks, so they never come here. */
void tz_splice_same(
    int64_t nruns,
    const int64_t *dirty,
    const int64_t *src,
    const int64_t *at,
    int64_t ncols,
    const int64_t *kinds,
    const int64_t *const *old,
    const int64_t *const *fresh,
    int64_t *same)                   /* out (ncols) */
{
    for (int64_t c = 0; c < ncols; c++) {
        const int64_t kind = kinds[c];
        int equal = 1;
        for (int64_t r = 0; equal && r < nruns; r++) {
            if (!dirty[r])
                continue;
            const int64_t len = at[r + 1] - at[r];
            const int64_t *col = fresh[c] + src[r], *was = old[c] + at[r];
            if (kind == SPLICE_REAL) {
                const double *x = (const double *)col, *y = (const double *)was;
                for (int64_t i = 0; equal && i < len; i++)
                    equal = x[i] == y[i];
            } else {
                const int64_t link_shift = at[r] - src[r];
                for (int64_t i = 0; equal && i < len; i++)
                    equal = moved(kind, col[i], link_shift, 0) == was[i];
            }
        }
        same[c] = equal;
    }
}

/* ------------------------------------------------------------------ */
/* Patch and build: assemble                                           */
/* ------------------------------------------------------------------ */

/* Return codes of the assemble passes: keep in sync with
 * kernels/splice.py. */
#define ASSEMBLE_MEMBER (-1) /* a member outside [0, n) */

/* Block of row e: the largest c with cl_indptr[c] <= e, c in [0, n). */
static int64_t block_of(int64_t n, const int64_t *cl_indptr, int64_t e)
{
    int64_t a = 0, b = n;
    while (b - a > 1) {
        const int64_t mid = a + ((b - a) >> 1);
        if (cl_indptr[mid] <= e)
            a = mid;
        else
            b = mid;
    }
    return a;
}

/* ent_center and entry_keys = center * n + member of rows [lo, hi),
 * the center of row e being the block of cl_indptr holding it. */
void tz_entry_keys(
    int64_t n,
    int64_t lo,
    int64_t hi,
    const int64_t *cl_indptr,        /* (n+1) */
    const int64_t *member,           /* (E) */
    int64_t *center,                 /* out (E) */
    int64_t *keys)                   /* out (E) */
{
    if (lo >= hi)
        return;
    for (int64_t c = block_of(n, cl_indptr, lo), e = lo; e < hi; c++) {
        const int64_t end = cl_indptr[c + 1] < hi ? cl_indptr[c + 1] : hi;
        for (; e < end; e++) {
            center[e] = c;
            keys[e] = c * n + member[e];
        }
    }
}

/* Count (epos NULL) or write the level-0 member-map rows among entries
 * [lo, hi): the entries whose member is its center or lies closer to
 * it than to level 1, d(center, member) < d1[member].  Writes epos and
 * mkeys from row `base` on; returns the count, or ASSEMBLE_MEMBER. */
int64_t tz_member_maps(
    int64_t n,
    int64_t lo,
    int64_t hi,
    const int64_t *center,           /* (E) */
    const int64_t *member,           /* (E) */
    const double *dist,              /* (E) */
    const double *d1,                /* (n) d(A_1, v) */
    const int64_t *keys,             /* (E) */
    int64_t base,
    int64_t *epos,                   /* out, or NULL to count */
    int64_t *mkeys)                  /* out */
{
    int64_t count = 0;
    for (int64_t e = lo; e < hi; e++) {
        const int64_t v = member[e];
        if (v < 0 || v >= n)
            return ASSEMBLE_MEMBER;
        if (v == center[e] || dist[e] < d1[v]) {
            if (epos) {
                epos[base + count] = e;
                mkeys[base + count] = keys[e];
            }
            count++;
        }
    }
    return count;
}

/* Label entry positions of vertices [lo, hi): row 0 the entry (v, v),
 * row i the entry (pivot[i][v], v), each found in its tree's block of
 * the key-sorted entries.  Levels go in order, so the return is 0 or
 * 1 + the lowest level whose entry some vertex of the range lacks. */
int64_t tz_label_positions(
    int64_t n,
    int64_t k,
    int64_t lo,
    int64_t hi,
    const int64_t *cl_indptr,        /* (n+1) */
    const int64_t *keys,             /* (E) sorted center * n + member */
    const int64_t *pivot,            /* (k, n) row-major; row 0 unread */
    int64_t *lab)                    /* out (k, n) row-major */
{
    for (int64_t i = 0; i < k; i++)
        for (int64_t v = lo; v < hi; v++) {
            const int64_t w = i ? pivot[i * n + v] : v;
            int64_t pos = -1;
            if (w >= 0 && w < n) {
                const int64_t a = cl_indptr[w], b = cl_indptr[w + 1];
                if (b - a == n)
                    pos = keys[a + v] == w * n + v ? a + v : -1;
                else
                    pos = find_key(keys, a, b, w * n + v);
            }
            if (pos < 0)
                return 1 + i;
            lab[i * n + v] = pos;
        }
    return 0;
}

/* Per-member entry counts of rows [lo, hi), added into counts (n);
 * returns 0 or ASSEMBLE_MEMBER. */
int64_t tz_member_counts(
    int64_t n,
    int64_t lo,
    int64_t hi,
    const int64_t *member,           /* (E) */
    int64_t *counts)                 /* in/out (n) */
{
    for (int64_t e = lo; e < hi; e++) {
        const int64_t v = member[e];
        if (v < 0 || v >= n)
            return ASSEMBLE_MEMBER;
        counts[v]++;
    }
    return 0;
}

/* Bunch order of rows [lo, hi): a stable counting sort of the entries
 * by member.  cursor[v] is the first slot of this range's member-v rows
 * (the rows of earlier ranges and lower members before it); entries go
 * in row order, so each member's centers come out ascending, as
 * numpy's stable argsort puts them. */
void tz_bunch_scatter(
    int64_t lo,
    int64_t hi,
    const int64_t *member,           /* (E), checked by tz_member_counts */
    int64_t *cursor,                 /* in/out (n), this range's own */
    int64_t *order)                  /* out (E) */
{
    for (int64_t e = lo; e < hi; e++)
        order[cursor[member[e]]++] = e;
}

/* Release a buffer handed out by tz_frontier_sweep. */
void tz_free(void *p)
{
    os_free(p);
}
