/* Native kernels for the inner loops that dominate every benchmark:
 * the router's distinct-pair pass, tree commit and synchronized hop
 * loop (sim/engine/batch.py), the builder's thresholded frontier sweep
 * and cluster-tree pass (core/build/vectorized.py), the field repair a
 * weight-only patch runs on a dirty top-level tree in place of the
 * sweep (core/build/patch.py), the compile
 * pass that writes the entry records (sim/engine/compile.py), the
 * derive pass that makes the columns a container does not store and
 * every scheme's entry keys, and the label-bit pass over a built
 * scheme's light ports (core/build/arrays.py), the passes a patch
 * makes over every entry: the splice (core/build/patch.py) and the
 * label positions of assemble_arrays (core/build/arrays.py), and the
 * setup path's two draw loops: gnp's edge skipping
 * (graphs/generators.py) and the random port permutations
 * (graphs/ports.py), and the shortest-path passes that keep scipy off
 * the native path: the hierarchy's multi-source sweep, exact pair
 * distances and connected components (graphs/csr.py, graphs/graph.py).
 *
 * Deliberately plain C + libc (and POSIX mmap), no Python.h: the
 * library is loaded through ctypes, so a bare `cc -O3 -fPIC -shared`
 * against the system toolchain is the whole build and no Python
 * development headers are needed.  All array arguments are raw pointers into numpy buffers:
 * per-call columns the wrappers pin as contiguous int32/int64/float64/
 * uint8, and the compiled scheme's own columns, which its construction
 * check guarantees to have exactly the dtypes named below or the record
 * layouts below.  Every per-entry integer column is int32 (the callers
 * refuse n, 2m or E >= 2^31 first); offsets into entry-sized columns
 * are int64.  An entry is named by its tree's slice of the entries
 * (tree_indptr, int64) and its int32 member, in every pass after the
 * frontier sweep; the sweep's own output keys (tree * n + member) and
 * the derive pass's are int64, formed in int64 arithmetic.  The light
 * ports lp_data are the one column of two widths: one byte a port while
 * every degree of the graph is at most 255, else int32
 * (light_port_dtype in core/build/arrays.py).
 * Each pass that touches them takes the width from its wrapper
 * (lp_data.dtype.itemsize) and reads through port_at.
 * No kernel keeps global state, so threads may run any of them at once
 * on disjoint output rows (ctypes releases the GIL for the call).
 *
 * All kernels replicate the numpy reference paths bit-for-bit:
 *
 * - tz_distinct_pairs numbers a batch's pairs in order of first
 *   appearance, the order numpy's reference sorts np.unique's first
 *   occurrences into, so both write the same integers.
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
 * - tz_repair_fields writes a top-level tree's new field from its
 *   stored one (Ramalingam-Reps marking, then a heap Dijkstra over
 *   what the delta moved).  On the float64-exact weights a patch
 *   requires, every sum is exact, so its distances are the true ones,
 *   which is the least fixpoint the sweep reaches.
 * - tz_cluster_trees computes each SPT parent from the same float64 sum
 *   d(w,u) + wt and exact equality as the numpy tight-arc sweep (the
 *   arc's weight is stored once per edge, addition commutes), takes the
 *   same minimum id, and orders children by the same distinct
 *   (-size, id) key as the numpy lexsort; everything after that is
 *   integer arithmetic.
 * - tz_compile_records copies each resolved step record as it lies and
 *   links each neighbour by an exact lookup of its member in the tree's
 *   slice, whose members strictly ascend, where a checked hint, a slice
 *   search and numpy's global searchsorted of tree * n + member can
 *   only name the same unique entry.
 * - tz_derive_entries sums each distance as one float64 addition of
 *   the parent's distance and the parent weight, as numpy does level by
 *   level; every parent is summed before its child (DFS order), so each
 *   addend is the same double.  Its label bits, tz_label_bits' and
 *   tz_commit's are integer sums of the same bit lengths numpy reads
 *   off frexp.
 * - tz_splice copies rows and adds the same integer shifts as the
 *   numpy splice; tz_label_positions finds the same unique members in
 *   a tree's slice as numpy's searchsorted finds tree * n + member.
 * - tz_multi_source settles vertices in the (distance, source rank)
 *   order the heap reference pops its tuples in, so each settles with
 *   the same label; tz_pair_distances' settled distances and
 *   tz_components' labels are scipy's (see each pass).
 * - tz_gnp_edges and tz_permute_rows call the caller's bit generator
 *   once per draw the Python loops make, through the same function
 *   pointers numpy calls, and do the same arithmetic on the draws:
 *   libm's log and floor for a skip (Python's math.log is libm's log),
 *   numpy's random_interval for a swap.
 *
 * The hop loop is memory-latency-bound (every hop gathers from tables
 * far larger than cache), so it interleaves a block of rows and issues
 * a software prefetch for each row's next record while the other rows
 * advance — the same memory-level parallelism the numpy gathers get
 * from vectorization, without the per-round array traffic.  Entry
 * records are one struct per entry — the layout the scheme is compiled
 * into and stored in, read here where it lies, memory-mapped or not —
 * so a parent or heavy hop touches one 64-byte cache line and nothing
 * else, and the record lookup after a light-port crossing
 * binary-searches only the committed tree's slice of the int32 member
 * column.  The route kernels read a map nobody may have verified, so
 * every index they take out of it is checked before it is read
 * through (FAIL_CORRUPT).
 */

#define _GNU_SOURCE /* mremap */
#include <float.h>
#include <math.h>
#include <stddef.h>
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
#define FAIL_CORRUPT 8

/* Entry-position sentinel: crossed into a vertex with no record. */
#define LOST (-2)

/* ------------------------------------------------------------------ */
/* Router hop loop                                                     */
/* ------------------------------------------------------------------ */

/* One tree entry, one 64-byte cache line: field order and widths must
 * match ENT_DTYPE in repro/sim/engine/compile.py exactly (twelve int32
 * fields, two doubles), which tz_record_layout lets a test check field
 * by field.  A parent or heavy hop reads nothing beyond this line: the
 * entry link, edge id and weight of each move.  The ports are read only
 * on the rare LOST path, where the neighbour is a step-row read, and
 * lp_off/light_depth locate the entry's light-port slice in lp_data for
 * the commit.  Its member is also kept in the separate dense member
 * column, which slice searches read. */
typedef struct {
    int32_t vertex;
    int32_t f;           /* DFS number */
    int32_t finish;
    int32_t heavy_finish;
    int32_t light_depth; /* light edges above the member = slice length */
    int32_t parent_epos;
    int32_t parent_edge;
    int32_t parent_port; /* 0 at the root */
    int32_t heavy_epos;
    int32_t heavy_edge;
    int32_t heavy_port;  /* 0 at a leaf */
    int32_t lp_off;      /* first light port in lp_data */
    double parent_wt;
    double heavy_wt;
} ent_rec;

/* One half-arc of the ported graph: matches STEP_DTYPE in compile.py. */
typedef struct {
    int32_t next;
    int32_t edge;
    double wt;
} step_rec;

_Static_assert(sizeof(ent_rec) == 64, "an entry record is one cache line");
_Static_assert(sizeof(step_rec) == 16, "a step record is 16 bytes");

/* The record layouts as this compiler lays them out: (offset, size) of
 * every ent_rec field, in declaration order, then sizeof(ent_rec), then
 * the same for step_rec.  Returns the count of values written (33). */
int64_t tz_record_layout(int64_t *out)
{
    int64_t i = 0;
#define FIELD(type, name)                              \
    do {                                               \
        out[i++] = (int64_t)offsetof(type, name);      \
        out[i++] = (int64_t)sizeof(((type *)0)->name); \
    } while (0)
    FIELD(ent_rec, vertex);
    FIELD(ent_rec, f);
    FIELD(ent_rec, finish);
    FIELD(ent_rec, heavy_finish);
    FIELD(ent_rec, light_depth);
    FIELD(ent_rec, parent_epos);
    FIELD(ent_rec, parent_edge);
    FIELD(ent_rec, parent_port);
    FIELD(ent_rec, heavy_epos);
    FIELD(ent_rec, heavy_edge);
    FIELD(ent_rec, heavy_port);
    FIELD(ent_rec, lp_off);
    FIELD(ent_rec, parent_wt);
    FIELD(ent_rec, heavy_wt);
    out[i++] = (int64_t)sizeof(ent_rec);
    FIELD(step_rec, next);
    FIELD(step_rec, edge);
    FIELD(step_rec, wt);
    out[i++] = (int64_t)sizeof(step_rec);
#undef FIELD
    return i;
}

/* Lower-bound search for head v inside the sorted adjacency row
 * adj[lo, hi): the arc u -> v of u's row, or -1. */
static int64_t find_arc(const int64_t *adj, int64_t lo, int64_t hi, int64_t v)
{
    const int64_t end = hi;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (adj[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return (lo < end && adj[lo] == v) ? lo : -1;
}

/* The same search over one tree's (or one source's) slice of an int32
 * member column: the members of a slice strictly ascend, so the entry of
 * (tree, v) is where v is.  This is how every pass after the frontier
 * sweep names an entry: the tree slice plus the member. */
static int64_t find_member(const int32_t *member, int64_t lo, int64_t hi,
                           int64_t v)
{
    const int64_t end = hi;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (member[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return (lo < end && member[lo] == v) ? lo : -1;
}

/* Block of row e: the largest c with cl_indptr[c] <= e, c in [0, n).
 * For an e where a slice starts this is that slice's tree, past any
 * empty slices before it, so a pass over the entries [lo, hi) of a
 * range cut at slice ends walks the trees c = block_of(lo) .. while
 * cl_indptr[c] < hi, each over [cl_indptr[c], cl_indptr[c + 1]). */
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

/* The bit length of |x|: frexp's exponent of (double)x for |x| < 2^53,
 * which is how the numpy label-bit reference takes bit lengths
 * (np.frexp(x.astype(float64))[1]); every value here is an int32 or a
 * tree size, far below 2^53. */
static inline int64_t bit_length(int64_t x)
{
    const uint64_t u = x < 0 ? -(uint64_t)x : (uint64_t)x;
#if defined(__GNUC__) || defined(__clang__)
    return u ? 64 - __builtin_clzll(u) : 0;
#else
    int64_t bits = 0;
    for (uint64_t v = u; v; v >>= 1)
        bits++;
    return bits;
#endif
}

/* Light port i of lp_data, whose rows are `width` bytes: 1 (uint8) or 4
 * (int32), the two widths of the light-port rule (light_port_dtype in
 * core/build/arrays.py: one byte while every degree is <= 255).  Every
 * reader of lp_data goes through here; the wrappers pass the width as
 * lp_data.dtype.itemsize. */
static inline int64_t port_at(const void *lp_data, int64_t width, int64_t i)
{
    return width == 1 ? (int64_t)((const uint8_t *)lp_data)[i]
                      : (int64_t)((const int32_t *)lp_data)[i];
}

/* The tree pass's writer of the same: port p at light port i (the
 * caller picked a width every port fits). */
static inline void port_put(void *lp_data, int64_t width, int64_t i, int64_t p)
{
    if (width == 1)
        ((uint8_t *)lp_data)[i] = (uint8_t)p;
    else
        ((int32_t *)lp_data)[i] = (int32_t)p;
}

/* Encoded tree-label bits (label_codec.tree_label_bits) of an entry of
 * a tree with `size` members whose light ports are lp_data[off ..
 * off + count): the DFS number at the tree's width, bit_length(size -
 * 1), then the port count Elias-delta coded as count + 1 and each port
 * Elias-gamma coded. */
static int64_t label_bits_of(int64_t size, const void *lp_data, int64_t width,
                             int64_t off, int64_t count)
{
    const int64_t bl = bit_length(count + 1);
    int64_t bits = bit_length(size - 1) + 2 * (bit_length(bl) - 1) + 1 + bl - 1;
    for (int64_t p = off; p < off + count; p++)
        bits += 2 * (bit_length(port_at(lp_data, width, p)) - 1) + 1;
    return bits;
}

/* The neighbour a parent or heavy move of record r lands on, through
 * its port's step row, for a move whose link is LOST (the neighbour has
 * no record in the tree); -1 when the member, the port or the step
 * row's neighbour is out of range (a damaged record). */
static int64_t lost_neighbour(const ent_rec *r, int64_t port, int64_t n,
                              const int64_t *g_indptr, const step_rec *step)
{
    const int64_t v = r->vertex;
    if (v < 0 || v >= n || port < 1 || port > g_indptr[v + 1] - g_indptr[v])
        return -1;
    const int64_t next = step[g_indptr[v] + port - 1].next;
    return next >= 0 && next < n ? next : -1;
}

/* Interleaving width: enough in-flight rows to keep the memory system
 * saturated with independent loads, small enough that all slot state
 * stays in registers/L1. */
#define HOP_BATCH 64

/* Walk every committed row to its outcome.  Returns the number of
 * synchronized rounds the numpy loop would have executed (the maximum
 * over rows of the iteration count while that row was in flight), which
 * feeds the route.hop_iterations counter.  `fail` is read for rows that
 * failed at commit time (skipped) and written with the outcome code.
 *
 * The records may come from an unverified map, so every index read out
 * of one is checked before anything is read through it: an entry link
 * in {-2, -1} or [0, E), a member and a landed neighbour in [0, n), a
 * LOST move's port in [1, deg], a light depth >= 0 and an edge id below
 * the dead-mask width.  A failed check retires the row with
 * FAIL_CORRUPT.  The commit checked the start entry and the light-port
 * slice [lp_lo, lp_hi) against the columns. */
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
    int64_t E,
    const ent_rec *ent,              /* (E) entry records */
    const int32_t *member,           /* (E) member per entry */
    const int64_t *tree_indptr,      /* (n+1) entry slice per tree root */
    const void *lp_data,             /* light ports, lp_width bytes each */
    int64_t lp_width,
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
            s_mask[s] =                                                  \
                dead_masks ? dead_masks + trial[row_] * mask_width : 0;  \
            if (s_cur[s] >= 0)                                           \
                PREFETCH(&ent[s_cur[s]]);                                \
            if (s_hi[s] > s_lo[s])                                       \
                PREFETCH((const char *)lp_data + s_lo[s] * lp_width);    \
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
                    else if (nxt == LOST) {
                        new_lost = lost_neighbour(r, r->parent_port, n, g_indptr, step);
                        if (new_lost < 0)
                            code = FAIL_CORRUPT;
                    } else if (nxt < 0 || nxt >= E)
                        code = FAIL_CORRUPT;
                } else if (tf >= rec_f + 1 && tf <= r->heavy_finish) {
                    /* inside the heavy child's interval */
                    nxt = r->heavy_epos;
                    wt = r->heavy_wt;
                    edge = r->heavy_edge;
                    if (nxt == -1)
                        code = FAIL_PORT;
                    else if (nxt == LOST) {
                        new_lost = lost_neighbour(r, r->heavy_port, n, g_indptr, step);
                        if (new_lost < 0)
                            code = FAIL_CORRUPT;
                    } else if (nxt < 0 || nxt >= E)
                        code = FAIL_CORRUPT;
                } else {
                    /* light child: next port from the destination label */
                    const int64_t depth = r->light_depth;
                    const int64_t lp_pos = s_lo[s] + depth;
                    const int64_t at = r->vertex;
                    if (depth < 0) {
                        code = FAIL_CORRUPT;
                    } else if (lp_pos >= s_hi[s]) {
                        code = FAIL_LABEL;
                    } else if (at < 0 || at >= n) {
                        code = FAIL_CORRUPT;
                    } else {
                        const int64_t port = port_at(lp_data, lp_width, lp_pos);
                        const int64_t sp = g_indptr[at] + port - 1;
                        if (port < 1 || sp >= g_indptr[at + 1]) {
                            code = FAIL_PORT;
                        } else {
                            const step_rec *st = &step[sp];
                            const int64_t landed = st->next;
                            if (landed < 0 || landed >= n) {
                                code = FAIL_CORRUPT;
                            } else {
                                /* A tree whose slice holds all n vertices
                                 * (a top-level landmark tree — the common
                                 * commit for far pairs) indexes directly:
                                 * its members are 0..n-1 in order. */
                                const int64_t pos =
                                    s_thi[s] - s_tlo[s] == n
                                        ? s_tlo[s] + landed
                                        : find_member(member, s_tlo[s], s_thi[s],
                                                      landed);
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
                }
                if (code == FAIL_NONE && s_mask[s] && edge >= 0)
                    code = edge >= mask_width ? FAIL_CORRUPT
                           : s_mask[s][edge] ? FAIL_DEAD_LINK
                                             : FAIL_NONE;
                if (code != FAIL_NONE) {
                    retire = 1;
                    alive = s_it[s] + 1;
                } else {
                    s_w[s] += wt;
                    s_h[s] += 1;
                    s_cur[s] = nxt;
                    s_lost[s] = new_lost;
                    s_it[s] += 1;
                    if (nxt >= 0)
                        PREFETCH(&ent[nxt]);
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
 * Only T_w's slice of the member column is searched; a slice holding
 * all n vertices is indexed directly, as in tz_hop_loop.  A w outside
 * [0, n) names no tree. */
static int64_t tree_entry(const int32_t *member, const int64_t *tree_indptr,
                          int64_t n, int64_t w, int64_t v)
{
    if (w < 0 || w >= n)
        return -1;
    const int64_t lo = tree_indptr[w], hi = tree_indptr[w + 1];
    if (hi - lo == n)
        return lo + v;
    return find_member(member, lo, hi, v);
}

/* Rows the commit carries through each of its three phases at once: its
 * record reads and light-port reads depend on the selection, so each
 * phase prefetches what the next reads for the whole block. */
#define COMMIT_BLOCK 64

/* Commit every row to a tree and write the eight columns the numpy
 * BatchRouter._commit returns.  Trivial rows (s == t) and rows with no
 * usable tree get the same defaults as the numpy path.  The header's
 * label bits are computed here, from the committed tree's slice length
 * and the destination's light ports: lp_off and light_depth sit on the
 * record line read for f, and the ports are the slice the hop loop
 * reads next.  A source checks level 0 in its own tree slice unless it
 * is its own level-1 pivot (a landmark), the rule of
 * repro.core.landmarks.level0_sources.  The entry index read from
 * root_epos, and the destination's light-port slice, are checked
 * against E and lp_len first; a row that fails a check gets
 * FAIL_CORRUPT and the defaults. */
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
    int64_t E,
    int64_t lp_len,
    int64_t lp_width,                /* bytes per light port: 1 or 4 */
    const ent_rec *ent,              /* (E) entry records */
    const int32_t *member,           /* (E) member per entry */
    const int64_t *tree_indptr,      /* (n+1) entry slice per tree root */
    const void *lp_data,             /* (lp_len) light ports */
    const int64_t *root_epos,        /* (n) entry of (v, v) */
    const int64_t *pivot)            /* (k, n) row-major */
{
    for (int64_t i0 = 0; i0 < count; i0 += COMMIT_BLOCK) {
        const int64_t i1 = i0 + COMMIT_BLOCK < count ? i0 + COMMIT_BLOCK : count;
        /* selection: each row's tree and entries, its record prefetched */
        for (int64_t i = i0; i < i1; i++) {
            const int64_t s = src[i], t = dst[i];
            int64_t w = -1, ep = -1, sp = -1;
            int corrupt = 0;
            if (s == t) {
                /* trivial: no tree, both entries share a sentinel */
            } else if (handshake) {
                /* start at T_s; while the passive endpoint has no record,
                 * swap roles and move to the active one's next pivot */
                int64_t x = s, y = t, cw = s;
                int found = tree_entry(member, tree_indptr, n, cw, y) >= 0;
                for (int64_t level = 1; !found && level < k; level++) {
                    const int64_t tmp = x;
                    x = y;
                    y = tmp;
                    cw = pivot[level * n + x];
                    found = tree_entry(member, tree_indptr, n, cw, y) >= 0;
                }
                if (found) {
                    ep = tree_entry(member, tree_indptr, n, cw, t);
                    sp = tree_entry(member, tree_indptr, n, cw, s);
                    if (ep >= 0 && sp >= 0)
                        w = cw;
                }
            } else {
                /* level 0: the destination is in the source's level-0
                 * cluster, its own tree slice unless the source is a
                 * landmark (its own level-1 pivot) */
                const int64_t j = k == 1 || pivot[n + s] != s
                                      ? tree_entry(member, tree_indptr, n, s, t)
                                      : -1;
                if (j >= 0) {
                    w = s;
                    ep = j;
                    sp = root_epos[s];
                    corrupt = sp < 0 || sp >= E;
                } else {
                    /* levels 1..k-1: the first pivot tree holding the
                     * source decides; a missing destination record there
                     * fails the row */
                    for (int64_t level = 1; level < k; level++) {
                        const int64_t cw = pivot[level * n + t];
                        const int64_t spos = tree_entry(member, tree_indptr, n, cw, s);
                        if (spos < 0)
                            continue;
                        const int64_t dpos = tree_entry(member, tree_indptr, n, cw, t);
                        if (dpos >= 0) {
                            w = cw;
                            ep = dpos;
                            sp = spos;
                        }
                        break;
                    }
                }
            }
            if (w >= 0 && !corrupt)
                PREFETCH(&ent[ep]);
            tree[i] = corrupt ? -1 : w;
            fail[i] = corrupt ? FAIL_CORRUPT : w >= 0 || s == t ? FAIL_NONE : FAIL_NO_TREE;
            epos_dst[i] = ep;
            epos_src[i] = sp;
        }
        /* the destination's record: its light-port slice, prefetched */
        for (int64_t i = i0; i < i1; i++) {
            int64_t lo = 0, depth = 0;
            if (tree[i] >= 0) {
                const ent_rec *r = &ent[epos_dst[i]];
                lo = r->lp_off;
                depth = r->light_depth;
                dest_f[i] = r->f;
                if (lo < 0 || depth < 0 || lo + depth > lp_len) {
                    tree[i] = -1;
                    fail[i] = FAIL_CORRUPT;
                } else if (depth) {
                    PREFETCH((const char *)lp_data + lo * lp_width);
                }
            }
            lp_lo[i] = lo;
            lp_hi[i] = lo + depth;
        }
        /* the header, or the defaults of a row with no tree */
        for (int64_t i = i0; i < i1; i++) {
            const int64_t w = tree[i];
            if (w >= 0) {
                header[i] = 2 * id_bits +
                            label_bits_of(tree_indptr[w + 1] - tree_indptr[w], lp_data,
                                          lp_width, lp_lo[i], lp_hi[i] - lp_lo[i]);
            } else {
                header[i] = 2 * id_bits;
                dest_f[i] = 0;
                lp_lo[i] = 0;
                lp_hi[i] = 0;
                epos_src[i] = -7;
                epos_dst[i] = -7;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Router: the distinct pairs of a batch                               */
/* ------------------------------------------------------------------ */

/* Fibonacci hashing's multiplier: 2^64 over the golden ratio, odd. */
#define PAIR_HASH 0x9E3779B97F4A7C15ULL

/* Number the distinct (src, dst) pairs of a batch in order of first
 * appearance: first[j] is the row where pair j first appears (the first
 * `return` entries of first are written) and rows[i] the number of row
 * i's pair, so (src[i], dst[i]) == (src[first[rows[i]]],
 * dst[first[rows[i]]]).  This is the numbering numpy's reference,
 * np.unique of s * n + t renumbered by first occurrence, arrives at.
 *
 * The table is open addressing with linear probing over `mask + 1`
 * int32 slots, a power of two at least twice count, which the caller
 * fills with -1: a slot holds the row where its pair first appears.  A
 * pair's home slot is the top bits of key * PAIR_HASH, key = s * n + t;
 * the callers check every endpoint lies in [0, n) with n < 2^31, so the
 * key names the pair exactly, but the pass compares the endpoints
 * themselves and computes the key in unsigned arithmetic, so no input
 * makes it misbehave.  count < 2^31 (rows are int32).  Returns the
 * number of distinct pairs, or -1 for a table of fewer than 2 * count
 * slots or not a power of two of them. */
int64_t tz_distinct_pairs(
    int64_t count,
    const int64_t *src,
    const int64_t *dst,
    int64_t n,
    int32_t *table,                  /* (mask + 1) scratch, all -1 */
    int64_t mask,
    int64_t *first,                  /* out (count) */
    int32_t *rows)                   /* out (count) */
{
    if (count <= 0)
        return 0;
    if (mask < 2 * count - 1 || (mask & (mask + 1)))
        return -1; /* too small to stay sparse, or not a power of two */
    int shift = 64;
    for (uint64_t m = (uint64_t)mask; m; m >>= 1)
        shift--;
    int64_t distinct = 0;
    for (int64_t i = 0; i < count; i++) {
        const int64_t s = src[i], t = dst[i];
        const uint64_t key = (uint64_t)s * (uint64_t)n + (uint64_t)t;
        uint64_t slot = (key * PAIR_HASH) >> shift;
        for (;;) {
            const int32_t r = table[slot];
            if (r < 0) {
                table[slot] = (int32_t)i;
                first[distinct] = i;
                rows[i] = (int32_t)distinct++;
                break;
            }
            if (src[r] == s && dst[r] == t) {
                rows[i] = rows[r];
                break;
            }
            slot = (slot + 1) & (uint64_t)mask;
        }
    }
    return distinct;
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
/* Shortest paths: multi-source labels, pair distances, components     */
/* ------------------------------------------------------------------ */

/* Return code of tz_multi_source and tz_pair_distances: keep in sync
 * with kernels/sssp.py. */
#define SSSP_OOM (-1)

/* pos[] of a vertex never offered to the heap, and of one popped. */
#define UNREACHED (-1)
#define SETTLED (-2)

/* One heap entry: a tentative distance and key = rank << 32 | vertex
 * (the callers refuse n or a source count >= 2^31), so entries order
 * as the heap reference's (dist, priority, id, vertex) tuples do, rank
 * standing for (priority, id).  The key's low half names the vertex. */
typedef struct {
    double d;
    int64_t key;
} hent;

#define KEY_VERTEX(k) ((k) & 0xffffffffLL)

static inline int hent_less(hent a, hent b)
{
    return a.d < b.d || (a.d == b.d && a.key < b.key);
}

/* 4-ary heap of entries, at most one per vertex, with each vertex's
 * slot in pos[]: half the depth of a binary heap, and a pop's four
 * children share one or two cache lines.  Place e at slot i or
 * above. */
static void heap_up(hent *heap, int64_t *pos, int64_t i, hent e)
{
    while (i > 0) {
        const int64_t p = (i - 1) >> 2;
        if (!hent_less(e, heap[p]))
            break;
        heap[i] = heap[p];
        pos[KEY_VERTEX(heap[i].key)] = i;
        i = p;
    }
    heap[i] = e;
    pos[KEY_VERTEX(e.key)] = i;
}

/* The least entry, removed (*len > 0); its vertex's slot becomes
 * SETTLED. */
static hent heap_pop(hent *heap, int64_t *pos, int64_t *len)
{
    const hent top = heap[0];
    pos[KEY_VERTEX(top.key)] = SETTLED;
    const int64_t last = --*len;
    if (last > 0) {
        const hent e = heap[last];
        int64_t i = 0;
        for (;;) {
            const int64_t first = 4 * i + 1;
            if (first >= last)
                break;
            const int64_t end = first + 4 < last ? first + 4 : last;
            int64_t c = first;
            for (int64_t x = first + 1; x < end; x++)
                if (hent_less(heap[x], heap[c]))
                    c = x;
            if (!hent_less(heap[c], e))
                break;
            heap[i] = heap[c];
            pos[KEY_VERTEX(heap[i].key)] = i;
            i = c;
        }
        heap[i] = e;
        pos[KEY_VERTEX(e.key)] = i;
    }
    return top;
}

/* Relax arc (u -> v) to the entry e: a first entry for v, or a
 * decrease of v's entry when e orders before it. */
static inline void heap_offer(hent *heap, int64_t *pos, int64_t *len,
                              int64_t v, hent e)
{
    const int64_t pv = pos[v];
    if (pv == UNREACHED)
        heap_up(heap, pos, (*len)++, e);
    else if (pv != SETTLED && hent_less(e, heap[pv]))
        heap_up(heap, pos, pv, e);
}

/* d(A, v) and the witness of every vertex from the sources `ranked`
 * (distinct, in rank order: sorted by (priority, id)): one Dijkstra
 * whose labels are (distance, source rank), settled in lexicographic
 * order.  That is the order the heap reference pops its (dist,
 * priority, id) tuples in (CSRKernel._multi_source_heap), so every
 * vertex settles with the same label: the least over its in-arcs of
 * (fl(d(u) + w), rank(u)), for any positive weights, float64-exact or
 * not.  The distances are the least fixpoint of fl(d(u) + w), which
 * every convergent schedule (scipy's Dijkstra too) reaches; on
 * float64-exact weights the ranks are also what the tight-arc
 * propagation of CSRKernel._propagate_witnesses computes.  A FIFO
 * label-correcting pass like the frontier sweep's would not do: when
 * fl(d1 + w) == fl(d2 + w) for d1 < d2, a label relaxed from a stale
 * distance can keep a smaller rank than the settled one gives.
 * Writes dist (inf where unreachable) and witness (-1 there); returns
 * the settled count, or SSSP_OOM.  stats[0] collects pops, stats[1]
 * relaxed arcs. */
int64_t tz_multi_source(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const double *wts,
    int64_t nsrc,
    const int64_t *ranked,
    double *dist,                    /* out (n) */
    int64_t *witness,                /* out (n) */
    int64_t *stats)
{
    hent *heap = os_alloc((size_t)(n + 1) * sizeof(hent));
    int64_t *pos = os_alloc((size_t)(n + 1) * sizeof(int64_t));
    if (!heap || !pos) {
        os_free(heap);
        os_free(pos);
        return SSSP_OOM;
    }
    for (int64_t v = 0; v < n; v++) {
        dist[v] = INFINITY;
        witness[v] = -1;
        pos[v] = UNREACHED;
    }
    int64_t len = 0, pops = 0, relaxed = 0;
    /* Every source settles first, at distance 0 with its own label (an
     * arc adds a positive weight, so no other label reaches 0), in any
     * order: each vertex's label is the least offer it receives, and
     * offers do not depend on the order they are made in.  A duplicate
     * source makes only offers its first (least) rank beats. */
    for (int64_t r = 0; r < nsrc; r++) {
        const int64_t a = ranked[r];
        if (pos[a] == SETTLED)
            continue;
        pos[a] = SETTLED;
        dist[a] = 0.0;
        witness[a] = a;
        pops++;
    }
    for (int64_t r = 0; r < nsrc; r++) {
        const int64_t u = ranked[r], a1 = indptr[u + 1];
        relaxed += a1 - indptr[u];
        for (int64_t a = indptr[u]; a < a1; a++) {
            const hent e = {wts[a], (r << 32) | adj[a]};
            heap_offer(heap, pos, &len, adj[a], e);
        }
    }
    while (len > 0) {
        const hent top = heap_pop(heap, pos, &len);
        const int64_t u = KEY_VERTEX(top.key);
        const int64_t rank_bits = top.key & ~0xffffffffLL;
        dist[u] = top.d;
        witness[u] = ranked[top.key >> 32];
        pops++;
        const int64_t a1 = indptr[u + 1];
        relaxed += a1 - indptr[u];
        for (int64_t a = indptr[u]; a < a1; a++) {
            const int64_t v = adj[a];
            const hent e = {top.d + wts[a], rank_bits | v};
            heap_offer(heap, pos, &len, v, e);
        }
    }
    os_free(heap);
    os_free(pos);
    if (stats) {
        stats[0] = pops;
        stats[1] = relaxed;
    }
    return pops;
}

/* Exact distances of the requested pairs of sources[lo .. hi): source
 * i's targets are targets[tgt_indptr[i] .. tgt_indptr[i+1]), and out[j]
 * receives d(sources[i], targets[j]) (inf when unreachable).  One
 * Dijkstra per source, stopping once its last target has settled: a
 * settled distance is final, the least fixpoint of fl(d(u) + w) that
 * scipy's full rows hold too.  Only the vertices a source touched are
 * reset after it, so a source costs what it reaches, and no row of
 * distances outlives the call's n-long workspace.  Returns 0, or
 * SSSP_OOM.  stats[0] collects pops, stats[1] relaxed arcs. */
int64_t tz_pair_distances(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const double *wts,
    int64_t lo,
    int64_t hi,
    const int64_t *sources,
    const int64_t *tgt_indptr,
    const int64_t *targets,
    double *out,                     /* out rows tgt_indptr[lo] .. [hi] */
    int64_t *stats)
{
    hent *heap = os_alloc((size_t)(n + 1) * sizeof(hent));
    int64_t *pos = os_alloc((size_t)(n + 1) * sizeof(int64_t));
    double *dist = os_alloc((size_t)(n + 1) * sizeof(double));
    int64_t *touched = os_alloc((size_t)(n + 1) * sizeof(int64_t));
    uint8_t *want = os_alloc((size_t)(n + 1));
    if (!heap || !pos || !dist || !touched || !want) {
        os_free(heap);
        os_free(pos);
        os_free(dist);
        os_free(touched);
        os_free(want);
        return SSSP_OOM;
    }
    for (int64_t v = 0; v < n; v++) {
        pos[v] = UNREACHED;
        dist[v] = INFINITY;
        want[v] = 0; /* mmap'd pages are zero already; keep it explicit */
    }
    int64_t pops = 0, relaxed = 0;
    for (int64_t i = lo; i < hi; i++) {
        int64_t left = 0, ntouched = 0, len = 0;
        for (int64_t j = tgt_indptr[i]; j < tgt_indptr[i + 1]; j++) {
            left += !want[targets[j]];
            want[targets[j]] = 1;
        }
        const hent start = {0.0, sources[i]};
        heap_up(heap, pos, len++, start);
        touched[ntouched++] = sources[i];
        while (len > 0) {
            const hent top = heap_pop(heap, pos, &len);
            const int64_t u = KEY_VERTEX(top.key);
            dist[u] = top.d;
            pops++;
            if (want[u] && --left == 0)
                break;
            const int64_t a1 = indptr[u + 1];
            relaxed += a1 - indptr[u];
            for (int64_t a = indptr[u]; a < a1; a++) {
                const int64_t v = adj[a];
                const hent e = {top.d + wts[a], v};
                if (pos[v] == UNREACHED)
                    touched[ntouched++] = v;
                heap_offer(heap, pos, &len, v, e);
            }
        }
        for (int64_t j = tgt_indptr[i]; j < tgt_indptr[i + 1]; j++) {
            out[j] = dist[targets[j]];
            want[targets[j]] = 0;
        }
        for (int64_t t = 0; t < ntouched; t++) {
            pos[touched[t]] = UNREACHED;
            dist[touched[t]] = INFINITY;
        }
    }
    os_free(heap);
    os_free(pos);
    os_free(dist);
    os_free(touched);
    os_free(want);
    if (stats) {
        stats[0] = pops;
        stats[1] = relaxed;
    }
    return 0;
}

/* Connected components of the undirected graph on [0, n) whose edges
 * are the rows (edges[2i], edges[2i+1]) with keep[i] set (every row
 * when keep is NULL): a union-find that links the larger root under the
 * smaller, with path halving, so parent[v] <= v always holds and each
 * root is its component's smallest vertex.  One ascending pass then
 * numbers the components by their smallest vertex, which is how scipy's
 * connected_components numbers them: a root takes the next label, any
 * other vertex its parent's, already relabelled.  labels is the
 * union-find's parent array until then.  Returns the component count. */
int64_t tz_components(
    int64_t n,
    int64_t m,
    const int64_t *edges,            /* (m, 2) */
    const uint8_t *keep,             /* (m) or NULL */
    int64_t *labels)                 /* out (n) */
{
    int64_t *parent = labels;
    for (int64_t v = 0; v < n; v++)
        parent[v] = v;
    for (int64_t i = 0; i < m; i++) {
        if (keep && !keep[i])
            continue;
        int64_t a = edges[2 * i], b = edges[2 * i + 1];
        while (parent[a] != a) {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        while (parent[b] != b) {
            parent[b] = parent[parent[b]];
            b = parent[b];
        }
        if (a < b)
            parent[b] = a;
        else if (b < a)
            parent[a] = b;
    }
    int64_t count = 0;
    for (int64_t v = 0; v < n; v++)
        labels[v] = parent[v] == v ? count++ : labels[parent[v]];
    return count;
}

/* ------------------------------------------------------------------ */
/* Top-level field repair                                              */
/* ------------------------------------------------------------------ */

/* The new shortest-path fields of full trees [lo, hi) after a
 * weight-only delta, each repaired from its stored field in the style
 * of Ramalingam and Reps instead of swept from scratch.  Tree t's old
 * field is old_dist[old_at[t] .. + n) and its new one is written to
 * out[new_at[t] .. + n), both in vertex order; (indptr, adj, wts) is
 * the new graph and update i moves edge {upd[2i], upd[2i+1]} from
 * w_old[i] to w_new[i].  Per tree, with D the old field:
 *
 * 1. Mark, in ascending D, every vertex an increase can leave without
 *    support: a candidate x is supported by an in-arc (y -> x) from an
 *    unmarked y with D[y] + w(y, x) <= D[x] (new weights), and is
 *    marked otherwise.  Candidates are the heads of tight increased
 *    arcs, then every z a marked x supported (D[x] + w(x, z) <= D[z]).
 *    Weights are positive, so every possible supporter of x has a
 *    smaller D and is decided before x.  By induction in D, every
 *    unmarked vertex keeps a path no longer than D: its new distance
 *    is at most D.
 * 2. Start every unmarked vertex at D and every marked one at its best
 *    offer from an unmarked neighbour, offer each decreased arc from an
 *    unmarked tail, and run a heap Dijkstra from the vertices whose
 *    label dropped.  That is a full Dijkstra from the labels D (inf
 *    where marked), every one of them at least the new distance and
 *    the center's 0 exact, with the relaxations of the vertices it
 *    never pops made in advance: an unmarked y's arc to an unmarked z
 *    can only improve D[z] if it decreased.  So every label ends at
 *    the new distance, the least fixpoint of fl(d(u) + w) the frontier
 *    sweep reaches (weights float64-exact, as a patch requires).
 *
 * Only the vertices a tree's repair touched are reset after it, so a
 * tree costs its copy plus what the delta moves.  Returns 0, or
 * SSSP_OOM.  stats[0] collects marked vertices, stats[1] settled ones
 * (every marked vertex with a finite distance, and each one a decrease
 * lowered). */
int64_t tz_repair_fields(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const double *wts,
    int64_t nupd,
    const int64_t *upd,              /* (nupd, 2) edge endpoints */
    const double *w_old,
    const double *w_new,
    int64_t lo,
    int64_t hi,
    const double *old_dist,
    const int64_t *old_at,
    double *out,
    const int64_t *new_at,
    int64_t *stats)
{
    hent *heap = os_alloc((size_t)(n + 1) * sizeof(hent));
    int64_t *pos = os_alloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *touched = os_alloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *marked = os_alloc((size_t)(n + 1) * sizeof(int64_t));
    uint8_t *mark = os_alloc((size_t)(n + 1));
    if (!heap || !pos || !touched || !marked || !mark) {
        os_free(heap);
        os_free(pos);
        os_free(touched);
        os_free(marked);
        os_free(mark);
        return SSSP_OOM;
    }
    for (int64_t v = 0; v < n; v++) {
        pos[v] = UNREACHED;
        mark[v] = 0;
    }
    int64_t nmarked_all = 0, settled = 0;
    for (int64_t t = lo; t < hi; t++) {
        const double *D = old_dist + old_at[t];
        double *N = out + new_at[t];
        memcpy(N, D, (size_t)n * sizeof(double));
        int64_t len = 0, ntouched = 0, nmarked = 0;

        /* 1. Marking, candidates popped in (D, id) order. */
        for (int64_t i = 0; i < nupd; i++) {
            if (!(w_new[i] > w_old[i]))
                continue;
            const int64_t u = upd[2 * i], v = upd[2 * i + 1];
            for (int s = 0; s < 2; s++) {
                const int64_t y = s ? v : u, x = s ? u : v;
                if (D[y] + w_old[i] == D[x] && pos[x] == UNREACHED) {
                    const hent e = {D[x], x};
                    touched[ntouched++] = x;
                    heap_up(heap, pos, len++, e);
                }
            }
        }
        while (len > 0) {
            const int64_t x = KEY_VERTEX(heap_pop(heap, pos, &len).key);
            const double dx = D[x];
            const int64_t a0 = indptr[x], a1 = indptr[x + 1];
            int supported = 0;
            for (int64_t a = a0; a < a1 && !supported; a++)
                supported = !mark[adj[a]] && D[adj[a]] + wts[a] <= dx;
            if (supported)
                continue;
            mark[x] = 1;
            marked[nmarked++] = x;
            for (int64_t a = a0; a < a1; a++) {
                const int64_t z = adj[a];
                if (dx + wts[a] <= D[z] && pos[z] == UNREACHED) {
                    const hent e = {D[z], z};
                    touched[ntouched++] = z;
                    heap_up(heap, pos, len++, e);
                }
            }
        }
        for (int64_t i = 0; i < ntouched; i++)
            pos[touched[i]] = UNREACHED;
        ntouched = 0;

        /* 2. Seeds, then Dijkstra over the labels that dropped. */
        for (int64_t i = 0; i < nmarked; i++)
            N[marked[i]] = INFINITY;
        for (int64_t i = 0; i < nmarked; i++) {
            const int64_t x = marked[i];
            double best = INFINITY;
            for (int64_t a = indptr[x]; a < indptr[x + 1]; a++)
                if (!mark[adj[a]] && D[adj[a]] + wts[a] < best)
                    best = D[adj[a]] + wts[a];
            if (best < INFINITY) {
                const hent e = {best, x};
                N[x] = best;
                touched[ntouched++] = x;
                heap_up(heap, pos, len++, e);
            }
        }
        for (int64_t i = 0; i < nupd; i++) {
            if (!(w_new[i] < w_old[i]))
                continue;
            const int64_t u = upd[2 * i], v = upd[2 * i + 1];
            for (int s = 0; s < 2; s++) {
                const int64_t y = s ? v : u, x = s ? u : v;
                const double nd = D[y] + w_new[i];
                if (!mark[y] && nd < N[x]) {
                    const hent e = {nd, x};
                    N[x] = nd;
                    if (pos[x] == UNREACHED)
                        touched[ntouched++] = x;
                    heap_offer(heap, pos, &len, x, e);
                }
            }
        }
        while (len > 0) {
            const hent top = heap_pop(heap, pos, &len);
            const int64_t x = KEY_VERTEX(top.key);
            const int64_t a1 = indptr[x + 1];
            settled++;
            for (int64_t a = indptr[x]; a < a1; a++) {
                const int64_t z = adj[a];
                const double nd = top.d + wts[a];
                if (nd < N[z]) {
                    const hent e = {nd, z};
                    N[z] = nd;
                    if (pos[z] == UNREACHED)
                        touched[ntouched++] = z;
                    heap_offer(heap, pos, &len, z, e);
                }
            }
        }
        for (int64_t i = 0; i < ntouched; i++)
            pos[touched[i]] = UNREACHED;
        for (int64_t i = 0; i < nmarked; i++)
            mark[marked[i]] = 0;
        nmarked_all += nmarked;
    }
    os_free(heap);
    os_free(pos);
    os_free(touched);
    os_free(marked);
    os_free(mark);
    if (stats) {
        stats[0] = nmarked_all;
        stats[1] = settled;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Builder cluster-tree pass                                           */
/* ------------------------------------------------------------------ */

/* Return codes of tz_cluster_trees: keep in sync with kernels/trees.py. */
#define TREES_OOM (-1)
#define TREES_ORPHAN (-2)
#define TREES_MEMBERS (-3) /* members not strictly ascending in [0, n) */

/* Vertex -> entry slot of the cluster being built, valid while stamp
 * equals that cluster's first entry index. */
typedef struct {
    int64_t stamp;
    int64_t local;
} vslot;

/* Longest tree slice among the entries [lo, hi) (cut at slice ends):
 * the largest cluster, which sizes the per-cluster scratch. */
static int64_t max_cluster(int64_t n, const int64_t *tree_indptr, int64_t lo,
                           int64_t hi)
{
    int64_t smax = 0;
    if (lo < hi)
        for (int64_t c = block_of(n, tree_indptr, lo); c < n && tree_indptr[c] < hi; c++)
            if (tree_indptr[c + 1] - tree_indptr[c] > smax)
                smax = tree_indptr[c + 1] - tree_indptr[c];
    return smax;
}

/* SPT parents and §2 heavy-light records of the clusters in entries
 * [lo, hi) (cut at slice ends), one linear pass per cluster w over its
 * slice [a, b) = [tree_indptr[w], tree_indptr[w + 1]) of the members,
 * which strictly ascend in [0, n) (checked first):
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
 * range's light depths (its lp_data length), TREES_OOM, TREES_MEMBERS
 * for a slice whose members do not strictly ascend in [0, n), or
 * TREES_ORPHAN when some non-center entry has no tight in-cluster
 * predecessor (or is not connected to its center through them). */
int64_t tz_cluster_trees(
    int64_t n,
    int64_t lo,                      /* entry range [lo, hi) */
    int64_t hi,
    const int64_t *tree_indptr,      /* (n+1) entry slice per center */
    const int32_t *member,           /* (E) member per entry */
    const double *dist,              /* (E) */
    const int64_t *indptr,
    const int64_t *adj,
    const double *wts,
    const int64_t *port_of_arc,
    int32_t *parent,                 /* out (E): parent vertex, -1 at root */
    int32_t *parent_epos,            /* out (E), and the seven below */
    int32_t *heavy_epos,
    int32_t *f,
    int32_t *finish,
    int32_t *heavy_finish,
    int32_t *light_depth,
    int32_t *parent_port,
    int32_t *heavy_port,
    int64_t *lp_indptr)              /* out (E+1): down port at row e+1 */
{
    const size_t cap = (size_t)max_cluster(n, tree_indptr, lo, hi) + 1;
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
    for (int64_t w = lo < hi ? block_of(n, tree_indptr, lo) : n;
         rc == 0 && w < n && tree_indptr[w] < hi; w++) {
        const int64_t a = tree_indptr[w], b = tree_indptr[w + 1], s = b - a;
        if (s == 0)
            continue;
        for (int64_t e = a; e < b; e++)
            if (member[e] < 0 || member[e] >= n || (e > a && member[e] <= member[e - 1]))
                rc = TREES_MEMBERS;
        if (rc)
            break;
        const int full = s == n; /* member v sits at local index v */
        if (!full)
            for (int64_t i = 0; i < s; i++) {
                slot[member[a + i]].stamp = a;
                slot[member[a + i]].local = i;
            }

        /* 1. parents, ports, child counts */
        int64_t root = -1;
        memset(cptr, 0, (size_t)(s + 1) * sizeof(int64_t));
        for (int64_t i = 0; i < s; i++) {
            const int64_t e = a + i, v = member[e];
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
            down[i] = port_of_arc[find_arc(adj, indptr[u], indptr[u + 1], v)];
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
        int32_t *F = f + a, *LD = light_depth + a;
        F[root] = 0;
        LD[root] = 0;
        for (int64_t h = 0; h < s; h++) {
            const int64_t x = order[h], e = a + x;
            int64_t next = (int64_t)F[x] + 1;
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
 * all earlier entries) and fills lp_data there, lp_width bytes a port
 * (port_put), parents before children in DFS order.  Returns 0 or
 * TREES_OOM. */
int64_t tz_light_ports(
    int64_t n,
    int64_t lo,                      /* entry range [lo, hi) */
    int64_t hi,
    int64_t lp_base,
    const int64_t *tree_indptr,      /* (n+1) entry slice per center */
    const int32_t *parent_epos,      /* (E) tz_cluster_trees columns */
    const int32_t *f,
    const int32_t *light_depth,
    int64_t *lp_indptr,              /* in: down ports; out (E+1) */
    void *lp_data,                   /* out */
    int64_t lp_width)
{
    const size_t cap = (size_t)max_cluster(n, tree_indptr, lo, hi) + 1;
    int64_t *by_f = malloc(cap * sizeof(int64_t)); /* DFS number -> local */
    int64_t *down = malloc(cap * sizeof(int64_t));
    int64_t rc = (!by_f || !down) ? TREES_OOM : 0;
    int64_t at = lp_base;
    char *const ports = (char *)lp_data;
    for (int64_t w = lo < hi ? block_of(n, tree_indptr, lo) : n;
         rc == 0 && w < n && tree_indptr[w] < hi; w++) {
        const int64_t a = tree_indptr[w], b = tree_indptr[w + 1];
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
            const int64_t at_x = lp_indptr[x + 1] - ld;
            if (lp)
                memcpy(ports + at_x * lp_width, ports + (lp_indptr[p + 1] - lp) * lp_width,
                       (size_t)(lp * lp_width));
            if (ld > lp)
                port_put(lp_data, lp_width, at_x + lp, down[x - a]);
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
#define RECORDS_RANGE (-1)  /* a member outside [0, n) */
#define RECORDS_ORDER (-2)  /* members not strictly ascending in a tree slice */
#define RECORDS_PARENT (-3) /* a parent port outside [0, deg(member)] */
#define RECORDS_HEAVY (-4)  /* a heavy port outside [0, deg(member)] */
#define RECORDS_LIGHT (-5)  /* a light-port slice outside [0, len(lp_data)] */

/* One tree's slice [lo, hi) of the member column, whose members
 * strictly ascend in [0, n); full marks a slice holding all n. */
typedef struct {
    const int32_t *member;
    int64_t lo, hi;
    int full;
} tree_slice;

/* Resolve one parent or heavy move of member v through its step row
 * (port 0 = no move) and link the neighbour back to its entry in the
 * same tree: the hint when it lies in the slice and holds the
 * neighbour, else a search of the slice, else LOST.  Returns the
 * neighbour (-1 for no move).  Both shortcuts are measured: under the
 * build's own ports the hint halves the pass, and the full-n index
 * halves a hint-less one (bench_kernels gates the hint). */
static int64_t resolve_move(const tree_slice *t, const step_rec *row,
                            int64_t port, int64_t hint, int32_t *epos,
                            double *wt, int32_t *edge)
{
    if (port == 0) {
        *epos = -1;
        *wt = 0.0;
        *edge = -1;
        return -1;
    }
    const step_rec *st = &row[port - 1];
    const int64_t next = st->next;
    int64_t pos;
    if (hint >= t->lo && hint < t->hi && t->member[hint] == next)
        pos = hint;
    else if (t->full)
        pos = t->lo + next;
    else
        pos = find_member(t->member, t->lo, t->hi, next);
    *epos = (int32_t)(pos >= 0 ? pos : LOST);
    *wt = st->wt;
    *edge = st->edge;
    return next;
}

/* Write every entry record of a compiled scheme in one pass over the
 * entries, tree slice by tree slice (tree_indptr): the five tree-record
 * fields and the two ports as given, each port resolved through
 * step[g_indptr[v] + port - 1] to weight and edge and its neighbour
 * linked to its entry in the same tree, and the offset of the entry's
 * light-port slice.  The hints (NULL when the caller has none) are the
 * build's own entry links; they are checked, never trusted, so any hint
 * yields the same record.  The range's *rejected counts the entries
 * whose record differs from a hint: a parent or heavy link other than
 * the hinted one, or a parent neighbour other than parent_vertex (the
 * build's SPT parent).  A pass that rejects none wrote the two links
 * equal, value for value, to the two link columns, and the SPT parent
 * is then the member of the parent link, which a save need store or
 * compare nowhere else.  Without hints every entry counts as rejected.
 *
 * The pass checks every entry's light-port slice lp_indptr[e] ..
 * lp_indptr[e+1] against [0, lp_len] and its length against the light
 * depth, and writes lp_indptr[e] as the record's lp_off (the caller
 * refuses lp_len >= 2^31).  It writes the records and nothing else: the
 * label bits are the derive pass's (tz_derive_entries).
 *
 * The members of a slice strictly ascend, so each names one entry: a
 * checked hint, a search of the tree's slice and numpy's global
 * searchsorted of tree * n + member name the same one, and a member
 * missing from its slice is missing from the tree.
 *
 * Refuses, before resolving the entry at fault, what numpy would
 * resolve wrongly: a slice whose members are out of range or order
 * (checked over the whole slice first), a port past its member's row,
 * and a light-port slice outside lp_data or not light_depth long.
 * Returns 0 or a RECORDS_* code with the entry at *bad.
 *
 * Every array is the whole entry column and the pass covers only
 * entries [lo, hi), which the caller cuts where a tree slice ends, so a
 * range's records, and the first fault it names, are the ones the
 * one-range pass would write and name, and threads may run disjoint
 * ranges at once. */
int64_t tz_compile_records(
    int64_t n,
    int64_t lo,                      /* entry range [lo, hi) */
    int64_t hi,
    const int64_t *tree_indptr,      /* (n+1) entry slice per tree */
    const int32_t *vertex,           /* (E) member, then the tree-record fields */
    const int32_t *f,
    const int32_t *finish,
    const int32_t *heavy_finish,
    const int32_t *light_depth,
    const int32_t *parent_port,      /* (E) 0 = none */
    const int32_t *heavy_port,
    const int32_t *parent_hint,      /* NULL or (E) entry-link hints, */
    const int32_t *heavy_hint,       /* all three NULL or none */
    const int32_t *parent_vertex,
    const int64_t *g_indptr,         /* (n+1) step row per vertex */
    const step_rec *step,            /* (2m) half-arc records */
    const int64_t *lp_indptr,        /* (E+1) light-port slices */
    int64_t lp_len,                  /* length of lp_data */
    ent_rec *ent,                    /* out (E) */
    int64_t *bad,                    /* out: the refused entry */
    int64_t *rejected)               /* out: entries that differ from a hint */
{
    tree_slice t = {vertex, 0, 0, 0};
    int64_t differ = parent_hint ? 0 : hi - lo;
    *rejected = differ;
    for (int64_t w = lo < hi ? block_of(n, tree_indptr, lo) : n;
         w < n && tree_indptr[w] < hi; w++) {
        const int64_t a = tree_indptr[w], b = tree_indptr[w + 1];
        for (int64_t e = a; e < b; e++) {
            if (vertex[e] < 0 || vertex[e] >= n) {
                *bad = e;
                return RECORDS_RANGE;
            }
            if (e > a && vertex[e] <= vertex[e - 1]) {
                *bad = e;
                return RECORDS_ORDER;
            }
        }
        t.lo = a;
        t.hi = b;
        t.full = b - a == n;
        for (int64_t e = a; e < b; e++) {
            const int64_t v = vertex[e];
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
            const int64_t p0 = lp_indptr[e], p1 = lp_indptr[e + 1];
            if (p0 < 0 || p1 < p0 || p1 > lp_len || p1 - p0 != light_depth[e]) {
                *bad = e;
                return RECORDS_LIGHT;
            }
            const step_rec *row = step + g_indptr[v];
            ent_rec *r = &ent[e];
            r->vertex = (int32_t)v;
            r->f = f[e];
            r->finish = finish[e];
            r->heavy_finish = heavy_finish[e];
            r->light_depth = light_depth[e];
            r->parent_port = (int32_t)pp;
            r->heavy_port = (int32_t)hp;
            r->lp_off = (int32_t)p0;
            const int64_t parent =
                resolve_move(&t, row, pp, parent_hint ? parent_hint[e] : -1,
                             &r->parent_epos, &r->parent_wt, &r->parent_edge);
            resolve_move(&t, row, hp, heavy_hint ? heavy_hint[e] : -1,
                         &r->heavy_epos, &r->heavy_wt, &r->heavy_edge);
            if (parent_hint)
                differ += r->parent_epos != parent_hint[e] ||
                          r->heavy_epos != heavy_hint[e] ||
                          parent != parent_vertex[e];
        }
    }
    *rejected = differ;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Load and build: the columns derived instead of stored              */
/* ------------------------------------------------------------------ */

/* Return codes of tz_derive_entries: keep in sync with
 * kernels/records.py.  Each names what the pass refused at *bad. */
#define DERIVE_MEMBER (-1) /* a member outside [0, n) */
#define DERIVE_DFS (-2)    /* DFS numbers not a permutation of the tree */
#define DERIVE_LINK (-3)   /* a parent link outside its tree or below it */
#define DERIVE_LIGHT (-4)  /* light-port slices not back to back in lp_data */

/* Derive, for entries [lo, hi) (cut where a tree of tree_indptr ends),
 * what a scheme container does not store, and any scheme's entry keys
 * and centers, each output NULL when not wanted:
 *
 * - keys = tree * n + member and center = tree, the tree being the
 *   block of tree_indptr holding the entry;
 * - parent = the member of the parent link, -1 at the root (the SPT
 *   parent, since the links are the build's own);
 * - dist, top down in DFS order (a parent's DFS number is below its
 *   child's): 0 at the root, else dist(parent link) + parent_wt, the
 *   float64 sum the build's tight-arc parents satisfy exactly;
 * - lp_indptr = lp_off of each entry (the caller writes row E);
 * - label_bits, each entry's encoded tree-label bits (label_bits_of).
 *
 * Keys and centers read the members only: ent and lp_data may then be
 * NULL, and are read only for the outputs that need them.  The records
 * may come from an unverified map, so whatever is read through is
 * checked first, in this order per tree: members (for keys and parent),
 * DFS numbers and parent links (for dist and parent), light-port
 * slices, each starting where the last ends and inside lp_data (for
 * lp_indptr and label_bits).  order is scratch of E int32 rows, written
 * only inside the range (NULL unless dist is wanted).  Returns 0 or a
 * DERIVE_* code with the entry at *bad. */
int64_t tz_derive_entries(
    int64_t n,
    int64_t lo,
    int64_t hi,
    const int64_t *tree_indptr,      /* (n+1) entry slice per tree */
    const int32_t *member,           /* (E) member per entry */
    const ent_rec *ent,              /* (E) entry records, or NULL */
    const void *lp_data,             /* (lp_len) light ports, or NULL */
    int64_t lp_width,                /* bytes per light port: 1 or 4 */
    int64_t lp_len,
    int32_t *order,                  /* scratch (E), or NULL */
    int64_t *keys,                   /* out (E), or NULL */
    int32_t *center,                 /* out (E), or NULL */
    int32_t *parent,                 /* out (E), or NULL */
    double *dist,                    /* out (E), or NULL */
    int64_t *lp_indptr,              /* out (E+1), or NULL */
    int32_t *label_bits,             /* out (E), or NULL */
    int64_t *bad)                    /* out: the refused entry */
{
    if (lo >= hi)
        return 0;
    const int light = lp_indptr || label_bits;
    /* slices lie back to back from 0: the range's first one starts where
     * the entry before it ends, as in a one-range pass */
    int64_t next_off = 0;
    if (light && lo)
        next_off = (int64_t)ent[lo - 1].lp_off + ent[lo - 1].light_depth;
    for (int64_t c = block_of(n, tree_indptr, lo); c < n && tree_indptr[c] < hi; c++) {
        const int64_t a = tree_indptr[c], b = tree_indptr[c + 1], size = b - a;
        for (int64_t e = a; e < b; e++) {
            const int64_t v = member[e];
            if ((keys || parent) && (v < 0 || v >= n)) {
                *bad = e;
                return DERIVE_MEMBER;
            }
            if (keys)
                keys[e] = c * n + v;
            if (center)
                center[e] = (int32_t)c;
        }
        if (dist || parent) {
            for (int64_t e = a; e < b; e++) {
                const int64_t pe = ent[e].parent_epos;
                if (pe != -1 && (pe < a || pe >= b || ent[pe].f >= ent[e].f)) {
                    *bad = e;
                    return DERIVE_LINK;
                }
                if (parent)
                    parent[e] = pe < 0 ? -1 : member[pe];
            }
        }
        if (dist) {
            for (int64_t e = a; e < b; e++)
                order[e] = -1;
            for (int64_t e = a; e < b; e++) {
                const int64_t at = ent[e].f;
                if (at < 0 || at >= size || order[a + at] >= 0) {
                    *bad = e;
                    return DERIVE_DFS;
                }
                order[a + at] = (int32_t)e;
            }
            /* DFS order: every parent link is summed before its child */
            for (int64_t i = a; i < b; i++) {
                const int64_t e = order[i], pe = ent[e].parent_epos;
                dist[e] = pe < 0 ? 0.0 : dist[pe] + ent[e].parent_wt;
            }
        }
        if (light) {
            for (int64_t e = a; e < b; e++) {
                const int64_t off = ent[e].lp_off, depth = ent[e].light_depth;
                if (off != next_off || depth < 0 || off + depth > lp_len) {
                    *bad = e;
                    return DERIVE_LIGHT;
                }
                next_off = off + depth;
                if (lp_indptr)
                    lp_indptr[e] = off;
                if (label_bits)
                    label_bits[e] = (int32_t)label_bits_of(size, lp_data, lp_width, off, depth);
            }
        }
    }
    return 0;
}

/* Encoded tree-label bits (label_bits_of) of entries [lo, hi), cut
 * where a tree of tree_indptr ends, from a light-port CSR: entry e's
 * ports are lp_data[lp_indptr[e] .. lp_indptr[e+1]).  A built or patched
 * scheme holds that CSR and no records, so this is its label-bit
 * column; the derive pass makes the same column from a loaded scheme's
 * records.  Returns 0, or -1 at the first slice that does not ascend
 * inside [0, lp_len]. */
int64_t tz_label_bits(
    int64_t n,
    int64_t lo,
    int64_t hi,
    const int64_t *tree_indptr,      /* (n+1) entry slice per tree */
    const int64_t *lp_indptr,        /* (E+1) light-port slices */
    const void *lp_data,             /* (lp_len) light ports */
    int64_t lp_width,                /* bytes per light port: 1 or 4 */
    int64_t lp_len,
    int32_t *label_bits)             /* out (E) */
{
    if (lo >= hi)
        return 0;
    for (int64_t c = block_of(n, tree_indptr, lo); c < n && tree_indptr[c] < hi; c++) {
        const int64_t a = tree_indptr[c], b = tree_indptr[c + 1];
        for (int64_t e = a; e < b; e++) {
            const int64_t p0 = lp_indptr[e], p1 = lp_indptr[e + 1];
            if (p0 < 0 || p1 < p0 || p1 > lp_len)
                return -1;
            label_bits[e] = (int32_t)label_bits_of(b - a, lp_data, lp_width, p0, p1 - p0);
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Patch: splice                                                       */
/* ------------------------------------------------------------------ */

/* How tz_splice moves a column's rows: keep in sync with
 * kernels/splice.py.  A column is 1, 4 or 8 bytes a row (widths[c]):
 * entry links are int32 and light-port offsets int64 by the width rule,
 * a float column 8 bytes, a plain column any of the three (the light
 * ports are uint8 or int32). */
#define SPLICE_COPY 0   /* integer rows as they lie */
#define SPLICE_REAL 1   /* float64 rows as they lie (compared as doubles) */
#define SPLICE_LINK 2   /* int32 entry links: v >= 0 moves by at - src, else -1 */
#define SPLICE_OFFSET 3 /* int64 light-port offsets: every row moves by shift[r] */

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
    const int64_t *widths,           /* (ncols) bytes a row: 1, 4 or 8 */
    const void *const *old,          /* (ncols) the parent's columns */
    const void *const *fresh,        /* (ncols) the rebuild's columns */
    void *const *out)                /* (ncols) output columns */
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
        const int64_t len = row1 - row0;
        for (int64_t c = 0; c < ncols; c++) {
            const int64_t kind = kinds[c], width = widths[c];
            const char *col = (const char *)(dirty[r] ? fresh[c] : old[c]) + from * width;
            char *dst = (char *)out[c] + row0 * width;
            if (kind == SPLICE_LINK && link_shift != 0) {
                const int32_t *x = (const int32_t *)col;
                int32_t *y = (int32_t *)dst;
                for (int64_t i = 0; i < len; i++)
                    y[i] = x[i] >= 0 ? (int32_t)(x[i] + link_shift) : -1;
            } else if (kind == SPLICE_OFFSET) {
                const int64_t *x = (const int64_t *)col;
                int64_t *y = (int64_t *)dst;
                for (int64_t i = 0; i < len; i++)
                    y[i] = x[i] + offset;
            } else {
                memcpy(dst, col, (size_t)(len * width));
            }
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
    const int64_t *widths,           /* (ncols) bytes a row: 1, 4 or 8 */
    const void *const *old,
    const void *const *fresh,
    int64_t *same)                   /* out (ncols) */
{
    for (int64_t c = 0; c < ncols; c++) {
        const int64_t kind = kinds[c], width = widths[c];
        int equal = 1;
        for (int64_t r = 0; equal && r < nruns; r++) {
            if (!dirty[r])
                continue;
            const int64_t len = at[r + 1] - at[r];
            const int64_t link_shift = at[r] - src[r];
            const char *col = (const char *)fresh[c] + src[r] * width;
            const char *was = (const char *)old[c] + at[r] * width;
            if (kind == SPLICE_REAL) {
                const double *x = (const double *)col, *y = (const double *)was;
                for (int64_t i = 0; equal && i < len; i++)
                    equal = x[i] == y[i];
            } else if (kind == SPLICE_LINK && link_shift != 0) {
                const int32_t *x = (const int32_t *)col, *y = (const int32_t *)was;
                for (int64_t i = 0; equal && i < len; i++)
                    equal = (x[i] >= 0 ? x[i] + link_shift : -1) == y[i];
            } else {
                /* integers: equal values are equal bytes */
                equal = memcmp(col, was, (size_t)(len * width)) == 0;
            }
        }
        same[c] = equal;
    }
}

/* ------------------------------------------------------------------ */
/* Patch and build: label positions                                   */
/* ------------------------------------------------------------------ */

/* Label entry positions of vertices [lo, hi): row 0 the entry (v, v),
 * row i the entry (pivot[i][v], v), each found in its tree's slice of
 * the member column.  Levels go in order, so the return is 0 or
 * 1 + the lowest level whose entry some vertex of the range lacks. */
int64_t tz_label_positions(
    int64_t n,
    int64_t k,
    int64_t lo,
    int64_t hi,
    const int64_t *cl_indptr,        /* (n+1) entry slice per center */
    const int32_t *member,           /* (E) member per entry */
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
                    pos = member[a + v] == v ? a + v : -1;
                else
                    pos = find_member(member, a, b, v);
            }
            if (pos < 0)
                return 1 + i;
            lab[i * n + v] = pos;
        }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Draw passes: gnp edge skipping and per-row port permutations        */
/* ------------------------------------------------------------------ */

/* Both passes draw from a numpy BitGenerator through the function
 * pointers of its `ctypes` interface, one call per draw, as numpy's own
 * C code calls them, so they consume the stream draw for draw like the
 * numpy loops they replace and leave the generator in the same state.
 * The caller holds the generator's lock for the whole pass. */
typedef double (*next_double_fn)(void *state);
typedef uint32_t (*next_uint32_fn)(void *state);

/* Return code of tz_gnp_edges: keep in sync with kernels/draws.py. */
#define GNP_OOM (-1)      /* the edge buffer could not grow */
#define GNP_INF_SKIP (-2) /* a skip of +inf (p below ~1e-307) */

/* Edges of G(n, p), 0 < p < 1, by geometric skipping over the
 * linearized lower triangle (Batagelj & Brandes 2005): the same
 * arithmetic as generators._gnp_loop, libm's log (Python's math.log)
 * and floor on the same doubles, every integer exact in int64 (n <
 * 2^31).  Writes (v, u) with v < u per edge, ascending in u*(u-1)/2 + v,
 * into *out (free it with tz_free) and returns the edge count. */
int64_t tz_gnp_edges(
    int64_t n,
    double log_q,                    /* log1p(-p) < 0 */
    void *state,
    next_double_fn next_double,
    int64_t **out)
{
    const int64_t total = n * (n - 1) / 2;
    int64_t *edges = NULL;
    int64_t count = 0, cap = 0, idx = -1;
    for (;;) {
        const double skip = floor(log(1.0 - next_double(state)) / log_q);
        if (isinf(skip)) {
            os_free(edges);
            return GNP_INF_SKIP;
        }
        /* The loop ends once idx + 1 + skip >= total; skip is integral
         * and below 2^62 compares exactly as an int64. */
        const int64_t room = total - idx - 1;
        if (skip >= 0x1p62 || (int64_t)skip >= room)
            break;
        idx += 1 + (int64_t)skip;
        int64_t u = (int64_t)((1.0 + sqrt(1.0 + 8.0 * (double)idx)) / 2.0);
        while (u * (u - 1) / 2 > idx)
            u--;
        while ((u + 1) * u / 2 <= idx)
            u++;
        if (count == cap) {
            const int64_t nc = cap ? 2 * cap : 4096;
            int64_t *ne = os_grow(edges, (size_t)count * 2 * sizeof(int64_t),
                                  (size_t)nc * 2 * sizeof(int64_t));
            if (!ne) {
                os_free(edges);
                return GNP_OOM;
            }
            edges = ne;
            cap = nc;
        }
        edges[2 * count] = idx - u * (u - 1) / 2;
        edges[2 * count + 1] = u;
        count++;
    }
    *out = edges;
    return count;
}

/* numpy's random_interval: uniform in [0, max] by masked rejection on
 * 32-bit draws (every max here is a degree below 2^31). */
static inline int64_t draw_interval(void *state, next_uint32_fn next_uint32,
                                    uint32_t max)
{
    uint32_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = next_uint32(state) & mask) > max)
        ;
    return value;
}

/* port_of_arc for the "random" assignment: row u's ports are
 * Generator.permutation(deg(u)) + 1, rows in vertex order — the
 * Fisher-Yates pass numpy's shuffle makes over arange(deg), one
 * random_interval(i) per i from deg-1 down to 1. */
void tz_permute_rows(
    int64_t n,
    const int64_t *indptr,           /* (n+1) */
    void *state,
    next_uint32_fn next_uint32,
    int64_t *ports)                  /* out (indptr[n]) */
{
    for (int64_t u = 0; u < n; u++) {
        int64_t *row = ports + indptr[u];
        const int64_t deg = indptr[u + 1] - indptr[u];
        for (int64_t i = 0; i < deg; i++)
            row[i] = i;
        for (int64_t i = deg - 1; i >= 1; i--) {
            const int64_t j = draw_interval(state, next_uint32, (uint32_t)i);
            const int64_t t = row[i];
            row[i] = row[j];
            row[j] = t;
        }
        for (int64_t i = 0; i < deg; i++)
            row[i] += 1;
    }
}

/* Release a buffer handed out by tz_frontier_sweep or tz_gnp_edges. */
void tz_free(void *p)
{
    os_free(p);
}
