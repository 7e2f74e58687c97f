/*
 * Compiled Lin-Kernighan core: one call per LinKernighan.optimize().
 *
 * A line-by-line port of the row tier in lin_kernighan.py (the
 * don't-look queue, the breadth-limited DFS with backtracking, the
 * candidate scans, the 2-opt flips and their undo).  The contract is
 * bit-identity with that tier: the same final tour, the same tour-length
 * delta, the same OpStats counters and the same WorkMeter charges.  Three
 * details carry that contract and are easy to get wrong:
 *
 *   - meter: ``scanned`` is charged per candidate scan (the breaking
 *     candidate included) and ``swaps + 1`` per flip (undo flips
 *     included); exhaustion is tested where the Python code tests it,
 *     as ``ops >= budget`` in double precision;
 *   - candidate order: the full tuple (score, duv, dvw, v, w) sorted
 *     descending, then truncated to the level's breadth;
 *   - wake order: after an improving chain the touched cities are queued
 *     in CPython ``set`` iteration order, reproduced here by a small
 *     emulation of CPython's open-addressing set table (see set_add).
 *
 * All distances and gains are int64.  The caller (lkcore.py) owns every
 * array; this file allocates only per-call scratch.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LINEAR_PROBES 9
#define PERTURB_SHIFT 5
#define SET_MINSIZE 8

typedef struct {
    int64_t score, duv, dvw, v, w;
} Cand;

typedef struct {
    int64_t n, K;
    int64_t *order, *pos;
    const int64_t *D;
    const int32_t *cand, *width;
    const int64_t *breadth;
    int64_t max_depth;
    const int64_t *fixed;
    int64_t nfixed;
    int64_t ops;
    double budget;
    /* OpStats counters and the running tour-length delta */
    int64_t scans, applied, undone, swaps, delta_len;
    /* one chain: base city, flip stack (u, v, w), removed/added edges */
    int64_t t1;
    int64_t *flips, nflips;
    int64_t *rem, nrem;
    int64_t *add, nadd;
    int64_t best_delta, best_len;
    /* the touched-city set (CPython set table emulation) */
    int64_t *tab, *tmp;
    uint64_t mask;
    int64_t fill;
    Cand *cbuf;
} LK;

/* -- CPython set emulation --------------------------------------------------
 * hash(c) == c for the small non-negative ints used as city ids; no
 * deletions ever happen, so the table holds no dummies and fill == used.
 */

static void set_reset(LK *s)
{
    s->mask = SET_MINSIZE - 1;
    s->fill = 0;
    for (int i = 0; i < SET_MINSIZE; i++)
        s->tab[i] = -1;
}

static void set_insert_clean(int64_t *tab, uint64_t mask, int64_t key)
{
    uint64_t perturb = (uint64_t)key;
    uint64_t i = (uint64_t)key & mask;
    for (;;) {
        if (tab[i] < 0) {
            tab[i] = key;
            return;
        }
        if (i + LINEAR_PROBES <= mask) {
            for (uint64_t j = 1; j <= LINEAR_PROBES; j++) {
                if (tab[i + j] < 0) {
                    tab[i + j] = key;
                    return;
                }
            }
        }
        perturb >>= PERTURB_SHIFT;
        i = (i * 5 + 1 + perturb) & mask;
    }
}

static void set_resize(LK *s, int64_t minused)
{
    uint64_t newsize = SET_MINSIZE;
    while (newsize <= (uint64_t)minused)
        newsize <<= 1;
    int64_t m = 0;
    for (uint64_t i = 0; i <= s->mask; i++)
        if (s->tab[i] >= 0)
            s->tmp[m++] = s->tab[i];
    for (uint64_t i = 0; i < newsize; i++)
        s->tab[i] = -1;
    s->mask = newsize - 1;
    for (int64_t k = 0; k < m; k++)
        set_insert_clean(s->tab, s->mask, s->tmp[k]);
}

static void set_add(LK *s, int64_t key)
{
    uint64_t mask = s->mask;
    uint64_t perturb = (uint64_t)key;
    uint64_t i = (uint64_t)key & mask;
    int64_t *tab = s->tab;
    for (;;) {
        uint64_t e = i;
        int probes = (i + LINEAR_PROBES <= mask) ? LINEAR_PROBES : 0;
        do {
            if (tab[e] < 0) {
                tab[e] = key;
                s->fill++;
                if ((uint64_t)s->fill * 5 >= mask * 3)
                    set_resize(s, s->fill > 50000 ? s->fill * 2 : s->fill * 4);
                return;
            }
            if (tab[e] == key)
                return;
            e++;
        } while (probes--);
        perturb >>= PERTURB_SHIFT;
        i = (i * 5 + 1 + perturb) & mask;
    }
}

/* -- tour primitives ------------------------------------------------------ */

static inline int exhausted(const LK *s)
{
    return (double)s->ops >= s->budget;
}

static inline int64_t next_city(const LK *s, int64_t c)
{
    int64_t p = s->pos[c] + 1;
    return s->order[p == s->n ? 0 : p];
}

static inline int64_t prev_city(const LK *s, int64_t c)
{
    int64_t p = s->pos[c];
    return s->order[p == 0 ? s->n - 1 : p - 1];
}

/* Tour.reverse_segment: reverse positions i..j (mod n), or the shorter
 * complement; returns the number of element swaps. */
static int64_t reverse_segment(LK *s, int64_t i, int64_t j)
{
    int64_t n = s->n;
    int64_t inner = (j - i + n) % n + 1;
    if (inner > n - inner) {
        int64_t ni = (j + 1) % n, nj = (i - 1 + n) % n;
        i = ni;
        j = nj;
        inner = n - inner;
    }
    int64_t swaps = inner / 2;
    int64_t *order = s->order, *pos = s->pos;
    for (int64_t k = 0; k < swaps; k++) {
        int64_t a = i + k, b = i + inner - 1 - k;
        if (a >= n)
            a -= n;
        if (b >= n)
            b -= n;
        int64_t ca = order[a], cb = order[b];
        order[a] = cb;
        order[b] = ca;
        pos[cb] = a;
        pos[ca] = b;
    }
    return swaps;
}

/* LinKernighan._apply_flip: remove {t1,u},{v,w}, add {t1,w},{u,v}. */
static int64_t apply_flip(LK *s, int64_t t1, int64_t u, int64_t v, int64_t w)
{
    const int64_t *D = s->D;
    int64_t n = s->n;
    int64_t delta = D[t1 * n + w] + D[u * n + v] - D[t1 * n + u] - D[v * n + w];
    int64_t moved;
    if (next_city(s, t1) == u)
        moved = reverse_segment(s, s->pos[u], s->pos[w]);
    else
        moved = reverse_segment(s, s->pos[w], s->pos[u]);
    s->delta_len += delta;
    s->swaps += moved;
    s->ops += moved + 1;
    return delta;
}

/* -- edge sets -------------------------------------------------------------
 * ``removed``/``added`` hold both orientations of each edge in Python; an
 * edge enters each set at most once and leaves in LIFO order, so a stack
 * of undirected pairs with a linear scan is the same set.
 */

static inline int has_edge(const int64_t *e, int64_t ne, int64_t a, int64_t b)
{
    for (int64_t k = 0; k < ne; k++) {
        int64_t x = e[2 * k], y = e[2 * k + 1];
        if ((x == a && y == b) || (x == b && y == a))
            return 1;
    }
    return 0;
}

/* ``(a, b) in fixed``: directed keys a*n+b, sorted ascending. */
static int is_fixed(const LK *s, int64_t a, int64_t b)
{
    int64_t key = a * s->n + b, lo = 0, hi = s->nfixed;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (s->fixed[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < s->nfixed && s->fixed[lo] == key;
}

/* -- the search ------------------------------------------------------------ */

static inline int cand_greater(const Cand *a, const Cand *b)
{
    if (a->score != b->score)
        return a->score > b->score;
    if (a->duv != b->duv)
        return a->duv > b->duv;
    if (a->dvw != b->dvw)
        return a->dvw > b->dvw;
    if (a->v != b->v)
        return a->v > b->v;
    return a->w > b->w;
}

/* LinKernighan._candidates: valid (v, w) continuations from u, best-first,
 * at most ``breadth`` of them. */
static int64_t candidates(LK *s, int64_t u, int64_t g, Cand *out,
                          int64_t breadth)
{
    const int64_t *D = s->D, *order = s->order, *pos = s->pos;
    int64_t n = s->n, t1 = s->t1;
    int forward = next_city(s, t1) == u;
    const int32_t *row = s->cand + u * s->K;
    int64_t width = s->width[u], nc = 0, scanned = 0;
    for (int64_t k = 0; k < width; k++) {
        int64_t v = row[k];
        scanned++;
        int64_t duv = D[u * n + v];
        if (duv >= g)
            break;
        if (v == t1 || v == u)
            continue;
        if (has_edge(s->rem, s->nrem, u, v))
            continue;
        int64_t p = pos[v], w;
        if (forward)
            w = order[p == 0 ? n - 1 : p - 1];
        else
            w = order[p + 1 == n ? 0 : p + 1];
        if (w == t1 || w == u)
            continue;
        if (has_edge(s->add, s->nadd, v, w) || has_edge(s->rem, s->nrem, v, w))
            continue;
        if (s->nfixed && is_fixed(s, v, w))
            continue;
        int64_t dvw = D[v * n + w];
        Cand c = {g - duv + dvw, duv, dvw, v, w};
        int64_t i = nc++;
        while (i > 0 && cand_greater(&c, &out[i - 1])) {
            out[i] = out[i - 1];
            i--;
        }
        out[i] = c;
    }
    s->ops += scanned;
    s->scans += scanned;
    return nc < breadth ? nc : breadth;
}

static void undo_to(LK *s, int64_t k)
{
    while (s->nflips > k) {
        s->nflips--;
        const int64_t *f = s->flips + 3 * s->nflips;
        apply_flip(s, s->t1, f[2], f[1], f[0]);
        s->undone++;
        s->nrem--;
        s->nadd--;
    }
}

static int dfs(LK *s, int64_t u, int64_t g, int64_t delta, int64_t level)
{
    if (level >= s->max_depth || exhausted(s))
        return 0;
    Cand *cands = s->cbuf + level * s->K;
    int64_t nc = candidates(s, u, g, cands, s->breadth[level]);
    for (int64_t i = 0; i < nc; i++) {
        int64_t v = cands[i].v, w = cands[i].w;
        int64_t d = apply_flip(s, s->t1, u, v, w);
        s->applied++;
        int64_t *f = s->flips + 3 * s->nflips++;
        f[0] = u;
        f[1] = v;
        f[2] = w;
        s->rem[2 * s->nrem] = v;
        s->rem[2 * s->nrem + 1] = w;
        s->nrem++;
        s->add[2 * s->nadd] = u;
        s->add[2 * s->nadd + 1] = v;
        s->nadd++;
        set_add(s, u);
        set_add(s, v);
        set_add(s, w);
        int64_t nd = delta + d;
        int64_t ng = g - cands[i].duv + cands[i].dvw;
        if (nd < s->best_delta) {
            s->best_delta = nd;
            s->best_len = s->nflips;
            /* First improvement: extend greedily from here, then stop. */
            dfs(s, w, ng, nd, level + 1);
            return 1;
        }
        if (dfs(s, w, ng, nd, level + 1))
            return 1;
        undo_to(s, s->nflips - 1);
    }
    return 0;
}

/* LinKernighan._search_chain; the touched set is left in s->tab. */
static int64_t search_chain(LK *s, int64_t t1, int64_t u0)
{
    s->t1 = t1;
    s->nflips = 0;
    s->rem[0] = t1;
    s->rem[1] = u0;
    s->nrem = 1;
    s->nadd = 0;
    set_reset(s);
    set_add(s, t1);
    set_add(s, u0);
    s->best_delta = 0;
    s->best_len = 0;
    dfs(s, u0, s->D[t1 * s->n + u0], 0, 0);
    if (s->best_delta < 0) {
        undo_to(s, s->best_len);
        return -s->best_delta;
    }
    undo_to(s, 0);
    return 0;
}

/* LinKernighan._improve_city */
static int64_t improve_city(LK *s, int64_t t1)
{
    int64_t ends[2] = {next_city(s, t1), prev_city(s, t1)};
    for (int k = 0; k < 2; k++) {
        int64_t u0 = ends[k];
        if (s->nfixed && is_fixed(s, t1, u0))
            continue;
        int64_t gain = search_chain(s, t1, u0);
        if (gain > 0)
            return gain;
        if (exhausted(s))
            break;
    }
    return 0;
}

static int64_t set_capacity(int64_t n)
{
    int64_t cap = SET_MINSIZE;
    while (cap <= 4 * n)
        cap <<= 1;
    return cap;
}

/*
 * LinKernighan.optimize.  ``seed``/``nseed`` is the dirty list in the
 * caller's iteration order (nseed < 0: every city, in tour order);
 * ``fixed`` holds nfixed sorted directed keys a*n+b.  ``io[0]`` carries
 * the meter's ops in and out; on return io[1..8] hold the tour-length
 * delta, the total gain, then the OpStats counters moves, candidate_scans,
 * flips_applied, flips_undone, segment_swaps, queue_wakeups.
 * Returns 0, or -1 when scratch memory could not be allocated.
 */
int lk_optimize(int64_t n, int64_t *order, int64_t *pos, const int64_t *D,
                const int32_t *cand, const int32_t *width, int64_t K,
                const int64_t *breadth, int64_t max_depth,
                const int64_t *seed, int64_t nseed,
                const int64_t *fixed, int64_t nfixed,
                double budget, int64_t *io)
{
    LK s;
    memset(&s, 0, sizeof s);
    s.n = n;
    s.K = K;
    s.order = order;
    s.pos = pos;
    s.D = D;
    s.cand = cand;
    s.width = width;
    s.breadth = breadth;
    s.max_depth = max_depth;
    s.fixed = fixed;
    s.nfixed = nfixed;
    s.ops = io[0];
    s.budget = budget;

    int64_t cap = set_capacity(n);
    int64_t *queue = malloc(sizeof(int64_t) * (size_t)n);
    char *in_queue = calloc((size_t)n, 1);
    s.flips = malloc(sizeof(int64_t) * 3 * (size_t)max_depth);
    s.rem = malloc(sizeof(int64_t) * 2 * (size_t)(max_depth + 1));
    s.add = malloc(sizeof(int64_t) * 2 * (size_t)max_depth);
    s.tab = malloc(sizeof(int64_t) * (size_t)cap);
    s.tmp = malloc(sizeof(int64_t) * (size_t)n);
    s.cbuf = malloc(sizeof(Cand) * (size_t)max_depth * (size_t)(K > 0 ? K : 1));
    int rc = 0;
    if (!queue || !in_queue || !s.flips || !s.rem || !s.add || !s.tab ||
        !s.tmp || !s.cbuf) {
        rc = -1;
        goto done;
    }

    int64_t head = 0, len = 0;
    if (nseed < 0) {
        for (int64_t k = 0; k < n; k++)
            queue[k] = order[k];
        memset(in_queue, 1, (size_t)n);
        len = n;
    } else {
        for (int64_t k = 0; k < nseed; k++) {
            int64_t c = seed[k];
            if (!in_queue[c]) {
                in_queue[c] = 1;
                queue[len++] = c;
            }
        }
    }

    int64_t total = 0, moves = 0, wakeups = 0;
    while (len > 0 && !exhausted(&s)) {
        int64_t t1 = queue[head];
        head = head + 1 == n ? 0 : head + 1;
        len--;
        in_queue[t1] = 0;
        int64_t gain = improve_city(&s, t1);
        if (gain > 0) {
            total += gain;
            moves++;
            for (uint64_t k = 0; k <= s.mask; k++) {
                int64_t c = s.tab[k];
                if (c >= 0 && !in_queue[c]) {
                    in_queue[c] = 1;
                    int64_t tail = head + len;
                    queue[tail >= n ? tail - n : tail] = c;
                    len++;
                    wakeups++;
                }
            }
        }
    }

    io[0] = s.ops;
    io[1] = s.delta_len;
    io[2] = total;
    io[3] = moves;
    io[4] = s.scans;
    io[5] = s.applied;
    io[6] = s.undone;
    io[7] = s.swaps;
    io[8] = wakeups;

done:
    free(queue);
    free(in_queue);
    free(s.flips);
    free(s.rem);
    free(s.add);
    free(s.tab);
    free(s.tmp);
    free(s.cbuf);
    return rc;
}

/*
 * Iteration order of a CPython set built by adding ``keys`` in order
 * (the load-time self-check of the emulation).  ``out`` needs room for
 * nkeys entries; returns the number of distinct keys, or -1 on
 * allocation failure.  Keys must lie in [0, n).
 */
int64_t lk_set_order(const int64_t *keys, int64_t nkeys, int64_t n,
                     int64_t *out)
{
    LK s;
    memset(&s, 0, sizeof s);
    s.tab = malloc(sizeof(int64_t) * (size_t)set_capacity(n));
    s.tmp = malloc(sizeof(int64_t) * (size_t)n);
    if (!s.tab || !s.tmp) {
        free(s.tab);
        free(s.tmp);
        return -1;
    }
    set_reset(&s);
    for (int64_t k = 0; k < nkeys; k++)
        set_add(&s, keys[k]);
    int64_t m = 0;
    for (uint64_t k = 0; k <= s.mask; k++)
        if (s.tab[k] >= 0)
            out[m++] = s.tab[k];
    free(s.tab);
    free(s.tmp);
    return m;
}
