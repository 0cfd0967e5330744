/* One outer iteration of the search on exact int64 gain caches, and the
 * random toy's matrix fill.
 *
 * lsils_iterate is the compiled form of the numpy reference
 * lsils.search.sample_distinct_positions + _perturb_in_place + _descend,
 * which it must match flip for flip. It first perturbs: the caller's
 * Fisher-Yates swap targets pick `bits` distinct positions P through an
 * n-slot scratch permutation (restored before the call returns), and every
 * cache takes one block update for flipping P. With v = sigma on P and 0
 * elsewhere (sigma = 1 - 2x before the flip) and t = Q v, each gain shifts
 * by 2 sigma_j t_j, each p in P becomes -(g_p + 2 sigma_p t_p - 2 Q_pp), and
 * the value changes by sum g_P + sigma_P . t_P - sum Q_pp. The caller
 * charges the perturbation before the call.
 *
 * It then descends: it scans the gains of the first cache (or the float
 * blend wo * g_0 + wt * g_1), flips the chosen bit through every cache with
 * the rank-1 update g_j += 2 sigma_k sigma_j Q_jk, g_k = -g_k, and charges
 * the budget exactly as the Python loop does: the candidates examined, then
 * n per applied flip. Log marks stay in Python: a charge that reaches
 * `threshold` is recorded as an event (evaluations, best value at that
 * charge), and the call returns once the flip that raised it is complete,
 * so the caller can emit its records and call again with bits = 0, which
 * only descends.
 *
 * Build: cc -O3 -ffp-contract=off -shared -fPIC. Contraction to FMA would
 * round the blend differently from numpy's separate multiply and add.
 * On x86-64 with glibc, lsils_iterate is built three times, for
 * x86-64-v4 (AVX-512), x86-64-v3 (AVX2) and baseline x86-64, and the
 * dynamic loader picks the clone the CPU runs (an ifunc); its helpers are
 * always inlined, so each clone gets its own vector code. The library file
 * stays the same on every x86-64 CPU, which is why -march=native is not
 * used. Elsewhere the plain function is built.
 */
#include <stdint.h>
#include <string.h>

#ifdef __has_attribute
#if __has_attribute(always_inline)
#define HOT static inline __attribute__((always_inline))
#endif
#if defined(__x86_64__) && defined(__GLIBC__) && __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
#endif
#ifndef HOT
#define HOT static inline
#endif
#ifndef CLONES
#define CLONES
#endif

enum { FORM_DENSE = 0, FORM_PLUS_MINUS_ONE = 1, FORM_PLUS_MINUS_I = 2 };

/* Layout of the int64 state vector shared with the caller. */
enum {
    ST_VALUE,      /* in/out: exact objective of the first cache's form */
    ST_CONSUMED,   /* in/out: evaluations charged so far */
    ST_THRESHOLD,  /* in: a charge reaching this count records an event */
    ST_TRACK,      /* in: 1 when the best value and solution are tracked */
    ST_BEST,       /* in/out: best value seen */
    ST_IMPROVED,   /* out: 1 when best_x holds a new best solution */
    ST_EVENTS,     /* out: number of events recorded, at most two */
    ST_EVENT0,     /* out: (evaluations, best) of each event */
    ST_SIZE = ST_EVENT0 + 4
};

typedef struct {
    int64_t kind;          /* FORM_* */
    const int64_t *q;      /* FORM_DENSE: the n x n matrix, row-major */
    const int8_t *anchor;  /* toys: entry (j, k) is +m when both bits are 1, else -m */
    int64_t *gains;
    int64_t *sigma;        /* 1 - 2x */
    int8_t *x;
} lsils_cache;

/* Flip bit k of one cache: gains, sigma and solution in O(n). */
HOT void apply_flip(const lsils_cache *c, int64_t n, int64_t k)
{
    int64_t *restrict g = c->gains;
    int64_t *restrict s = c->sigma;
    int64_t old = g[k], sk = s[k], step = 2 * sk;
    int64_t j;

    if (c->kind == FORM_DENSE) {
        const int64_t *restrict row = c->q + k * n;
        for (j = 0; j < n; j++)
            g[j] += step * s[j] * row[j];
    } else {
        /* Q_jk = (2 a_j a_k - 1) m with m = 1 for the +-1 toy and
         * max(j, k) + 1 (one-based) for the +-i toy */
        const int8_t *restrict a = c->anchor;
        int64_t ak = a[k];
        if (c->kind == FORM_PLUS_MINUS_I) {
            for (j = 0; j < k; j++)
                g[j] += step * s[j] * (2 * (ak & a[j]) - 1) * (k + 1);
            for (j = k; j < n; j++)
                g[j] += step * s[j] * (2 * (ak & a[j]) - 1) * (j + 1);
        } else {
            for (j = 0; j < n; j++)
                g[j] += step * s[j] * (2 * (ak & a[j]) - 1);
        }
    }
    g[k] = -old;
    s[k] = -sk;
    c->x[k] ^= 1;
}

/* Q_pp of one cache's form. */
HOT int64_t diagonal(const lsils_cache *c, int64_t n, int64_t p)
{
    if (c->kind == FORM_DENSE)
        return c->q[p * n + p];
    return (c->anchor[p] ? 1 : -1) * (c->kind == FORM_PLUS_MINUS_I ? p + 1 : 1);
}

/* t = Q v for v = sigma on the positions P (before the flip), 0 elsewhere.
 * `v` is an all-zero n-slot scratch vector, left all zero again. */
HOT void flip_matvec(const lsils_cache *c, int64_t n, const int64_t *pos,
                     int64_t bits, int64_t *restrict v, int64_t *restrict t)
{
    const int64_t *s = c->sigma;
    const int8_t *a = c->anchor;
    int64_t i, j;

    if (c->kind == FORM_DENSE) {
        /* add the rows switched on, subtract the rows switched off */
        memset(t, 0, (size_t)n * sizeof *t);
        for (i = 0; i < bits; i++) {
            const int64_t *restrict row = c->q + pos[i] * n;
            if (s[pos[i]] > 0)
                for (j = 0; j < n; j++)
                    t[j] += row[j];
            else
                for (j = 0; j < n; j++)
                    t[j] -= row[j];
        }
    } else if (c->kind == FORM_PLUS_MINUS_ONE) {
        /* Q_jk = 2 a_j a_k - 1, so t_j = 2 a_j (a . v) - sum(v) */
        int64_t total = 0, on_anchor = 0;
        for (i = 0; i < bits; i++) {
            total += s[pos[i]];
            on_anchor += a[pos[i]] ? s[pos[i]] : 0;
        }
        for (j = 0; j < n; j++)
            t[j] = (a[j] ? 2 * on_anchor : 0) - total;
    } else {
        /* Q_jk = (2 a_j a_k - 1) M_jk with M_jk = max(j, k) + 1, so
         * t = 2 a (M (a v)) - M v, and (M u)_j = (j + 1) sum_{k <= j} u_k
         * + sum_{k > j} (k + 1) u_k takes one pass over prefix sums. */
        int64_t tail = 0, tail_a = 0, prefix = 0, prefix_a = 0;
        for (i = 0; i < bits; i++) {
            v[pos[i]] = s[pos[i]];
            tail += (pos[i] + 1) * s[pos[i]];
            tail_a += a[pos[i]] ? (pos[i] + 1) * s[pos[i]] : 0;
        }
        for (j = 0; j < n; j++) {
            int64_t u = v[j], ua = a[j] ? u : 0;
            prefix += u;
            prefix_a += ua;
            tail -= (j + 1) * u;
            tail_a -= (j + 1) * ua;
            t[j] = (a[j] ? 2 * ((j + 1) * prefix_a + tail_a) : 0) - ((j + 1) * prefix + tail);
        }
        for (i = 0; i < bits; i++)
            v[pos[i]] = 0;
    }
}

/* Flip the distinct positions P of one cache in one block update; returns
 * the exact change of its objective. */
HOT int64_t apply_flips(const lsils_cache *c, int64_t n, const int64_t *pos,
                        int64_t bits, int64_t *v, int64_t *t)
{
    int64_t *restrict g = c->gains;
    int64_t *restrict s = c->sigma;
    int64_t delta = 0, i, j;

    flip_matvec(c, n, pos, bits, v, t);
    for (i = 0; i < bits; i++) {
        int64_t p = pos[i];
        delta += g[p] + s[p] * t[p] - diagonal(c, n, p);
    }
    for (j = 0; j < n; j++)
        g[j] += 2 * s[j] * t[j];
    for (i = 0; i < bits; i++) {
        int64_t p = pos[i];
        g[p] = 2 * diagonal(c, n, p) - g[p];
        s[p] = -s[p];
        c->x[p] ^= 1;
    }
    return delta;
}

/* The Fisher-Yates picks of `targets` (targets[i] in [i, n)) into pos,
 * through `perm`, an identity permutation of n slots that is left as one. */
HOT void fisher_yates(const int64_t *targets, int64_t bits, int64_t *perm, int64_t *pos)
{
    int64_t i;

    for (i = 0; i < bits; i++) {
        pos[i] = perm[targets[i]];
        perm[targets[i]] = perm[i];
    }
    for (i = 0; i < bits; i++)
        perm[targets[i]] = targets[i];  /* the only slots the pass wrote */
}

/* The lowest index of the largest of v[0..n), n >= 1, and the largest in
 * *top. The max pass runs over 64-entry blocks, which vectorises (whole
 * blocks with a constant trip count, then the tail), and remembers the
 * first block whose maximum beats all blocks before it; the search for the
 * first entry equal to the maximum then reads only that block. */
enum { BLOCK = 64 };

HOT int64_t block_max(const int64_t *v, int64_t len)
{
    int64_t j, m = v[0];

    for (j = 0; j < len; j++)
        m = v[j] > m ? v[j] : m;
    return m;
}

HOT int64_t first_max(const int64_t *v, int64_t n, int64_t *top)
{
    int64_t j0, j, best = v[0], start = 0;

    for (j0 = 0; j0 + BLOCK <= n; j0 += BLOCK) {
        int64_t m = block_max(v + j0, BLOCK);
        if (m > best) {
            best = m;
            start = j0;
        }
    }
    if (j0 < n) {
        int64_t m = block_max(v + j0, n - j0);
        if (m > best) {
            best = m;
            start = j0;
        }
    }
    for (j = start; v[j] != best; j++)
        ;
    *top = best;
    return j;
}

/* The bit to flip, or -1 at a local optimum; *examined gets the scan's charge. */
HOT int64_t pick_int(const int64_t *g, int64_t n, int first, int64_t *examined)
{
    int64_t j, k, best;

    *examined = n;
    if (first) {
        for (j = 0; j < n; j++)
            if (g[j] > 0) {
                *examined = j + 1;
                return j;
            }
        return -1;
    }
    k = first_max(g, n, &best);
    return best > 0 ? k : -1;
}

/* As pick_int on the blend wo * go + wt * gt, rounded as in numpy.
 * The best-improvement scan writes the blend's bit patterns to `bits` and
 * runs the integer scan on them. A positive double orders like its bit
 * pattern read as int64, and a negative one or -0.0 reads as a negative
 * int64, +0.0 as 0; so the first maximum, taken only when positive, is the
 * same bit as in a scan of the doubles. The weights are finite (the Python
 * side rejects a NaN or infinite alpha), so the blend holds no NaN, whose
 * bit pattern would read above +inf. */
HOT int64_t pick_blend(const int64_t *go, const int64_t *gt, double wo, double wt,
                       int64_t n, int first, int64_t *restrict bits, int64_t *examined)
{
    int64_t j, k, best;

    *examined = n;
    if (first) {
        for (j = 0; j < n; j++) {
            double v = (double)go[j] * wo + (double)gt[j] * wt;
            if (v > 0.0) {
                *examined = j + 1;
                return j;
            }
        }
        return -1;
    }
    for (j = 0; j < n; j++) {
        double v = (double)go[j] * wo + (double)gt[j] * wt;
        memcpy(&bits[j], &v, sizeof v);
    }
    k = first_max(bits, n, &best);
    return best > 0 ? k : -1;
}

HOT void charge(int64_t *st, int64_t units)
{
    st[ST_CONSUMED] += units;
    if (st[ST_CONSUMED] >= st[ST_THRESHOLD]) {
        int64_t *event = st + ST_EVENT0 + 2 * st[ST_EVENTS];
        event[0] = st[ST_CONSUMED];
        event[1] = st[ST_BEST];
        st[ST_EVENTS] += 1;
    }
}

/* Perturb the `bits` positions the swap targets pick (none when bits is 0),
 * then descend until a local optimum (returns 0) or until a flip raised an
 * event (returns 1; call again with bits = 0 to continue). `scratch` holds
 * 4n slots: an identity permutation, then three scratch vectors of which the
 * second is all zero; both are left as found. The perturbation writes the
 * first and third vectors, and the blended scan writes the third. `blend`
 * selects the float pivot; caches[1] is read only when it is on. */
CLONES int64_t lsils_iterate(const lsils_cache *caches, int64_t n_caches, int64_t n,
                             int64_t first, int64_t blend, double wo, double wt,
                             const int64_t *targets, int64_t bits, int64_t *scratch,
                             int64_t *st, int8_t *best_x)
{
    const int64_t *g0 = caches[0].gains;
    int64_t *blended = scratch + 3 * n;
    int64_t i, k, examined;

    st[ST_EVENTS] = 0;
    st[ST_IMPROVED] = 0;
    if (bits > 0) {
        int64_t *pos = scratch + n, *v = scratch + 2 * n, *t = scratch + 3 * n;
        fisher_yates(targets, bits, scratch, pos);
        st[ST_VALUE] += apply_flips(&caches[0], n, pos, bits, v, t);
        for (i = 1; i < n_caches; i++)
            apply_flips(&caches[i], n, pos, bits, v, t);
    }
    for (;;) {
        if (blend)
            k = pick_blend(g0, n_caches > 1 ? caches[1].gains : g0, wo, wt, n,
                           (int)first, blended, &examined);
        else
            k = pick_int(g0, n, (int)first, &examined);
        charge(st, examined);
        if (k < 0)
            return 0;
        st[ST_VALUE] += g0[k];
        for (i = 0; i < n_caches; i++)
            apply_flip(&caches[i], n, k);
        charge(st, n);
        if (st[ST_TRACK] && st[ST_VALUE] > st[ST_BEST]) {
            st[ST_BEST] = st[ST_VALUE];
            memcpy(best_x, caches[0].x, (size_t)n);
            st[ST_IMPROVED] = 1;
        }
        if (st[ST_EVENTS])
            return 1;
    }
}

/* The random toy's n x n matrix; returns the largest draw. `draws` lists
 * its lower triangle, diagonal included, row by row; each draw w lands at
 * (i, j) and (j, i) as +w when anchor_i = anchor_j = 1 and as -w
 * otherwise. The lower triangle is written row by row, then mirrored tile
 * by tile, so that no pass writes with a stride of n. */
int64_t lsils_random_toy(const int64_t *draws, const int8_t *anchor, int64_t n, int64_t *q)
{
    enum { TILE = 32 };
    int64_t i, j, i0, j0, peak = 0;

    for (i = 0; i < n; i++) {
        int64_t *restrict row = q + i * n;
        for (j = 0; j <= i; j++) {
            int64_t w = draws[j];
            peak = w > peak ? w : peak;
            row[j] = (anchor[i] & anchor[j]) ? w : -w;
        }
        draws += i + 1;
    }
    for (i0 = 0; i0 < n; i0 += TILE)
        for (j0 = i0; j0 < n; j0 += TILE)
            for (i = i0; i < i0 + TILE && i < n; i++)
                for (j = j0 > i ? j0 : i + 1; j < j0 + TILE && j < n; j++)
                    q[i * n + j] = q[j * n + i];
    return peak;
}
