/* The search's perturb-and-descend iterations and gain-cache builds on exact
 * integer gain caches, and the random toy's magnitude fill.
 *
 * A cache's form is one of three codes (FORM_*). A dense form (FORM_DENSE)
 * is its n x n matrix, in the gain type of the entry point called. The toys
 * are anchored at a solution a, and their entries are (2 a_j a_k - 1) m_jk:
 * +m_jk when a_j = a_k = 1, else -m_jk. The +-1 and +-i toys are one
 * anchored form (FORM_ANCHORED), m_jk = max(w_j, w_k) for a weight vector
 * w in the gain type, all 1 or 1..n; the random toy (FORM_RANDOM) reads its
 * magnitudes m_jk from an n x n uint8 matrix, and every toy takes its signs
 * from the anchor.
 *
 * lsils_iterate_i32 and lsils_iterate_i64 are the search's only path, and
 * lsils_build_i32 and lsils_build_i64 build every gain cache the search
 * uses. They are written once below over the gain type GAIN and built for
 * int32 and int64 gain lanes: the gains, the signs sigma, the perturbation
 * vector t and the integer scans take that type, while the value, count,
 * best, marks, stamps and each perturbation's value change stay int64.
 * A run uses the int32 body only when every form it holds has
 *   (2n + 1) * max|entry| <= 2^31 - 1,
 * which bounds every gain, (2n - 1) max|entry|, and every intermediate of
 * the updates below: 2 Q_pp - g_p of the block update, and 2 t_j, of which
 * |t_j| <= n max|entry| (qubo.gain_dtype picks the width).
 *
 * A build starts from the cache at x = 0, whose gains are Q_jj and whose
 * signs are all 1, and flips the set bits of the cache's solution in one
 * block update (apply_flips below), which gives the gains at x and, as its
 * value change, the exact objective f(x).
 *
 * The iterations must match the numpy reference in tests/oracles.py
 * (swap_positions + perturb + descend) flip for flip. Their int64 state
 * vector is the run's only copy of its value, count, best and marks; best_x
 * holds the best solution. A call given no iterations descends once; one
 * given some runs them until the caller's next decision point, so control
 * returns to Python only when
 *   - an iteration would start at or past the count `stop` (the end of an
 *     evals budget, or the next lambda step of the schedule),
 *   - the swap targets of the `rounds` iterations given are used up, or
 *   - an iteration improved the best and `halt` is set (the smoothed search
 *     rebuilds its toy at the new best).
 *
 * An iteration first perturbs: `bits` swap targets pick distinct positions
 * P through an n-slot scratch permutation (restored before the call
 * returns), and every cache takes one block update for flipping P. With
 * v = sigma on P and 0 elsewhere (sigma = 1 - 2x before the flip) and
 * t = Q v, each gain shifts by 2 sigma_j t_j, each p in P becomes
 * -(g_p + 2 sigma_p t_p - 2 Q_pp), and the value changes by
 * sum g_P + sigma_P . t_P - sum Q_pp. The perturbation is charged n per bit.
 *
 * It then descends: it scans the gains of the first cache (or the integer
 * blend a * g_0 + b * g_1), flips the chosen bit k through every cache with
 * the rank-1 update g_j += 2 sigma_k sigma_j Q_jk, g_k = -g_k, and charges
 * the budget exactly as the reference does: the candidates examined, then
 * n per applied flip.
 *
 * The caller keeps the log marks' arithmetic and passes the evaluation
 * count of every mark of the run, and the index of the first one not yet
 * passed. For each one a charge reaches, the kernel writes (evaluations,
 * best value) as the run's Python charge stamps it: the first running
 * total that reaches the mark, one step of n at a time for the perturbation.
 *
 * The signs sigma are +-1, so nothing is multiplied by them: a gain update
 * adds 2 Q_jk (or 2 t_j) negated under the mask differ(sigma_j, sigma_k)
 * (differ(sigma_j, 1) in the block shift), which is -1 when the two signs
 * differ and 0 when they agree, and the perturbation's value change and
 * diagonal entries take their signs the same way; a toy's entry signs from
 * the anchor are masks too. The sums are the same exact values; the masks
 * spare a vector multiply per entry, which AVX-512 does slowly on int64
 * (vpmullq) and AVX2 and SSE2 emulate with 32-bit multiplies. A dense Q
 * and an anchored toy's weights are read in the gain type (exact in int32,
 * since the bound above puts every entry there), and the random toy's
 * magnitudes stay uint8; an int32 vector holds twice as many gains, and an
 * int32 row is half the cache lines.
 *
 * Build: cc -O3 -shared -fPIC. The file includes itself once per gain type
 * to build the bodies. On x86-64 with glibc, each lsils_iterate_* is built
 * three times, for x86-64-v4 (AVX-512), x86-64-v3 (AVX2) and baseline
 * x86-64, and the dynamic loader picks the clone the CPU runs (an ifunc);
 * its helpers are always inlined, so each clone gets its own vector code.
 * The library file stays the same on every x86-64 CPU, which is why
 * -march=native is not used. Elsewhere, and for lsils_build_*, the plain
 * functions are built.
 */
#ifndef GAIN /* the file's own pass; the body below is built when it includes itself */
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

enum { FORM_DENSE = 0, FORM_ANCHORED = 1, FORM_RANDOM = 2 };

/* The slots of the int64 state vector shared with the caller. */
enum {
    ST_VALUE,       /* in/out: exact objective of the first cache's form */
    ST_CONSUMED,    /* in/out: evaluations charged so far */
    ST_STOP,        /* in: no iteration starts once ST_CONSUMED reaches this */
    ST_ROUNDS,      /* in: iterations whose swap targets are given; 0 to descend once */
    ST_STARTED,     /* out: iterations started, whose targets are used */
    ST_HALT,        /* in: 1 to start no iteration after one that improved the best */
    ST_BEST,        /* in/out: best value seen, and best_x its solution */
    ST_IMPROVED,    /* out: 1 when best_x holds a new best solution */
    ST_MARKS,       /* in: log marks of the run */
    ST_MARKED,      /* in/out: marks passed, each stamped (evaluations, best) */
    ST_SIZE
};

typedef struct {
    int64_t kind;          /* FORM_* */
    const void *q;         /* GAIN: FORM_DENSE's row-major n x n entries, FORM_ANCHORED's
                              n weights; FORM_RANDOM's n x n uint8 magnitudes */
    const int8_t *anchor;  /* toys: entry (j, k) is +m_jk when both bits are 1, else -m_jk */
    void *gains;           /* GAIN, as the entry point called */
    void *sigma;           /* GAIN: 1 - 2x */
    int8_t *x;
} lsils_cache;

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

/* Charge `steps` successive charges of `units` evaluations each. Every
 * mark from marks[ST_MARKED] on that the running total reaches is stamped
 * with the first total that reaches it and the best value. */
HOT void charge(int64_t *st, int64_t units, int64_t steps, const int64_t *marks,
                int64_t *stamps)
{
    int64_t start = st[ST_CONSUMED], at = st[ST_MARKED];

    st[ST_CONSUMED] = start + units * steps;
    while (at < st[ST_MARKS] && st[ST_CONSUMED] >= marks[at]) {
        int64_t taken = (marks[at] - start + units - 1) / units;
        stamps[2 * at] = start + (taken > 1 ? taken : 1) * units;
        stamps[2 * at + 1] = st[ST_BEST];
        at++;
    }
    st[ST_MARKED] = at;
}

/* The block length of the scans' max pass (first_max). */
enum { BLOCK = 64 };

/* The body's names carry its width: apply_flip is apply_flip_i32 in the
 * int32 body. The int64 body comes first, since the int32 one scans the
 * blend with pick_int_i64. */
#define WIDTH_NAME(name, bits) name##_i##bits
#define WIDTH(name, bits) WIDTH_NAME(name, bits)

#define GAIN int64_t
#define GAIN_UNSIGNED uint64_t
#define GAIN_BITS 64
#include "_kernel.c"
#undef GAIN
#undef GAIN_UNSIGNED
#undef GAIN_BITS

#define GAIN int32_t
#define GAIN_UNSIGNED uint32_t
#define GAIN_BITS 32
#include "_kernel.c"
#undef GAIN
#undef GAIN_UNSIGNED
#undef GAIN_BITS

/* The random toy's n x n magnitude matrix; returns the largest draw.
 * `draws` lists its lower triangle, diagonal included, row by row, each in
 * [0, 255]; each draw lands at (i, j) and (j, i). The lower triangle is
 * written row by row, then mirrored tile by tile, so that no pass writes
 * with a stride of n. */
int64_t lsils_random_toy(const int32_t *draws, int64_t n, uint8_t *m)
{
    enum { TILE = 32 };
    int64_t i, j, i0, j0, peak = 0;

    for (i = 0; i < n; i++) {
        uint8_t *restrict row = m + i * n;
        for (j = 0; j <= i; j++) {
            int32_t w = draws[j];
            peak = w > peak ? w : peak;
            row[j] = (uint8_t)w;
        }
        draws += i + 1;
    }
    for (i0 = 0; i0 < n; i0 += TILE)
        for (j0 = i0; j0 < n; j0 += TILE)
            for (i = i0; i < i0 + TILE && i < n; i++)
                for (j = j0 > i ? j0 : i + 1; j < j0 + TILE && j < n; j++)
                    m[i * n + j] = m[j * n + i];
    return peak;
}

#else /* GAIN: the search body over GAIN lanes */
#define differ WIDTH(differ, GAIN_BITS)
#define negate_if WIDTH(negate_if, GAIN_BITS)
#define toy_update WIDTH(toy_update, GAIN_BITS)
#define random_update WIDTH(random_update, GAIN_BITS)
#define apply_flip WIDTH(apply_flip, GAIN_BITS)
#define diagonal WIDTH(diagonal, GAIN_BITS)
#define flip_matvec WIDTH(flip_matvec, GAIN_BITS)
#define apply_flips WIDTH(apply_flips, GAIN_BITS)
#define block_max WIDTH(block_max, GAIN_BITS)
#define first_max WIDTH(first_max, GAIN_BITS)
#define pick_int WIDTH(pick_int, GAIN_BITS)
#define blend WIDTH(blend, GAIN_BITS)
#define descend WIDTH(descend, GAIN_BITS)
#define lsils_iterate WIDTH(lsils_iterate, GAIN_BITS)
#define lsils_build WIDTH(lsils_build, GAIN_BITS)

/* -1 when the +-1 values a and b differ, 0 when they are equal. The shift
 * is unsigned, so reading the sign bit is defined in C99. */
HOT GAIN differ(GAIN a, GAIN b)
{
    return -(GAIN)((GAIN_UNSIGNED)(a ^ b) >> (GAIN_BITS - 1));
}

/* v when the mask m is 0, -v when it is -1. */
HOT GAIN negate_if(GAIN v, GAIN m)
{
    return (v ^ m) - m;
}

/* g_j += 2 sigma_j sigma_k Q_jk for every j on an anchored toy with
 * Q_jk = (2 a_j a_k - 1) max(w_j, w_k). Q_jk is positive only when
 * a_j = a_k = 1, so for a_k = 1 its sign follows a_j, and for a_k = 0 it is
 * always negative. */
HOT void toy_update(GAIN *restrict g, const GAIN *restrict s, const int8_t *restrict a,
                    const GAIN *restrict w, GAIN sk, int64_t ak, GAIN wk, int64_t n)
{
    int64_t j;

    if (ak) {
        for (j = 0; j < n; j++)
            g[j] += negate_if(2 * (w[j] > wk ? w[j] : wk), differ(s[j], sk) ^ (a[j] - 1));
    } else {
        for (j = 0; j < n; j++)
            g[j] += negate_if(2 * (w[j] > wk ? w[j] : wk), ~differ(s[j], sk));
    }
}

/* g_j += 2 sigma_j sigma_k Q_jk for every j on the random toy, with
 * Q_jk = (2 a_j a_k - 1) m_j for row k's magnitudes m; signs as in
 * toy_update. */
HOT void random_update(GAIN *restrict g, const GAIN *restrict s, const int8_t *restrict a,
                       const uint8_t *restrict m, GAIN sk, int64_t ak, int64_t n)
{
    int64_t j;

    if (ak) {
        for (j = 0; j < n; j++)
            g[j] += negate_if(2 * (GAIN)m[j], differ(s[j], sk) ^ (a[j] - 1));
    } else {
        for (j = 0; j < n; j++)
            g[j] += negate_if(2 * (GAIN)m[j], ~differ(s[j], sk));
    }
}

/* Flip bit k of one cache: gains, sigma and solution in O(n). */
HOT void apply_flip(const lsils_cache *c, int64_t n, int64_t k)
{
    GAIN *restrict g = c->gains;
    GAIN *restrict s = c->sigma;
    const int8_t *a = c->anchor;
    GAIN old = g[k], sk = s[k];
    int64_t j;

    if (c->kind == FORM_DENSE) {
        const GAIN *restrict row = (const GAIN *)c->q + k * n;
        for (j = 0; j < n; j++)
            g[j] += negate_if(2 * row[j], differ(s[j], sk));
    } else if (c->kind == FORM_RANDOM) {
        random_update(g, s, a, (const uint8_t *)c->q + k * n, sk, a[k], n);
    } else {
        toy_update(g, s, a, c->q, sk, a[k], ((const GAIN *)c->q)[k], n);
    }
    g[k] = -old;
    s[k] = -sk;
    c->x[k] ^= 1;
}

/* Q_pp of one cache's form: a toy's is +m_pp on the anchor, else -m_pp. */
HOT GAIN diagonal(const lsils_cache *c, int64_t n, int64_t p)
{
    GAIN m;

    if (c->kind == FORM_DENSE)
        return ((const GAIN *)c->q)[p * n + p];
    if (c->kind == FORM_RANDOM)
        m = (GAIN)((const uint8_t *)c->q)[p * n + p];
    else
        m = ((const GAIN *)c->q)[p];
    return negate_if(m, (GAIN)(c->anchor[p] - 1));
}

/* t = Q v for v = sigma on the positions P (before the flip), 0 elsewhere.
 * `v` is an all-zero n-slot scratch vector, left all zero again. */
HOT void flip_matvec(const lsils_cache *c, int64_t n, const int64_t *pos,
                     int64_t bits, GAIN *restrict v, GAIN *restrict t)
{
    const GAIN *s = c->sigma;
    const int8_t *a = c->anchor;
    int64_t i, j;

    if (c->kind == FORM_DENSE) {
        /* add the rows switched on, subtract the rows switched off */
        memset(t, 0, (size_t)n * sizeof *t);
        for (i = 0; i < bits; i++) {
            const GAIN *restrict row = (const GAIN *)c->q + pos[i] * n;
            if (s[pos[i]] > 0)
                for (j = 0; j < n; j++)
                    t[j] += row[j];
            else
                for (j = 0; j < n; j++)
                    t[j] -= row[j];
        }
    } else if (c->kind == FORM_RANDOM) {
        /* add sigma_p Q_pj over p: row p's magnitudes, negated where
         * sigma_p differs from the sign of Q_pj, which is 2 a_j - 1 when
         * a_p = 1 and -1 when a_p = 0 */
        memset(t, 0, (size_t)n * sizeof *t);
        for (i = 0; i < bits; i++) {
            const uint8_t *restrict row = (const uint8_t *)c->q + pos[i] * n;
            GAIN off = differ(s[pos[i]], 1);
            if (a[pos[i]])
                for (j = 0; j < n; j++)
                    t[j] += negate_if((GAIN)row[j], off ^ (a[j] - 1));
            else
                for (j = 0; j < n; j++)
                    t[j] += negate_if((GAIN)row[j], ~off);
        }
    } else {
        /* With M_jk = max(w_j, w_k), t = 2 a (M (a v)) - M v. The weights
         * never decrease (ToyMatrix makes them so), so
         * (M u)_j = w_j sum_{k <= j} u_k + sum_{k > j} w_k u_k takes one
         * pass over prefix sums, kept in int64. */
        const GAIN *w = c->q;
        int64_t tail = 0, tail_a = 0, prefix = 0, prefix_a = 0;
        for (i = 0; i < bits; i++) {
            int64_t m = negate_if(w[pos[i]], differ(s[pos[i]], 1));
            v[pos[i]] = s[pos[i]];
            tail += m;
            tail_a += a[pos[i]] ? m : 0;
        }
        for (j = 0; j < n; j++) {
            int64_t u = v[j], ua = a[j] ? u : 0, wj = w[j];
            prefix += u;
            prefix_a += ua;
            tail -= wj * u;
            tail_a -= wj * ua;
            t[j] = (GAIN)((a[j] ? 2 * (wj * prefix_a + tail_a) : 0) - (wj * prefix + tail));
        }
        for (i = 0; i < bits; i++)
            v[pos[i]] = 0;
    }
}

/* Flip the distinct positions P of one cache in one block update; returns
 * the exact change of its objective. Each p in P is set to its final gain
 * less the shift, 2 Q_pp - g_p, and its sign flipped first, so the shift
 * pass then adds 2 sigma_p t_p with sigma_p as it was before the flip. */
HOT int64_t apply_flips(const lsils_cache *c, int64_t n, const int64_t *pos,
                        int64_t bits, GAIN *v, GAIN *t)
{
    GAIN *restrict g = c->gains;
    GAIN *restrict s = c->sigma;
    int64_t delta = 0, i, j;

    flip_matvec(c, n, pos, bits, v, t);
    for (i = 0; i < bits; i++) {
        int64_t p = pos[i];
        GAIN d = diagonal(c, n, p);
        delta += (int64_t)g[p] + negate_if(t[p], differ(s[p], 1)) - d;
        g[p] = 2 * d - g[p];
        s[p] = -s[p];
        c->x[p] ^= 1;
    }
    for (j = 0; j < n; j++)
        g[j] += negate_if(2 * t[j], differ(s[j], 1));
    return delta;
}

/* The lowest index of the largest of v[0..n), n >= 1, and the largest in
 * *top. The max pass runs over BLOCK-entry blocks, which vectorises (whole
 * blocks with a constant trip count, then the tail), and remembers the
 * first block whose maximum beats all blocks before it; the search for the
 * first entry equal to the maximum then reads only that block. */
HOT GAIN block_max(const GAIN *v, int64_t len)
{
    int64_t j;
    GAIN m = v[0];

    for (j = 0; j < len; j++)
        m = v[j] > m ? v[j] : m;
    return m;
}

HOT int64_t first_max(const GAIN *v, int64_t n, GAIN *top)
{
    int64_t j0, j, start = 0;
    GAIN best = v[0];

    for (j0 = 0; j0 + BLOCK <= n; j0 += BLOCK) {
        GAIN m = block_max(v + j0, BLOCK);
        if (m > best) {
            best = m;
            start = j0;
        }
    }
    if (j0 < n) {
        GAIN m = block_max(v + j0, n - j0);
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
HOT int64_t pick_int(const GAIN *g, int64_t n, int first, int64_t *examined)
{
    int64_t j, k;
    GAIN best;

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

/* The blend a * go + b * gt into `out` as double bit patterns, for
 * pick_int_i64. The caller keeps b > 0 and a |go| + b |gt| below 2^53, so
 * each value is an exact integer (FMA or not), and a zero is +0.0.
 * Positive doubles order like their bit patterns read as int64, and
 * negative ones read as negative. Doubles spare AVX-512's slow int64
 * multiply, and int32 lanes convert to doubles in vectors on AVX2 too. */
HOT void blend(const GAIN *go, const GAIN *gt, const int64_t *w, int64_t n,
               int64_t *restrict out)
{
    double a = (double)w[0], b = (double)w[1];
    int64_t j;

    for (j = 0; j < n; j++) {
        double v = (double)go[j] * a + (double)gt[j] * b;
        memcpy(&out[j], &v, sizeof v);
    }
}

/* Descend until a local optimum, tracking the best value and solution. */
HOT void descend(const lsils_cache *caches, int64_t n_caches, int64_t n, int first,
                 const int64_t *weights, int64_t *blended, int64_t *st, int8_t *best_x,
                 const int64_t *marks, int64_t *stamps)
{
    const GAIN *g0 = caches[0].gains;
    int64_t i, k, examined;

    for (;;) {
        if (weights) {
            blend(g0, caches[1].gains, weights, n, blended);
            k = pick_int_i64(blended, n, first, &examined);
        } else {
            k = pick_int(g0, n, first, &examined);
        }
        charge(st, examined, 1, marks, stamps);
        if (k < 0)
            return;
        st[ST_VALUE] += g0[k];
        for (i = 0; i < n_caches; i++)
            apply_flip(&caches[i], n, k);
        charge(st, n, 1, marks, stamps);
        if (st[ST_VALUE] > st[ST_BEST]) {
            st[ST_BEST] = st[ST_VALUE];
            memcpy(best_x, caches[0].x, (size_t)n);
            st[ST_IMPROVED] = 1;
        }
    }
}

/* Run iterations: perturb the `bits` positions the next swap targets pick,
 * then descend, until a stop named at the top of this file. The caches'
 * gains and sigma are GAIN vectors. `targets` holds ST_ROUNDS * bits swap
 * targets; `marks` holds ST_MARKS mark counts, in increasing order, and
 * `stamps` room for two slots per mark. `scratch` holds 3n int64 slots: an
 * identity permutation, left as found, then the positions and the blend.
 * `lanes` holds 2n GAIN slots: v, all zero and left so, then t. With
 * integer `weights` (a, b) the pivot is picked on the blend a * g_0 + b * g_1
 * of caches[0] and caches[1], and without (NULL) on the gains of caches[0]. */
CLONES void lsils_iterate(const lsils_cache *caches, int64_t n_caches, int64_t n,
                          int64_t first, const int64_t *weights,
                          const int64_t *targets, int64_t bits, int64_t *scratch,
                          GAIN *lanes, int64_t *st, int8_t *best_x, const int64_t *marks,
                          int64_t *stamps)
{
    int64_t *pos = scratch + n, *blended = scratch + 2 * n;
    GAIN *v = lanes, *t = lanes + n;
    int64_t i;

    st[ST_STARTED] = 0;
    st[ST_IMPROVED] = 0;
    /* One loop with one call of the descent and of the block update, which
     * are inlined, so each clone holds one copy of their code. */
    for (;;) {
        if (st[ST_ROUNDS]) {
            if (!(st[ST_STARTED] < st[ST_ROUNDS] && st[ST_CONSUMED] < st[ST_STOP]
                  && !(st[ST_HALT] && st[ST_IMPROVED])))
                return;
            fisher_yates(targets + st[ST_STARTED] * bits, bits, scratch, pos);
            st[ST_STARTED] += 1;
            for (i = 0; i < n_caches; i++) {
                int64_t delta = apply_flips(&caches[i], n, pos, bits, v, t);
                if (i == 0)
                    st[ST_VALUE] += delta;
            }
            charge(st, n, bits, marks, stamps);
        }
        descend(caches, n_caches, n, (int)first, weights, blended, st, best_x, marks, stamps);
        if (!st[ST_ROUNDS])
            return;
    }
}

/* Build one cache at its solution x: the cache at x = 0, gains Q_jj and
 * sigma 1, with x's set bits flipped in one block update. Returns the exact
 * objective f(x). `pos` holds n int64 slots, and `lanes` 2n GAIN slots, v,
 * all zero and left so, then t. A build is a small share of a run, so it
 * is not cloned per CPU, which would add half again to the compile. */
int64_t lsils_build(const lsils_cache *c, int64_t n, int64_t *pos, GAIN *lanes)
{
    GAIN *g = c->gains, *s = c->sigma;
    int64_t bits = 0, j;

    for (j = 0; j < n; j++) {
        g[j] = diagonal(c, n, j);
        s[j] = 1;
        if (c->x[j])
            pos[bits++] = j;
        c->x[j] = 0;
    }
    return apply_flips(c, n, pos, bits, lanes, lanes + n);
}

#undef differ
#undef negate_if
#undef toy_update
#undef random_update
#undef apply_flip
#undef diagonal
#undef flip_matvec
#undef apply_flips
#undef block_max
#undef first_max
#undef pick_int
#undef blend
#undef descend
#undef lsils_iterate
#undef lsils_build
#endif
