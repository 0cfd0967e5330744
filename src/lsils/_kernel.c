/* One-flip descent on exact int64 gain caches: the compiled form of
 * lsils.search._descend, which stays the reference it must match.
 *
 * A descent scans the gains of the first cache (or the float blend
 * wo * g_0 + wt * g_1), flips the chosen bit through every cache with the
 * rank-1 update g_j += 2 sigma_k sigma_j Q_jk, g_k = -g_k, and charges the
 * budget exactly as the Python loop does: the candidates examined, then n
 * per applied flip. Log marks stay in Python: a charge that reaches
 * `threshold` is recorded as an event (evaluations, best value at that
 * charge), and the call returns once the flip that raised it is complete,
 * so the caller can emit its records and call again.
 *
 * Build: cc -O2 -ffp-contract=off -shared -fPIC. Contraction to FMA would
 * round the blend differently from numpy's separate multiply and add.
 */
#include <stdint.h>
#include <string.h>

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
static void apply_flip(const lsils_cache *c, int64_t n, int64_t k)
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
        /* m = 1 for the +-1 toy, max(j, k) + 1 (one-based) for the +-i toy */
        const int8_t *restrict a = c->anchor;
        int8_t ak = a[k];
        int index = c->kind == FORM_PLUS_MINUS_I;
        for (j = 0; j < n; j++) {
            int64_t m = index ? (j > k ? j : k) + 1 : 1;
            g[j] += step * s[j] * ((ak & a[j]) ? m : -m);
        }
    }
    g[k] = -old;
    s[k] = -sk;
    c->x[k] ^= 1;
}

/* The bit to flip, or -1 at a local optimum; *examined gets the scan's charge. */
static int64_t pick_int(const int64_t *g, int64_t n, int first, int64_t *examined)
{
    int64_t j, k = 0, best = g[0];

    *examined = n;
    if (first) {
        for (j = 0; j < n; j++)
            if (g[j] > 0) {
                *examined = j + 1;
                return j;
            }
        return -1;
    }
    for (j = 1; j < n; j++)
        if (g[j] > best) {
            best = g[j];
            k = j;
        }
    return best > 0 ? k : -1;
}

/* As pick_int on the blend; the add is skipped when wt == 0, as in numpy. */
static int64_t pick_blend(const int64_t *go, const int64_t *gt, double wo, double wt,
                          int64_t n, int first, int64_t *examined)
{
    int64_t j, k = 0;
    double best = 0.0;

    *examined = n;
    for (j = 0; j < n; j++) {
        double v = (double)go[j] * wo;
        if (wt != 0.0)
            v += (double)gt[j] * wt;
        if (first) {
            if (v > 0.0) {
                *examined = j + 1;
                return j;
            }
        } else if (j == 0 || v > best) {
            best = v;
            k = j;
        }
    }
    return (!first && best > 0.0) ? k : -1;
}

static void charge(int64_t *st, int64_t units)
{
    st[ST_CONSUMED] += units;
    if (st[ST_CONSUMED] >= st[ST_THRESHOLD]) {
        int64_t *event = st + ST_EVENT0 + 2 * st[ST_EVENTS];
        event[0] = st[ST_CONSUMED];
        event[1] = st[ST_BEST];
        st[ST_EVENTS] += 1;
    }
}

/* Descend until a local optimum (returns 0) or until a flip raised an
 * event (returns 1; call again to continue). `blend` selects the float
 * pivot; caches[1] is read only when it is on and wt != 0. */
int64_t lsils_descend(const lsils_cache *caches, int64_t n_caches, int64_t n,
                      int64_t first, int64_t blend, double wo, double wt,
                      int64_t *st, int8_t *best_x)
{
    const int64_t *g0 = caches[0].gains;
    int64_t i, k, examined;

    st[ST_EVENTS] = 0;
    st[ST_IMPROVED] = 0;
    for (;;) {
        if (blend)
            k = pick_blend(g0, n_caches > 1 ? caches[1].gains : g0, wo, wt, n,
                           (int)first, &examined);
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
