/* Compiled forms of apcg's per-epoch coordinate kernels, CSC products and
   column passes, momentum schedule replay, LIBSVM tokenizer and synthetic
   column generator.

   Each function is a plain loop that mirrors a Python reference; all but
   schedule_history run over (for the tokenizer, into) the arrays of a
   SparseColMatrix (d x n, column j holds values[indptr[j]:indptr[j+1]] at
   rows indices[...]):

     csc_dot              SparseColMatrix.dot   (np.bincount form, same order)
     csc_tdot             SparseColMatrix.tdot  (np.bincount form, same order)
     csc_col_norms_sq     SparseColMatrix.col_norms_sq (np.add.at, same order)
     erm_report           the numpy per-example terms of a gap report
                          (erm._report_terms), each in the same order
     apcg_erm_epoch       erm.apcg_erm_steps
     sdca_epoch           the Python body of baselines.sdca_epoch
     schedule_history     ApcgSchedule.history (same operations, same order)
     libsvm_parse         data._parse_python, on a strict subset of its input
     synth_columns        the column loop of data._synth_columns_python, less
                          the normalisation (built only with numpy's random
                          library, see below)

   The products and the column norms add the same rounded terms in the
   same order as np.bincount and np.add.at, so they are bitwise equal to
   them; the column norms read no temporary of nnz entries.  erm_report
   writes the report's n-length terms, not their sums: numpy sums pairwise
   and a dot product sums in BLAS's order, which a sequential loop would
   match only to rounding, so the report's sums stay in numpy and every
   report is bitwise the numpy one.  The epochs sum each column dot
   product left to right, where numpy's dot may use another order, so
   they agree with the references to rounding only.  schedule_history
   uses only + - * / and sqrt, each correctly rounded, so its arrays are
   bitwise those of the Python recursion.
   apcg.native builds this file with -O2 -ffp-contract=off
   -falign-loops=64: no fused multiply-add, no fast-math, and every loop
   starting a cache line.  The tokenizer reads
   values with strtod, which rounds correctly like Python's float(), so
   what it accepts parses to the same bits.  synth_columns makes the same
   calls into numpy's own distributions, on the caller's Generator, in the
   same order as the Python loop, so its indptr, indices and values, and
   the draws that follow it, are bitwise the same; the unit-norm scaling of
   each column stays in numpy because np.linalg.norm sums with BLAS ddot,
   whose order a C loop would not match.  Callers validate dtypes, shapes
   and index ranges before every call.

   The two epochs know every index of the epoch before its first step, and
   each step starts by reading a column and a few per-coordinate entries
   that the CPU cannot predict.  So each step first issues prefetch hints
   (prefetch_ahead) for the entries ENTRY_AHEAD steps ahead and the column
   COLUMN_AHEAD steps ahead.  A prefetch is a hint only: it changes no
   arithmetic, no order and no write, so the epochs' results are bitwise
   those without it.  The entries include the column's bounds in indptr,
   which the column's hints must read, so they go out two steps earlier;
   two steps of about 20 entries cover the wait for the column's lines.
   Distances from (1, 2) to (4, 8) measured alike; the entries' hints alone
   gave about two thirds of the gain, the column's about a quarter.  It
   pays when A's indices and values do not fit in L2 (hinge-synth's 3.2 MB
   against a 2 MB L2), where an APCG step went from about 175 to 105 ns; a
   matrix that fits in L2 gains little. */

#include <errno.h>
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* out (length d, zeroed by the caller) += A x */
void csc_dot(int64_t n, const int64_t *indptr, const int64_t *indices,
             const double *values, const double *x, double *out)
{
    for (int64_t j = 0; j < n; j++) {
        const double xj = x[j];
        for (int64_t k = indptr[j]; k < indptr[j + 1]; k++)
            out[indices[k]] += values[k] * xj;
    }
}

/* out (length n) = A' w */
void csc_tdot(int64_t n, const int64_t *indptr, const int64_t *indices,
              const double *values, const double *w, double *out)
{
    for (int64_t j = 0; j < n; j++) {
        double s = 0.0;
        for (int64_t k = indptr[j]; k < indptr[j + 1]; k++)
            s += values[k] * w[indices[k]];
        out[j] = s;
    }
}

/* out (length n) = the squared column norms, each summed left to right */
void csc_col_norms_sq(int64_t n, const int64_t *indptr, const double *values,
                      double *out)
{
    for (int64_t j = 0; j < n; j++) {
        double s = 0.0;
        for (int64_t k = indptr[j]; k < indptr[j + 1]; k++)
            s += values[k] * values[k];
        out[j] = s;
    }
}

/* The per-column terms of a gap report at a feasible dual point x (length
   n), given w = A x / (lam n) (length d); see erm.PrimalDualReport.evaluate.
   For each column j the margin m_j = A_j' w is summed as in csc_tdot, and
   phi[j] = phi_j(m_j), conj[j] = phi*_j(-x_j) and resid[j] = m_j - a_j,
   where a_j = anchors[j] - gamma x_j is projected onto the half-line
   subdifferential at a box edge (x_j == 0 or 1).  hinge selects the
   smoothed hinge (anchors all 1, dual box [0, 1]), else the square loss
   (anchors the targets, no box).  Each term is the numpy form's
   expression in the same order, so all three are bitwise equal to it. */
void erm_report(int64_t n, const int64_t *indptr, const int64_t *indices,
                const double *values, const double *w, const double *x,
                const double *anchors, double gamma, int hinge,
                double *phi, double *conj, double *resid)
{
    const double half_gamma = 0.5 * gamma, two_gamma = 2.0 * gamma;
    for (int64_t j = 0; j < n; j++) {
        double m = 0.0;
        for (int64_t k = indptr[j]; k < indptr[j + 1]; k++)
            m += values[k] * w[indices[k]];
        const double x_j = x[j];
        double a = anchors[j] - gamma * x_j;
        if (hinge) {
            phi[j] = m >= 1.0 ? 0.0
                   : (m <= 1.0 - gamma ? 1.0 - m - gamma / 2.0
                                       : (1.0 - m) * (1.0 - m) / two_gamma);
            if (x_j == 0.0 && a < m)
                a = m;
            else if (x_j == 1.0 && m < a)
                a = m;
        } else {
            phi[j] = (m - anchors[j]) * (m - anchors[j]) / two_gamma;
        }
        conj[j] = -anchors[j] * x_j + half_gamma * x_j * x_j;
        resid[j] = m - a;
    }
}

/* Prefetch hints for the steps of an epoch over blocks that follow step b:
   the indices and values of the column COLUMN_AHEAD steps ahead, one hint
   per cache line, and the indptr entry and the entry of each of the
   nentries per-coordinate arrays ENTRY_AHEAD steps ahead.  Reads blocks
   only below nblocks and indptr only at indices the caller validated.
   always_inline: gcc finds a function whose only effects are prefetches
   pure, and drops a call to a pure function that returns nothing. */
#define COLUMN_AHEAD 2
#define ENTRY_AHEAD 4

static inline __attribute__((always_inline)) void
prefetch_ahead(const int64_t *indptr, const int64_t *indices, const double *values,
               const int64_t *blocks, int64_t b, int64_t nblocks,
               const double *const *entries, int nentries)
{
    if (b + ENTRY_AHEAD < nblocks) {
        const int64_t i = blocks[b + ENTRY_AHEAD];
        __builtin_prefetch(indptr + i);
        for (int e = 0; e < nentries; e++)
            __builtin_prefetch(entries[e] + i);
    }
    if (b + COLUMN_AHEAD < nblocks) {
        const int64_t i = blocks[b + COLUMN_AHEAD], lo = indptr[i], hi = indptr[i + 1];
        /* consecutive hints 64 bytes apart, then the last entry's line */
        for (int64_t k = lo; k < hi; k += 8) {
            __builtin_prefetch(indices + k);
            __builtin_prefetch(values + k);
        }
        if (lo < hi) {
            __builtin_prefetch(indices + hi - 1);
            __builtin_prefetch(values + hi - 1);
        }
    }
}

/* One accelerated dual coordinate step per index in blocks; see
   erm.apcg_erm_steps for the update.  ubar = scale * ubar_base (length n)
   and pbar = scale * pbar_base (length d) share scale, which every step
   multiplies by rho and which is folded into both base vectors once it
   falls below 1e-120.  Returns the scale after the last step. */
double apcg_erm_epoch(const int64_t *indptr, const int64_t *indices,
                      const double *values, const int64_t *blocks, int64_t nblocks,
                      double *ubar_base, double *v, int64_t n,
                      double *pbar_base, double *q, int64_t d,
                      const double *quad_weight, const double *anchor_over_n,
                      double rho, double grad_scale, double gamma_over_n,
                      double half_minus, double half_plus, int is_box, double scale)
{
    const double *const entries[] = {ubar_base, v, quad_weight, anchor_over_n};
    for (int64_t b = 0; b < nblocks; b++) {
        prefetch_ahead(indptr, indices, values, blocks, b, nblocks, entries, 4);
        const int64_t i = blocks[b], lo = indptr[i], hi = indptr[i + 1];
        double p_dot = 0.0, q_dot = 0.0;
        for (int64_t j = lo; j < hi; j++) {
            p_dot += values[j] * pbar_base[indices[j]];
            q_dot += values[j] * q[indices[j]];
        }
        const double ub_i = ubar_base[i] * scale;
        const double v_i = v[i];
        const double a_dot = p_dot * scale + q_dot;
        const double grad = a_dot * grad_scale + gamma_over_n * (ub_i + v_i);

        const double t0 = -ub_i + v_i;
        double s = t0 + (anchor_over_n[i] - grad) / quad_weight[i];
        if (is_box)
            s = s < 0.0 ? 0.0 : (s > 1.0 ? 1.0 : s);
        const double h = s - t0;

        v[i] = v_i + half_plus * h;
        if (h != 0.0) {
            const double dp = half_minus * h / scale, dq = half_plus * h;
            ubar_base[i] -= dp;
            for (int64_t j = lo; j < hi; j++) {
                pbar_base[indices[j]] -= dp * values[j];
                q[indices[j]] += dq * values[j];
            }
        }
        scale *= rho;
        if (scale < 1e-120) {
            for (int64_t r = 0; r < n; r++)
                ubar_base[r] *= scale;
            for (int64_t r = 0; r < d; r++)
                pbar_base[r] *= scale;
            scale = 1.0;
        }
    }
    return scale;
}

/* One exact dual coordinate ascent step per index in blocks, in place on
   x and w_agg = A x / (lam n); see baselines.sdca_epoch. */
void sdca_epoch(const int64_t *indptr, const int64_t *indices,
                const double *values, const int64_t *blocks, int64_t nblocks,
                double *x, double *w_agg, const double *col_norms_sq,
                const double *anchors, double lam_n, double gamma, int is_box)
{
    const double *const entries[] = {x, col_norms_sq, anchors};
    for (int64_t b = 0; b < nblocks; b++) {
        prefetch_ahead(indptr, indices, values, blocks, b, nblocks, entries, 3);
        const int64_t i = blocks[b], lo = indptr[i], hi = indptr[i + 1];
        double margin = 0.0;
        for (int64_t j = lo; j < hi; j++)
            margin += values[j] * w_agg[indices[j]];
        const double q_i = col_norms_sq[i] / lam_n;
        const double x_i = x[i];
        double s = (anchors[i] - margin + x_i * q_i) / (gamma + q_i);
        if (is_box)
            s = s < 0.0 ? 0.0 : (s > 1.0 ? 1.0 : s);
        const double delta = s - x_i;
        if (delta != 0.0) {
            x[i] = s;
            const double c = delta / lam_n;
            for (int64_t j = lo; j < hi; j++)
                w_agg[indices[j]] += c * values[j];
        }
    }
}

/* schedule._alpha_root: the root in (0, 1/n] of
   n^2 a^2 = (1 - a) gamma_k + a mu, with the same operations in the same
   order.  n is a double because Python's float arithmetic converts it to
   one.  Returns 0 where the Python root raises RuntimeError (the root
   escaped the cap or collapsed to zero). */
static double alpha_root(double gamma_k, double mu, double n)
{
    const double b = gamma_k - mu;
    const double disc = sqrt(b * b + 4.0 * n * n * gamma_k);
    double alpha;
    if (b >= 0.0)
        alpha = 2.0 * gamma_k / (b + disc);
    else
        alpha = (-b + disc) / (2.0 * n * n);
    const double cap = 1.0 / n;
    if (alpha > cap) {
        if (alpha <= cap * (1.0 + 1e-12))
            alpha = cap;
        else
            return 0.0;
    }
    if (alpha <= 0.0)
        return 0.0;
    return alpha;
}

/* ApcgSchedule.history: steps iterations of ApcgSchedule.step from
   gamma_0 = gamma0, lambda_0 = 1, written to alphas and betas (steps
   entries) and gammas and lams (steps + 1).  Returns -1, or the first k
   whose root the Python recursion would raise on; the arrays are then
   incomplete. */
int64_t schedule_history(double n, double mu, double gamma0, int64_t steps,
                         double *alphas, double *gammas, double *betas, double *lams)
{
    double gamma = gamma0, lam = 1.0;
    gammas[0] = gamma;
    lams[0] = lam;
    for (int64_t k = 0; k < steps; k++) {
        const double alpha = alpha_root(gamma, mu, n);
        if (alpha == 0.0)
            return k;
        const double gamma_next = (1.0 - alpha) * gamma + alpha * mu;
        alphas[k] = alpha;
        betas[k] = alpha * mu / gamma_next;
        gamma = gamma_next;
        lam *= 1.0 - alpha;
        gammas[k + 1] = gamma;
        lams[k + 1] = lam;
    }
    return -1;
}

/* LIBSVM text to CSC arrays, for the strict subset of the format that
   data.parse_libsvm hands to it: lines end in \n or \r\n (the last may have
   no ending); fields are separated by spaces or tabs; the label is +1, -1
   or 1; each feature is idx:val with idx 1 to 18 ASCII digits (so it
   fits an int64_t), >= 1 and strictly increasing along the line; val matches
   [+-]?digits[.digits][(e|E)[+-]?digits].  The value is read by strtod from
   a NUL-terminated copy, which must consume all of it and give a finite
   number without ERANGE.  Anything else (another byte, a blank line, a lone
   \r, a longer token, a subnormal) returns 1, and the caller parses the
   input with the Python parser instead.  Nothing is read past len.

   On entry shape holds the capacity of labels (indptr has one more entry,
   indptr[0] = 0) and of indices and values.  On success, labels, indptr,
   indices (0-based) and values hold the examples, without zero values
   (which still count for the order and the largest index), shape holds
   (examples, values kept, largest index), and 0 is returned. */
#define IS_SEP(c) ((c) == ' ' || (c) == '\t')
#define IS_DIGIT(c) ((c) >= '0' && (c) <= '9')
#define VALUE_MAX 63

static const char *skip_digits(const char *p, const char *end)
{
    while (p < end && IS_DIGIT(*p))
        p++;
    return p;
}

/* End of the value token at p, or NULL if it is outside the grammar. */
static const char *scan_value(const char *p, const char *end)
{
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    const char *q = skip_digits(p, end);
    if (q == p)
        return NULL;
    if (q < end && *q == '.') {
        p = q + 1;
        if ((q = skip_digits(p, end)) == p)
            return NULL;
    }
    if (q < end && (*q == 'e' || *q == 'E')) {
        p = q + 1;
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        if ((q = skip_digits(p, end)) == p)
            return NULL;
    }
    return q;
}

int libsvm_parse(const char *buf, int64_t len, int64_t *shape, double *labels,
                 int64_t *indptr, int64_t *indices, double *values)
{
    const char *p = buf, *const end = buf + len;
    const int64_t max_lines = shape[0], max_values = shape[1];
    int64_t n = 0, kept = 0, max_index = 0;
    char tmp[VALUE_MAX + 1];

    while (p < end) {
        if (n >= max_lines)
            return 1;
        while (p < end && IS_SEP(*p))
            p++;
        double label = 1.0;
        if (p < end && (*p == '+' || *p == '-'))
            label = *p++ == '-' ? -1.0 : 1.0;
        if (p == end || *p++ != '1')
            return 1;
        int64_t prev = 0;
        for (;;) {
            const char *field = p;
            while (p < end && IS_SEP(*p))
                p++;
            if (p == end || *p == '\n' || *p == '\r')
                break;
            if (p == field)
                return 1;  /* no separator before the field */

            const char *digits = p;
            int64_t idx = 0;
            for (; p < end && IS_DIGIT(*p); p++) {
                if (p - digits == 18)
                    return 1;
                idx = 10 * idx + (*p - '0');
            }
            if (p == digits || p == end || *p != ':' || idx <= prev)
                return 1;  /* idx >= 1 follows from idx > prev >= 0 */
            const char *val = ++p;
            if ((p = scan_value(p, end)) == NULL)
                return 1;
            if (p < end && !IS_SEP(*p) && *p != '\n' && *p != '\r')
                return 1;
            const size_t size = (size_t)(p - val);
            if (size > VALUE_MAX)
                return 1;
            memcpy(tmp, val, size);
            tmp[size] = '\0';
            char *stop;
            errno = 0;
            const double v = strtod(tmp, &stop);
            if (stop != tmp + size || errno == ERANGE || !isfinite(v))
                return 1;
            if (v != 0.0) {
                if (kept >= max_values)
                    return 1;
                indices[kept] = idx - 1;
                values[kept++] = v;
            }
            prev = idx;
            if (idx > max_index)
                max_index = idx;
        }
        if (p < end && *p == '\r' && (++p == end || *p != '\n'))
            return 1;  /* a lone \r */
        if (p < end)
            p++;  /* the \n */
        labels[n] = label;
        indptr[++n] = kept;
    }
    shape[0] = n;
    shape[1] = kept;
    shape[2] = max_index;
    return 0;
}

#ifdef APCG_NPYRANDOM
/* Synthetic sparse columns, drawn through numpy's own C distributions
   (numpy/random/lib/libnpyrandom.a, linked in by apcg.native when it
   exists) from the bit generator of the caller's Generator.  These
   declarations mirror numpy/random/bitgen.h and distributions.h, which
   cannot be included: distributions.h pulls in Python.h. */
typedef struct bitgen bitgen_t;  /* only ever passed through */
typedef struct {
    int has_binomial;
    double psave;
    int64_t nsave;
    double r, q, fm;
    int64_t m;
    double p1, xm, xl, xr, c, laml, lamr, p2, p3, p4;
} binomial_t;

int64_t random_binomial(bitgen_t *bitgen, double p, int64_t n, binomial_t *binomial);
uint64_t random_bounded_uint64(bitgen_t *bitgen, uint64_t off, uint64_t rng,
                               uint64_t mask, bool use_masked);
void random_standard_normal_fill(bitgen_t *bitgen, intptr_t cnt, double *out);

static int cmp_int64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* rows[0..k) are distinct rows, each marked in mark: sort them and clear
   their marks. */
static void sort_marked(int64_t *rows, int64_t k, unsigned char *mark, int64_t d)
{
    if (k < d / 40) {  /* sorting k rows beat a scan of d marks below about d / 40 */
        qsort(rows, (size_t)k, sizeof *rows, cmp_int64);
        for (int64_t i = 0; i < k; i++)
            mark[rows[i]] = 0;
        return;
    }
    for (int64_t r = 0, i = 0; i < k; r++)
        if (mark[r]) {
            mark[r] = 0;
            rows[i++] = r;
        }
}

/* Columns 0..n-1 of data.synth_binary before normalisation: for each,
   k = max(Binomial(d, p), min_k) rows drawn as Generator.choice(d, k,
   replace=False) draws them, sorted, then k standard normals, with an
   exact 0 replaced by 1e-12.  Generator.binomial caches only what it
   derives from (d, p), so a zeroed binomial_t draws the same.  choice
   uses Floyd's algorithm followed by a shuffle of the k picks (whose
   draws are made here and discarded, since the rows are sorted) when
   d <= 10000 or k <= d / 50, and otherwise a partial Fisher-Yates
   shuffle of arange(d) whose last k entries are the picks.

   mark (d bytes, zeroed) and pool (d entries) are scratch; indptr[0] = 0
   and indices, values hold capacity entries.  Returns 0 when every column
   is written, or 1 as soon as a column would not fit, after its binomial
   draw: the Generator is then spent and the caller starts over. */
int synth_columns(bitgen_t *bitgen, int64_t n, int64_t d, double p, int64_t min_k,
                  unsigned char *mark, int64_t *pool, int64_t *indptr,
                  int64_t *indices, double *values, int64_t capacity)
{
    binomial_t binomial;
    memset(&binomial, 0, sizeof binomial);
    for (int64_t j = 0; j < n; j++) {
        int64_t k = random_binomial(bitgen, p, d, &binomial);
        if (k < min_k)
            k = min_k;
        const int64_t lo = indptr[j];
        if (k > capacity - lo)
            return 1;
        indptr[j + 1] = lo + k;
        if (k == 0)
            continue;
        int64_t *rows = indices + lo;
        double *vals = values + lo;
        if (d <= 10000 || k <= d / 50) {
            for (int64_t t = d - k, i = 0; t < d; t++, i++) {
                const int64_t r = (int64_t)random_bounded_uint64(bitgen, 0, (uint64_t)t, 0, false);
                rows[i] = mark[r] ? t : r;
                mark[rows[i]] = 1;
            }
            for (int64_t i = k - 1; i > 0; i--)
                random_bounded_uint64(bitgen, 0, (uint64_t)i, 0, false);
        } else {
            for (int64_t r = 0; r < d; r++)
                pool[r] = r;
            for (int64_t i = d - 1; i >= (d - k > 1 ? d - k : 1); i--) {
                const int64_t s = (int64_t)random_bounded_uint64(bitgen, 0, (uint64_t)i, 0, false);
                const int64_t tmp = pool[s];
                pool[s] = pool[i];
                pool[i] = tmp;
            }
            for (int64_t i = 0; i < k; i++) {
                rows[i] = pool[d - k + i];
                mark[rows[i]] = 1;
            }
        }
        sort_marked(rows, k, mark, d);
        random_standard_normal_fill(bitgen, (intptr_t)k, vals);
        for (int64_t i = 0; i < k; i++)
            if (vals[i] == 0.0)
                vals[i] = 1e-12;
    }
    return 0;
}
#endif
