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
     erm_report           the numpy box check, clip, w and per-example terms
                          of a gap report (erm._ReportPass), each in the same
                          order
     afg_trial            one line-search trial of baselines.afg_step: the
                          gradient (first trial only), the prox and A x_new
                          in one pass over the columns, each in numpy's order
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
   report is bitwise the numpy one.  afg_trial likewise leaves a trial's
   four sums, its acceptance test and the momentum step to numpy and
   writes only gy, x_new and A x_new, so every AFG iterate is bitwise the
   numpy one.  The epochs sum each column dot product left to right from
   0.0, and so do their Python references, so the epochs too are bitwise
   the references.  schedule_history uses only + - * / and
   sqrt, each correctly rounded, so its arrays are bitwise those of the
   Python recursion.
   apcg.native builds this file with -O2 -ffp-contract=off
   -falign-loops=64: no fused multiply-add, no fast-math, and every loop
   starting a cache line.  The tokenizer rounds each value of at most 19
   significant digits itself (Clinger's fast path, else Eisel-Lemire) and
   hands every other value to strtod; both round correctly like Python's
   float(), so what it accepts parses to the same bits.  synth_columns
   makes the same calls into numpy's own distributions, on the caller's
   Generator, in the same order as the Python loop, so its indptr, indices
   and values, and the draws that follow it, are bitwise the same.  One
   bitmap of ceil(d / 64) words marks a column's rows: Floyd's algorithm tests
   membership in it, and the rows come out sorted by a scan of its words
   (an insertion sort of the rows where k * k is small against the word
   count).  The unit-norm scaling of each column stays in numpy, one
   stacked matmul per column length, because np.linalg.norm sums with BLAS
   ddot, whose order a C loop would not match.  Callers validate dtypes,
   shapes and index ranges before every call.

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

/* The per-column terms of a gap report at the dual point x (length n),
   given ax = A x (length d); see erm.PrimalDualReport.evaluate.  It first
   writes w = ax / lam_n (length d).  For the smoothed hinge (hinge != 0:
   anchors all 1, dual box [0, 1]) it returns 1, with the outputs
   incomplete, as soon as some x_j lies more than atol outside the box, and
   otherwise reads each x_j clipped to the box; the square loss (anchors the
   targets) has no box and reads x as given.  For each column j the margin
   m_j = A_j' w is summed as in csc_tdot, and phi[j] = phi_j(m_j),
   conj[j] = phi*_j(-x_j) and resid[j] = m_j - a_j, where
   a_j = anchors[j] - gamma x_j is projected onto the half-line
   subdifferential at a box edge (x_j == 0 or 1).  Each term, the clip
   (np.clip keeps -0.0 and NaN, as this does) and w are the numpy form's
   expressions in the same order, so all are bitwise equal to it.  Returns
   0 when every term is written. */
int erm_report(int64_t n, const int64_t *indptr, const int64_t *indices,
               const double *values, int64_t d, const double *ax, double lam_n,
               const double *x, const double *anchors, double gamma, int hinge,
               double atol, double *w, double *phi, double *conj, double *resid)
{
    const double half_gamma = 0.5 * gamma, two_gamma = 2.0 * gamma;
    const double lo = 0.0 - atol, hi = 1.0 + atol;
    for (int64_t r = 0; r < d; r++)
        w[r] = ax[r] / lam_n;
    for (int64_t j = 0; j < n; j++) {
        double m = 0.0;
        for (int64_t k = indptr[j]; k < indptr[j + 1]; k++)
            m += values[k] * w[indices[k]];
        double x_j = x[j];
        if (hinge) {
            if (x_j < lo || x_j > hi)
                return 1;
            x_j = x_j < 0.0 ? 0.0 : (x_j > 1.0 ? 1.0 : x_j);
        }
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
    return 0;
}

/* One line-search trial of baselines.afg_step in one pass over the
   columns.  For each column j, in order: when first != 0 (the first trial
   of an iteration) gy[j] = (A_j' ay) * scale, summed as in csc_tdot, which
   a backtrack (first == 0) reads back; then the prox of ConjugatePenalty
   with weight w = 1/step at y_j - step * gy[j],
   x_new[j] = (w (y_j - step gy_j) + anchors_j / n) / (w + gamma_over_n),
   clipped to [0, 1] when is_box (keeping -0.0 and NaN, as np.clip does);
   and ax_new (length d, zeroed by the caller) += x_new[j] A_j, as in
   csc_dot.  Each expression is the numpy form's, in the same order, so gy,
   x_new and ax_new are bitwise equal to it. */
void afg_trial(int64_t n, const int64_t *indptr, const int64_t *indices,
               const double *values, const double *ay, double scale, int first,
               double *gy, const double *y, const double *anchors, double step,
               double weight, double gamma_over_n, int is_box, double *x_new,
               double *ax_new)
{
    const double n_real = (double)n, denominator = weight + gamma_over_n;
    for (int64_t j = 0; j < n; j++) {
        const int64_t lo = indptr[j], hi = indptr[j + 1];
        if (first) {
            double s = 0.0;
            for (int64_t k = lo; k < hi; k++)
                s += values[k] * ay[indices[k]];
            gy[j] = s * scale;
        }
        double x = (weight * (y[j] - step * gy[j]) + anchors[j] / n_real) / denominator;
        if (is_box)
            x = x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x);
        x_new[j] = x;
        for (int64_t k = lo; k < hi; k++)
            ax_new[indices[k]] += values[k] * x;
    }
}

/* Prefetch hints for the steps of an epoch over blocks that follow step b:
   the indices and values of the column COLUMN_AHEAD steps ahead, one hint
   per cache line, and the indptr entry and the entries of the
   per-coordinate arrays e0 to e3 (e3 may be NULL) ENTRY_AHEAD steps ahead.
   Reads blocks only below nblocks and indptr only at indices the caller
   validated.  always_inline: gcc finds a function whose only effects are
   prefetches pure, and drops a call to a pure function that returns
   nothing.  The entry arrays are separate pointers, not a list, so each
   inlined copy issues its hints without a loop over a stack array. */
#define COLUMN_AHEAD 2
#define ENTRY_AHEAD 4

static inline __attribute__((always_inline)) void
prefetch_ahead(const int64_t *indptr, const int64_t *indices, const double *values,
               const int64_t *blocks, int64_t b, int64_t nblocks, const double *e0,
               const double *e1, const double *e2, const double *e3)
{
    if (b + ENTRY_AHEAD < nblocks) {
        const int64_t i = blocks[b + ENTRY_AHEAD];
        __builtin_prefetch(indptr + i);
        __builtin_prefetch(e0 + i);
        __builtin_prefetch(e1 + i);
        __builtin_prefetch(e2 + i);
        if (e3 != NULL)
            __builtin_prefetch(e3 + i);
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
    for (int64_t b = 0; b < nblocks; b++) {
        prefetch_ahead(indptr, indices, values, blocks, b, nblocks, ubar_base, v,
                       quad_weight, anchor_over_n);
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
    for (int64_t b = 0; b < nblocks; b++) {
        prefetch_ahead(indptr, indices, values, blocks, b, nblocks, x, col_norms_sq,
                       anchors, NULL);
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
   [+-]?digits[.digits][(e|E)[+-]?digits] in at most VALUE_MAX bytes, and
   read_value must read it to a finite number.  Anything else (another
   byte, a blank line, a lone \r, a longer token, a subnormal) returns 1,
   and the caller parses the input with the Python parser instead.
   Nothing is read past len.

   On entry shape holds the capacity of labels (indptr has one more entry,
   indptr[0] = 0) and of indices and values, and pow5 holds the 128-bit
   truncations of 5^q for q = -342 ... 308, each normalised to its top bit,
   as (high, low) words (data._powers_of_five).  On success, labels,
   indptr, indices (0-based) and values hold the examples, without zero
   values (which still count for the order and the largest index), shape
   holds (examples, values kept, largest index), and 0 is returned. */
#define IS_SEP(c) ((c) == ' ' || (c) == '\t')
#define IS_DIGIT(c) ((c) >= '0' && (c) <= '9')
#define VALUE_MAX 63

/* 10^0 ... 10^22, each exact as a double */
static const double EXACT_POWERS_OF_TEN[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* w * 10^q rounded to nearest, ties to even, by Eisel-Lemire (Lemire,
   "Number parsing at a gigabyte per second", SPE 2021; the second product
   makes it exact without a fallback: Mushtak and Lemire, "Fast number
   parsing without fallback", SPE 2023): the top bits of w times the
   truncated 5^q.  For 0 < w and q in [-342, 308].  Returns 1, leaving the
   value to strtod, when it is subnormal or overflows. */
static int eisel_lemire(uint64_t w, int64_t q, const uint64_t *pow5, double *out)
{
    const int lz = __builtin_clzll(w);
    w <<= lz;
    const uint64_t *const power = pow5 + 2 * (q + 342);
    unsigned __int128 product = (unsigned __int128)w * power[0];
    /* where the 9 bits of the high word below the 55 used are all ones,
       the rest of 5^q, truncated away, could carry into them */
    if (((uint64_t)(product >> 64) & 0x1FF) == 0x1FF)
        product += ((unsigned __int128)w * power[1]) >> 64;
    const uint64_t high = (uint64_t)(product >> 64), low = (uint64_t)product;
    const int upper = (int)(high >> 63), shift = upper + 9;
    uint64_t mantissa = high >> shift;  /* 54 bits: 53 and a rounding bit */
    /* biased; (217706 q) >> 16 is floor(q log2(10)) for these q (the
       shift of a negative product is arithmetic) */
    int64_t exponent = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
    if (exponent <= 0)
        return 1;
    /* a tie: only q in [-4, 23] can place w 10^q exactly halfway, and then
       the product is exact; round down to the even neighbour */
    if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1
        && mantissa << shift == high)
        mantissa &= ~(uint64_t)1;
    mantissa = (mantissa + (mantissa & 1)) >> 1;
    if (mantissa >> 53) {  /* rounded up to the next power of two */
        mantissa = (uint64_t)1 << 52;
        exponent++;
    }
    if (exponent >= 0x7FF)
        return 1;
    const uint64_t bits = (mantissa & (((uint64_t)1 << 52) - 1)) | (uint64_t)exponent << 52;
    memcpy(out, &bits, sizeof bits);
    return 0;
}

/* Reads the value token at p: returns its end, with its value in *out,
   or NULL when the tokenizer declines it (outside the grammar, longer than
   VALUE_MAX, or a value strtod would not give as a finite number without
   ERANGE).  The digits fold into w (wrapping past 19 digits, where w is
   not used) and the token is w * 10^q.  With at most 19 significant
   digits (leading zeros do not count) w is exact: Clinger's fast path
   rounds it with one exact product or quotient where w and 10^|q| are
   exact doubles, else eisel_lemire.  Both round correctly, so they give
   strtod's double, and they take only tokens that strtod reads to a
   finite, normal double without ERANGE.  Every other token (more digits,
   q outside [-342, 308], a subnormal or overflowing result) is read by
   strtod from a NUL-terminated copy, which must consume all of it and
   give a finite value without ERANGE. */
static const char *read_value(const char *p, const char *end, const uint64_t *pow5,
                              double *out)
{
    const char *const token = p;
    const bool negative = p < end && *p == '-';
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    const char *const digits = p;
    uint64_t w = 0;
    for (; p < end && IS_DIGIT(*p); p++)
        w = 10 * w + (uint64_t)(*p - '0');
    if (p == digits)
        return NULL;
    int64_t count = p - digits, q = 0;
    if (p < end && *p == '.') {
        const char *const fraction = ++p;
        for (; p < end && IS_DIGIT(*p); p++)
            w = 10 * w + (uint64_t)(*p - '0');
        if (p == fraction)
            return NULL;
        q = fraction - p;
        count += p - fraction;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        const bool negative_exponent = ++p < end && *p == '-';
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        const char *const exponent = p;
        int64_t e = 0;
        for (; p < end && IS_DIGIT(*p); p++)
            if (e < 100000)
                e = 10 * e + (*p - '0');
        if (p == exponent)
            return NULL;
        q += negative_exponent ? -e : e;
    }
    if (p - token > VALUE_MAX)
        return NULL;
    for (const char *z = digits; count > 19 && (*z == '0' || *z == '.'); z++)
        count -= *z == '0';

    double v;
    if (count > 19 || (w != 0 && (q < -342 || q > 308)))
        goto fallback;
    if (w == 0)
        v = 0.0;
    else if (q >= -22 && q <= 22 && w <= (uint64_t)1 << 53)
        v = q < 0 ? (double)w / EXACT_POWERS_OF_TEN[-q] : (double)w * EXACT_POWERS_OF_TEN[q];
    else if (eisel_lemire(w, q, pow5, &v))
        goto fallback;
    *out = negative ? -v : v;
    return p;

fallback:;
    char tmp[VALUE_MAX + 1];
    const size_t size = (size_t)(p - token);
    memcpy(tmp, token, size);
    tmp[size] = '\0';
    char *stop;
    errno = 0;
    *out = strtod(tmp, &stop);
    return stop == tmp + size && errno != ERANGE && isfinite(*out) ? p : NULL;
}

int libsvm_parse(const char *buf, int64_t len, const uint64_t *pow5, int64_t *shape,
                 double *labels, int64_t *indptr, int64_t *indices, double *values)
{
    const char *p = buf, *const end = buf + len;
    const int64_t max_lines = shape[0], max_values = shape[1];
    int64_t n = 0, kept = 0, max_index = 0;

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
            double v;
            if ((p = read_value(++p, end, pow5, &v)) == NULL)
                return 1;
            if (p < end && !IS_SEP(*p) && *p != '\n' && *p != '\r')
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

/* The rows come out of the bitmap by a scan of its words, whose cost
   grows with the word count and with k, unless k * k < SORT_CROSSOVER
   words, where an insertion sort of the k rows, whose cost grows with
   k * k, is cheaper: at d = 1e5 (1563 words) up to k = 68.  The two
   crossed between k * k = 2 and 6 words, timed alone for d = 1e3 to 3e5
   and k = 4 to 128 on a 2-vCPU Xeon; at d = 1e5 the sort took 22% of the
   scan's time at k = 16 and 67% at k = 48. */
#define SORT_CROSSOVER 3

/* rows[0..k) are distinct rows, each set in bits (ceil(d / 64) words, no
   other bit set): write them in increasing order and clear their bits. */
static void sorted_rows(int64_t *rows, int64_t k, uint64_t *bits, int64_t d)
{
    const int64_t words = (d + 63) / 64;
    if (k * k < SORT_CROSSOVER * words) {
        for (int64_t i = 1; i < k; i++) {
            const int64_t r = rows[i];
            int64_t j = i;
            for (; j > 0 && rows[j - 1] > r; j--)
                rows[j] = rows[j - 1];
            rows[j] = r;
        }
        for (int64_t i = 0; i < k; i++)
            bits[rows[i] >> 6] = 0;
        return;
    }
    for (int64_t w = 0, i = 0; i < k; w++) {
        uint64_t word = bits[w];
        if (word == 0)
            continue;
        bits[w] = 0;
        for (; word != 0; word &= word - 1)
            rows[i++] = 64 * w + __builtin_ctzll(word);
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

   bits (ceil(d / 64) words, zeroed) marks the picks, both for Floyd's
   membership test and for sorted_rows, and is zeroed again on return;
   pool (d entries) is scratch; indptr[0] = 0 and indices, values hold
   capacity entries.  Returns 0 when every column is written, or 1 as soon
   as a column would not fit, after its binomial draw: the Generator is
   then spent and the caller starts over. */
int synth_columns(bitgen_t *bitgen, int64_t n, int64_t d, double p, int64_t min_k,
                  uint64_t *bits, int64_t *pool, int64_t *indptr,
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
                rows[i] = (bits[r >> 6] >> (r & 63) & 1) ? t : r;
                bits[rows[i] >> 6] |= (uint64_t)1 << (rows[i] & 63);
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
                bits[rows[i] >> 6] |= (uint64_t)1 << (rows[i] & 63);
            }
        }
        sorted_rows(rows, k, bits, d);
        random_standard_normal_fill(bitgen, (intptr_t)k, vals);
        for (int64_t i = 0; i < k; i++)
            if (vals[i] == 0.0)
                vals[i] = 1e-12;
    }
    return 0;
}
#endif
