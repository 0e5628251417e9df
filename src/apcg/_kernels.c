/* Compiled forms of apcg's per-epoch coordinate kernels, CSC products and
   LIBSVM tokenizer.

   Each function is a plain loop over (for the tokenizer, into) the arrays
   of a SparseColMatrix (d x n, column j holds values[indptr[j]:indptr[j+1]]
   at rows indices[...]) that mirrors a Python reference:

     csc_dot         SparseColMatrix.dot   (np.bincount form, same order)
     csc_tdot        SparseColMatrix.tdot  (np.bincount form, same order)
     apcg_erm_epoch  erm.apcg_erm_steps
     sdca_epoch      the Python body of baselines.sdca_epoch
     libsvm_parse    data._parse_python, on a strict subset of its input

   The products add the same rounded terms in the same order as np.bincount,
   so they are bitwise equal to it.  The epochs sum each column dot product
   left to right, where numpy's dot may use another order, so they agree
   with the references to rounding only.  apcg.native builds this file with
   -O2 -ffp-contract=off -falign-loops=64: no fused multiply-add, no
   fast-math, and every loop starting a cache line.  The tokenizer reads
   values with strtod, which rounds correctly like Python's float(), so
   what it accepts parses to the same bits.  Callers validate dtypes,
   shapes and index ranges before every call. */

#include <errno.h>
#include <math.h>
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

/* One accelerated dual coordinate step per index in blocks, starting at
   iteration k; see erm.apcg_erm_steps for the update.  scalars holds
   (pbar_scale, last_h) on entry and on return. */
void apcg_erm_epoch(const int64_t *indptr, const int64_t *indices,
                    const double *values, const int64_t *blocks, int64_t nblocks,
                    double *ubar_raw, int64_t *stamps, double *v,
                    double *pbar_base, double *q, int64_t d,
                    const double *quad_weight, const double *anchor_over_n,
                    double rho, double grad_scale, double gamma_over_n,
                    double half_minus, double half_plus, int is_box,
                    int64_t k, double *scalars)
{
    double pbar_scale = scalars[0], h = scalars[1];
    for (int64_t b = 0; b < nblocks; b++, k++) {
        const int64_t i = blocks[b], lo = indptr[i], hi = indptr[i + 1];
        double p_dot = 0.0, q_dot = 0.0;
        for (int64_t j = lo; j < hi; j++) {
            p_dot += values[j] * pbar_base[indices[j]];
            q_dot += values[j] * q[indices[j]];
        }
        const double ub_i = ubar_raw[i] * pow(rho, (double)(k - stamps[i]));
        const double v_i = v[i];
        const double a_dot = p_dot * pbar_scale + q_dot;
        const double grad = a_dot * grad_scale + gamma_over_n * (ub_i + v_i);

        const double t0 = -ub_i + v_i;
        double s = t0 + (anchor_over_n[i] - grad) / quad_weight[i];
        if (is_box)
            s = s < 0.0 ? 0.0 : (s > 1.0 ? 1.0 : s);
        h = s - t0;

        ubar_raw[i] = rho * (ub_i - half_minus * h);
        stamps[i] = k + 1;
        v[i] = v_i + half_plus * h;
        if (h != 0.0) {
            const double dp = half_minus * h / pbar_scale, dq = half_plus * h;
            for (int64_t j = lo; j < hi; j++) {
                pbar_base[indices[j]] -= dp * values[j];
                q[indices[j]] += dq * values[j];
            }
        }
        pbar_scale *= rho;
        if (pbar_scale < 1e-120) {
            for (int64_t r = 0; r < d; r++)
                pbar_base[r] *= pbar_scale;
            pbar_scale = 1.0;
        }
    }
    scalars[0] = pbar_scale;
    scalars[1] = h;
}

/* One exact dual coordinate ascent step per index in blocks, in place on
   x and w_agg = A x / (lam n); see baselines.sdca_epoch. */
void sdca_epoch(const int64_t *indptr, const int64_t *indices,
                const double *values, const int64_t *blocks, int64_t nblocks,
                double *x, double *w_agg, const double *col_norms_sq,
                const double *anchors, double lam_n, double gamma, int is_box)
{
    for (int64_t b = 0; b < nblocks; b++) {
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

/* LIBSVM text to CSC arrays, for the strict subset of the format that
   data.parse_libsvm hands to it: lines end in \n or \r\n (the last may have
   no ending); fields are separated by spaces or tabs; the label is +1, -1
   or 1; each feature is idx:val with idx 1 to 18 ASCII digits, >= 1,
   strictly increasing along the line and <= n_features; val matches
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

int libsvm_parse(const char *buf, int64_t len, int64_t n_features, int64_t *shape,
                 double *labels, int64_t *indptr, int64_t *indices, double *values)
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
            if (p == digits || p == end || *p != ':' || idx <= prev || idx > n_features)
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
