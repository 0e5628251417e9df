/* Compiled forms of apcg's per-epoch coordinate kernels and CSC products.

   Each function is a plain loop over the arrays of a SparseColMatrix (d x n,
   column j holds values[indptr[j]:indptr[j+1]] at rows indices[...]) that
   mirrors a Python reference:

     csc_dot         SparseColMatrix.dot   (np.bincount form, same order)
     csc_tdot        SparseColMatrix.tdot  (np.bincount form, same order)
     apcg_erm_epoch  erm.apcg_erm_steps
     sdca_epoch      the Python body of baselines.sdca_epoch

   The products add the same rounded terms in the same order as np.bincount,
   so they are bitwise equal to it.  The epochs sum each column dot product
   left to right, where numpy's dot may use another order, so they agree
   with the references to rounding only.  apcg.native builds this file with
   -O2 -ffp-contract=off: no fused multiply-add, no fast-math.  Callers
   validate dtypes, shapes and index ranges before every call. */

#include <math.h>
#include <stdint.h>

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
