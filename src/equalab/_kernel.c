/* The lockstep loop of equalab.dfe.equalize, compiled (see _kernel.py).
 *
 * It runs the same operations on the same buffers as the numpy loop
 * (`_numpy_loop` in dfe.py), but walks each row to the end before starting
 * the next; rows are independent.  Both dot products go through the BLAS
 * `ddot` that numpy's own dot uses, formed as 0.0 + ddot(...) as numpy's
 * DOUBLE_dot forms them.  Built with -ffp-contract=off, so that every
 * product is rounded before it is added, as numpy rounds it. */
#include <math.h>
#include <stdint.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);

void equalab_lockstep(ddot_fn ddot, int64_t rows, int64_t n, int64_t n_ff, int64_t n_fb,
                      const double *R, double *D, double *W, double *B, double *E,
                      const double *refs, int64_t train,
                      double mu, int ilms, double step_floor, double step_cap)
{
    for (int64_t s = 0; s < rows; s++) {
        const double *r = R + s * (n + n_ff - 1);
        double *dl = D + s * (n + n_fb), *w = W + s * n_ff, *b = B + s * n_fb, *e_row = E + s * n;
        double e_prev = 0.0;
        for (int64_t i = 0; i < n; i++) {
            int64_t a = n - 1 - i;
            const double *x = r + a, *f = dl + a + 1;
            double y = (0.0 + ddot(n_ff, w, 1, x, 1)) - (0.0 + ddot(n_fb, b, 1, f, 1));
            double d = copysign(1.0, y + 0.0);
            double e = (i < train ? refs[i * rows + s] : d) - y;
            dl[a] = d;
            e_row[i] = e;
            double step = mu;
            if (ilms) {
                /* np.maximum and np.minimum: a NaN passes through. */
                double scale = fabs(e - e_prev);
                scale = (scale != scale || scale >= step_floor) ? scale : step_floor;
                step = mu * scale;
                step = (step != step || step <= step_cap) ? step : step_cap;
                e_prev = e;
            }
            double g = step * e;
            for (int64_t j = 0; j < n_ff; j++) {
                double t = g * x[j];
                w[j] = w[j] + t;
            }
            for (int64_t j = 0; j < n_fb; j++) {
                double t = g * f[j];
                b[j] = b[j] - t;
            }
        }
    }
}
