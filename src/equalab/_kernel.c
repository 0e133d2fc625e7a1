/* The lockstep loop of equalab.dfe.equalize and the uniform draws of
 * equalab._pcg64, compiled (see _kernel.py).
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

/* numpy's Generator(PCG64(seed)).random(n).  The initial state (s_hi, s_lo)
 * and the stream (i_hi, i_lo) are the two 128-bit halves of
 * SeedSequence(seed).generate_state(4, uint64), derived in _pcg64, each given
 * as its high and low 64-bit words.  PCG64 is a 128-bit LCG with the XSL-RR
 * output (O'Neill, HMC-CS-2014-0905, 2014); a double takes the top 53 bits
 * of each output, as numpy's next_double does. */
void equalab_uniform(uint64_t s_hi, uint64_t s_lo, uint64_t i_hi, uint64_t i_lo, int64_t n, double *out)
{
    const unsigned __int128 mult = ((unsigned __int128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    /* pcg_setseq_128_srandom_r: state 0, one step, add the seed, one step. */
    unsigned __int128 inc = ((((unsigned __int128)i_hi << 64) | i_lo) << 1) | 1u;
    unsigned __int128 state = (inc + (((unsigned __int128)s_hi << 64) | s_lo)) * mult + inc;
    for (int64_t k = 0; k < n; k++) {
        state = state * mult + inc;
        uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
        unsigned rot = (unsigned)(state >> 122);
        x = (x >> rot) | (x << ((-rot) & 63u));
        out[k] = (double)(x >> 11) * (1.0 / 9007199254740992.0);
    }
}
