/* The lockstep loop of equalab.dfe.equalize, the uniform draws of
 * equalab.txrx from the seed on and the rows of curves.csv, compiled;
 * _kernel.py builds and loads it and holds the numpy twin of each.
 *
 * The loop runs the same operations as `_numpy_loop` and writes the same
 * buffers, reading both lines as it does, but walks each row to the end
 * before starting the next; rows are independent.  Each dot product is 0.0
 * plus every product added in tap order, as `_numpy_loop` and `dsp.dot` sum
 * it.  Built with -ffp-contract=off, so that every product is rounded before
 * it is added, as numpy and Python round it. */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

void equalab_lockstep(int64_t rows, int64_t n, int64_t n_ff, int64_t n_fb,
                      const double *RX, const double *H, double *D, double *W, double *B, double *E,
                      int64_t train, double mu, int ilms, double step_floor, double step_cap)
{
    for (int64_t s = 0; s < rows; s++) {
        const double *r = RX + s * n, *h = H + s * (2 * n_ff - 1) + n_ff - 1;
        double *dl = D + s * (n_fb + n) + n_fb, *w = W + s * n_ff, *b = B + s * n_fb, *e_row = E + s * n;
        double e_prev = 0.0;
        for (int64_t i = 0; i < n; i++) {
            /* FF tap j reads x[-j], the sample of step i - j: in the row's
             * head, after its n_ff - 1 zeros, while the line reaches before
             * the first sample, then in the row itself.  FB tap j reads
             * f[-1 - j], the decision of step i - 1 - j, or a zero before. */
            const double *x = (i < n_ff - 1 ? h : r) + i, *f = dl + i;
            double ff = 0.0, fb = 0.0;
            for (int64_t j = 0; j < n_ff; j++)
                ff = ff + w[j] * x[-j];
            for (int64_t j = 0; j < n_fb; j++)
                fb = fb + b[j] * f[-1 - j];
            double y = ff - fb;
            double d = copysign(1.0, y + 0.0);
            double e = (i < train ? e_row[i] : d) - y; /* e_row[i]: the reference */
            dl[i] = d;
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
                double t = g * x[-j];
                w[j] = w[j] + t;
            }
            for (int64_t j = 0; j < n_fb; j++) {
                double t = g * f[-1 - j];
                b[j] = b[j] - t;
            }
        }
    }
}

/* SeedSequence's 32-bit hash (numpy/random/bit_generator.pyx), whose
 * constant *h advances on every call, and its mix of two words. */
static uint32_t hashmix(uint32_t value, uint32_t *h, uint32_t mult)
{
    value ^= *h;
    *h *= mult;
    value *= *h;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xCA01F9DDu * x - 0x4973F715u * y;
    return r ^ r >> 16;
}

/* The 128-bit value PCG64 reads from four 32-bit words of generate_state:
 * the uint64 w[0] | w[1] << 32 high, w[2] | w[3] << 32 low. */
static u128 join(const uint32_t *w)
{
    return (u128)w[1] << 96 | (u128)w[0] << 64 | (u128)w[3] << 32 | w[2];
}

/* numpy's Generator(PCG64(seed)).random(n), for the seed's n_words 32-bit
 * words at `words`, lowest first (one word for 0).  SeedSequence(seed)
 * hashes them into a pool of four words, and generate_state(4, uint64)
 * hashes the pool, cycled twice, into PCG64's 128-bit initial state and
 * stream.  PCG64 is a 128-bit LCG with the XSL-RR output (O'Neill,
 * HMC-CS-2014-0905, 2014); a double takes the top 53 bits of each output,
 * as numpy's next_double does. */
void equalab_uniform(const uint32_t *words, int64_t n_words, int64_t n, double *out)
{
    const uint32_t mult_a = 0x931E8875u, mult_b = 0x58F38DEDu;
    uint32_t pool[4], gen[8], h = 0x43B0D7E5u; /* gen: generate_state(4, uint64) */
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n_words ? words[i] : 0, &h, mult_a);
    for (int src = 0; src < 4; src++) /* every word feeds every other, so late bits reach early ones */
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h, mult_a));
    for (int64_t src = 4; src < n_words; src++) /* words beyond the pool are mixed into each word */
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(words[src], &h, mult_a));
    h = 0x8B51F9DDu;
    for (int k = 0; k < 8; k++)
        gen[k] = hashmix(pool[k % 4], &h, mult_b);
    const u128 mult = (u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL;
    /* pcg_setseq_128_srandom_r: state 0, one step, add the seed, one step. */
    u128 inc = join(gen + 4) << 1 | 1u;
    u128 state = (inc + join(gen)) * mult + inc;
    for (int64_t k = 0; k < n; k++) {
        state = state * mult + inc;
        uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
        unsigned rot = (unsigned)(state >> 122);
        x = (x >> rot) | (x << ((-rot) & 63u));
        out[k] = (double)(x >> 11) * (1.0 / 9007199254740992.0);
    }
}

/* curves.csv's rows of one rule, `i,<name>,<sq[i]>,<sm[i]>\n` for i < m and
 * `i,<name>,<sq[i]>,\n` after, written at `out`, which holds at least
 * n * (72 + name_len) + 1 bytes; returns the number written.  Each value has
 * the bytes of Python's format(v, ".17g").  For a normal |v| in [2^-129, 1e17)
 * the 17 digits are round(|v| * 10^q) with q = 16 - k and 10^k <= |v| <
 * 10^(k+1), so 0 <= q <= 55 and 5^q fits in 128 bits: the product of the
 * 53-bit mantissa and 5^q, shifted left to fill 128 bits, holds |v| * 10^q
 * exactly and is rounded half to even.  Every other value goes through
 * snprintf("%.17g"), but a NaN of either sign is written as Python writes it. */

static char *put(char *p, const char *s, int len)
{
    memcpy(p, s, len);
    return p + len;
}

/* Digits d[0..j), then a point and d[j..nd) if any of them is left. */
static char *put_point(char *p, const char *d, int j, int nd)
{
    p = put(p, d, j);
    if (nd > j) {
        *p++ = '.';
        p = put(p, d + j, nd - j);
    }
    return p;
}

static char *put_g17(char *p, double v, const u128 *pow5, const int *shift)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int E = (int)(bits >> 52 & 0x7ff) - 1023; /* 2^E <= |v| < 2^(E+1) if normal */
    if (v != v)
        return put(p, "nan", 3);
    if (E < -129 || fabs(v) >= 1e17)
        return p + snprintf(p, 25, "%.17g", v);
    if (bits >> 63)
        *p++ = '-';
    uint64_t f = (bits & ((1ULL << 52) - 1)) | 1ULL << 52, n;
    u128 hi, rest, half;
    uint64_t lo;
    int k = (E * 78913) >> 18, u; /* floor(E log10 2): the k above, or k - 1 */
    for (;;) {
        int q = 16 - k;
        u128 low = (u128)f * (uint64_t)pow5[q];
        hi = (u128)f * (uint64_t)(pow5[q] >> 64) + (low >> 64);
        lo = (uint64_t)low;
        /* |v| * 10^q = (hi * 2^64 + lo) / 2^(u + 64), u in [56, 63] */
        u = shift[q] - (E - 52) - q - 64;
        n = (uint64_t)(hi >> u);
        if (n < 100000000000000000ULL) /* else k was one short */
            break;
        k++;
    }
    rest = hi & (((u128)1 << u) - 1);
    half = (u128)1 << (u - 1);
    if (rest > half || (rest == half && (lo || (n & 1))))
        n++;
    if (n == 100000000000000000ULL) {
        n /= 10;
        k++;
    }
    char d[17];
    for (int i = 16; i >= 0; i--, n /= 10)
        d[i] = (char)('0' + n % 10);
    int nd = 17; /* digits left once trailing zeros are dropped */
    while (d[nd - 1] == '0')
        nd--;
    if (k >= 0) /* %g's fixed notation: k <= 16 */
        return put_point(p, d, k + 1, nd);
    if (k >= -4)
        return put(put(p, "0.000", 1 - k), d, nd);
    p = put_point(p, d, 1, nd); /* exponent notation, k in [-39, -5] */
    *p++ = 'e';
    *p++ = '-';
    *p++ = (char)('0' + -k / 10);
    *p++ = (char)('0' + -k % 10);
    return p;
}

int64_t equalab_rows(const char *name, int64_t name_len, const double *sq, int64_t n,
                     const double *sm, int64_t m, char *out)
{
    u128 pow5[56], p5 = 1; /* 5^q << shift[q]: its top bit is bit 127 */
    int shift[56];
    for (int q = 0; q < 56; q++, p5 *= 5) {
        uint64_t top = (uint64_t)(p5 >> 64);
        shift[q] = top ? __builtin_clzll(top) : 64 + __builtin_clzll((uint64_t)p5);
        pow5[q] = p5 << shift[q];
    }
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        char digits[20];
        int len = 0;
        for (uint64_t x = (uint64_t)i; len == 0 || x; x /= 10)
            digits[len++] = (char)('0' + x % 10);
        while (len)
            *p++ = digits[--len];
        *p++ = ',';
        p = put(p, name, (int)name_len);
        *p++ = ',';
        p = put_g17(p, sq[i], pow5, shift);
        *p++ = ',';
        if (i < m)
            p = put_g17(p, sm[i], pow5, shift);
        *p++ = '\n';
    }
    return p - out;
}
