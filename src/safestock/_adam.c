/* One Adam step in a single pass, for nets.adam_step.
 *
 * Per element this makes the same 16 IEEE double operations, in the same
 * order, as the numpy passes in nets._adam_passes, so every result is
 * bit-identical to them (a NaN made from two NaNs may carry either one's
 * sign and payload).  Build with -ffp-contract=off, so that no two
 * roundings fuse into one FMA; -fno-math-errno and -fno-trapping-math let
 * the compiler vectorise sqrt and the flush select without changing any
 * value.  Never build with -ffast-math.
 */
#include <math.h>
#include <stddef.h>

void adam_step(double *restrict p, const double *restrict g,
               double *restrict m, double *restrict v, size_t n,
               double beta1, double one_minus_beta1,
               double beta2, double one_minus_beta2,
               double k, double eps, double lr, double tiny)
{
    for (size_t i = 0; i < n; i++) {
        double gi = g[i];
        double mi = m[i] * beta1 + gi * one_minus_beta1;
        double vi = v[i] * beta2 + (gi * gi) * one_minus_beta2;
        /* flush |m| < tiny: a multiply by 0.0, as numpy's m *= keep */
        mi = mi * (fabs(mi) >= tiny ? 1.0 : 0.0);
        m[i] = mi;
        v[i] = vi;
        p[i] = p[i] - (mi / (sqrt(vi) * k + eps)) * lr;
    }
}
