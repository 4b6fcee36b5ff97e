/* Compiled loops for nets: one Adam step, and one layer of backward.
 *
 * Each function makes, per element, the same IEEE double operations in the
 * same order as the numpy passes it replaces (nets._adam_passes and
 * nets._backward_passes), so every result is bit-identical to theirs (a NaN
 * made from two NaNs may carry either one's sign and payload).  Build with
 * -ffp-contract=off, so that no two roundings fuse into one FMA;
 * -fno-math-errno and -fno-trapping-math let the compiler vectorise sqrt
 * and the selects without changing any value.  Never build with
 * -ffast-math.
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

/* One layer of back-propagation for `members` stacked networks.
 *
 * dz is the layer's (members, n_out) upstream gradient.  When z (the
 * layer's pre-activations) is given, dz is first masked in place by z > 0,
 * a multiply by 1.0 or 0.0 as numpy's dz *= z > 0.0.  Then
 * g_w[k, o, i] = a[k, i] * dz[k, o] for the (members, n_in) layer input a,
 * and g_b = dz.  No two arrays overlap.
 */
static void layer_grads(double *restrict dz, const double *restrict z,
                        const double *restrict a, double *restrict g_w,
                        double *restrict g_b,
                        size_t members, size_t n_out, size_t n_in)
{
    for (size_t k = 0; k < members; k++) {
        const double *ak = a + k * n_in;
        for (size_t o = 0; o < n_out; o++) {
            size_t j = k * n_out + o;
            double d = dz[j];
            if (z != NULL) {
                d = d * (z[j] > 0.0 ? 1.0 : 0.0);
                dz[j] = d;
            }
            g_b[j] = d;
            double *row = g_w + j * n_in;
            for (size_t i = 0; i < n_in; i++)
                row[i] = ak[i] * d;
        }
    }
}

/* A layer's arguments, resolved once per nets.ForwardCache, which writes
 * them as eight pointer-sized integers in this order.  The weight and bias
 * gradients are byte offsets into the flat gradient vector `out`, the one
 * address that changes from call to call.  A ctypes call with two
 * arguments costs about 0.5 us, one with eight about 1.8 us (2-vCPU Xeon). */
struct layer {
    double *dz;
    const double *z;
    const double *a;
    size_t w_off, b_off;
    size_t members, n_out, n_in;
};

void backward_layer(const struct layer *layer, char *out)
{
    layer_grads(layer->dz, layer->z, layer->a,
                (double *)(out + layer->w_off), (double *)(out + layer->b_off),
                layer->members, layer->n_out, layer->n_in);
}
