/* Compiled loops for nets: one Adam step, and whole forward and backward
 * passes of a stacked network.
 *
 * Each function makes, per element, the same IEEE double operations in the
 * same order as the numpy passes it replaces (nets._adam_passes,
 * nets._forward_passes and nets._backward_passes), so every result is
 * bit-identical to theirs (a NaN made from two NaNs may carry either one's
 * sign and payload).  The matrix-vector products are made by the BLAS
 * functions numpy's matmul calls, found in numpy's own library and handed
 * over once by set_blas, with the arguments numpy passes them.  Build with
 * -ffp-contract=off, so that no two roundings fuse into one FMA;
 * -fno-math-errno and -fno-trapping-math let the compiler vectorise sqrt
 * and the selects without changing any value.  Never build with
 * -ffast-math.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

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

/* numpy's ILP64 CBLAS (scipy_cblas_dgemv64_, scipy_cblas_ddot64_) */
typedef void (*dgemv_fn)(int order, int trans, int64_t m, int64_t n,
                         double alpha, const double *a, int64_t lda,
                         const double *x, int64_t incx, double beta,
                         double *y, int64_t incy);
typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);
enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

static dgemv_fn dgemv;
static ddot_fn ddot;

void set_blas(dgemv_fn gemv, ddot_fn dot)
{
    dgemv = gemv;
    ddot = dot;
}

/* y = w @ x for one member's C-contiguous (n_out, n_in) matrix, as numpy's
 * matmul makes it: a dot product for one output row, its own loop for one
 * input column, else a transposed column-major gemv. */
static void mat_vec(const double *w, const double *x, double *y,
                    size_t n_out, size_t n_in)
{
    if (n_out == 1) {
        double sum = 0.0;
        sum += ddot((int64_t)n_in, w, 1, x, 1);
        y[0] = sum;
    } else if (n_in == 1) {
        for (size_t o = 0; o < n_out; o++) {
            double s = 0.0;
            s += w[o] * x[0];
            y[o] = s;
        }
    } else {
        dgemv(COL_MAJOR, TRANS, (int64_t)n_in, (int64_t)n_out, 1.0,
              w, (int64_t)n_in, x, 1, 0.0, y, 1);
    }
}

/* y = w.T @ x, likewise: a dot product for one input column, numpy's own
 * loop for one output row, else a transposed row-major gemv. */
static void mat_t_vec(const double *w, const double *x, double *y,
                      size_t n_out, size_t n_in)
{
    if (n_in == 1) {
        double sum = 0.0;
        sum += ddot((int64_t)n_out, w, 1, x, 1);
        y[0] = sum;
    } else if (n_out == 1) {
        for (size_t i = 0; i < n_in; i++) {
            double s = 0.0;
            s += w[i] * x[0];
            y[i] = s;
        }
    } else {
        dgemv(ROW_MAJOR, TRANS, (int64_t)n_out, (int64_t)n_in, 1.0,
              w, (int64_t)n_in, x, 1, 0.0, y, 1);
    }
}

/* A network's plan, resolved once per nets.ForwardCache, which writes it
 * as pointer-sized integers in this order.  Per layer, z, a and dz are the
 * (members, n) pre-activations, input and upstream gradient in the cache;
 * the weight and bias blocks are byte offsets into theta, and the same
 * offsets place their gradients in a flat gradient vector.  Only theta and
 * the gradient vector are passed per call: a ctypes call with two
 * arguments costs about 0.5 us, one with eight about 1.8 us (2-vCPU Xeon). */
struct layer {
    double *z;
    double *a;
    double *dz;
    size_t w_off, b_off;
    size_t n_out, n_in;
};

struct net {
    size_t members, n_layers;
    struct layer layer[];
};

#define BLOCK(base, off) ((const double *)((base) + (off)))

/* Every layer's z = W @ a + b, and a_next = maximum(z, 0.0), which keeps a
 * NaN and maps -0.0 to +0.0. */
void forward(const struct net *net, const char *theta)
{
    size_t last = net->n_layers - 1;
    for (size_t i = 0; i <= last; i++) {
        const struct layer *l = &net->layer[i];
        size_t n_out = l->n_out, n_in = l->n_in;
        for (size_t k = 0; k < net->members; k++) {
            const double *b = BLOCK(theta, l->b_off) + k * n_out;
            double *z = l->z + k * n_out;
            mat_vec(BLOCK(theta, l->w_off) + k * n_out * n_in, l->a + k * n_in,
                    z, n_out, n_in);
            for (size_t o = 0; o < n_out; o++)
                z[o] = z[o] + b[o];
            if (i < last) {
                double *a_next = net->layer[i + 1].a + k * n_out;
                for (size_t o = 0; o < n_out; o++)
                    a_next[o] = (z[o] > 0.0 || z[o] != z[o]) ? z[o] : 0.0;
            }
        }
    }
}

/* One layer's gradients for `members` stacked networks.
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

/* Back-propagate the last layer's dz (already in its slot) through every
 * layer, last first, writing the gradients into `out`; each earlier
 * layer's dz is W.T @ dz of the layer above it. */
void backward(const struct net *net, const char *theta, char *out)
{
    size_t last = net->n_layers - 1;
    for (size_t i = last + 1; i-- > 0;) {
        const struct layer *l = &net->layer[i];
        size_t n_out = l->n_out, n_in = l->n_in;
        layer_grads(l->dz, i < last ? l->z : NULL, l->a,
                    (double *)(out + l->w_off), (double *)(out + l->b_off),
                    net->members, n_out, n_in);
        if (i == 0)
            break;
        double *up = net->layer[i - 1].dz;
        for (size_t k = 0; k < net->members; k++)
            mat_t_vec(BLOCK(theta, l->w_off) + k * n_out * n_in, l->dz + k * n_out,
                      up + k * n_in, n_out, n_in);
    }
}
