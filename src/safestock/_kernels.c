/* Compiled loops for nets: one Adam step, whole forward and backward
 * passes of a stacked network, and a whole online actor-critic update
 * made of them.  Python calls forward and a2c_update; adam_step and
 * backward run inside a2c_update, and Python calls them only to check
 * them.  nets uses the library as a whole or not at all, and hands it only
 * aligned, C-contiguous float64 vectors, checked when the nets.Mlp or the
 * nets.A2cUpdate that holds them is made; a call checks no array.
 *
 * Each function makes, per element, the same IEEE double operations in the
 * same order as the numpy passes it replaces (nets._adam_passes,
 * nets._forward_passes, nets._backward_passes and nets._a2c_passes), so
 * every result is bit-identical to theirs (a NaN made from two NaNs may
 * carry either one's sign and payload).  The one exception is an Adam block that provably
 * changes neither a parameter nor a first moment (see adam_step): it skips
 * the parameter, so a signalling NaN there stays signalling where the full
 * update would quiet it.  The matrix-vector products are made by the BLAS
 * functions numpy's matmul calls, found in numpy's own library and handed
 * over once by set_blas, with the arguments numpy passes them.  Build with
 * -ffp-contract=off, so that no two roundings fuse into one FMA;
 * -fno-math-errno and -fno-trapping-math let the compiler vectorise sqrt
 * and the selects without changing any value.  nets builds for the host's
 * own vector width (-march=native): every loop is elementwise, and a
 * vector sqrt, divide, multiply or add rounds each lane as the scalar one
 * does.  Never build with -ffast-math.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Adam walks its vectors in blocks of this many elements. */
#define ADAM_BLOCK 32

/* The rest of the update for len elements whose second moments are
 * already updated in vn: the first moment, its flush, and the step. */
static inline void adam_rest(double *restrict p, const double *restrict g,
                             double *restrict m, const double *restrict vn,
                             size_t len, double beta1, double one_minus_beta1,
                             double k, double eps, double lr, double tiny)
{
    for (size_t j = 0; j < len; j++) {
        double mi = m[j] * beta1 + g[j] * one_minus_beta1;
        /* flush |m| < tiny: a multiply by 0.0, as numpy's m *= keep */
        mi = mi * (fabs(mi) >= tiny ? 1.0 : 0.0);
        m[j] = mi;
        p[j] = p[j] - (mi / (sqrt(vn[j]) * k + eps)) * lr;
    }
}

/* One block of len <= ADAM_BLOCK elements.  It is idle when every
 * gradient is +-0, every first moment is +0 and every updated second
 * moment is >= 0 (so not NaN).  Then, under the gate in adam_step, the
 * first moment is +0 * beta1 + (+-0 * (1 - beta1)) = +0, flushed to +0,
 * and the step is (+0 / (sqrt(v) * k + eps)) * lr = +0 with a positive
 * (or infinite) denominator, so m and p keep their bits: an idle block
 * writes its second moments alone. */
static inline void adam_block(double *restrict p, const double *restrict g,
                              double *restrict m, double *restrict v, size_t len,
                              int may_skip, double beta1, double one_minus_beta1,
                              double beta2, double one_minus_beta2,
                              double k, double eps, double lr, double tiny)
{
    double vn[ADAM_BLOCK];
    int busy = !may_skip;
    for (size_t j = 0; j < len; j++) {
        double gj = g[j];
        uint64_t mj;
        memcpy(&mj, &m[j], sizeof mj);
        vn[j] = v[j] * beta2 + (gj * gj) * one_minus_beta2;
        busy |= (gj != 0.0) | (mj != 0) | !(vn[j] >= 0.0);
    }
    if (busy)
        adam_rest(p, g, m, vn, len, beta1, one_minus_beta1, k, eps, lr, tiny);
    memcpy(v, vn, len * sizeof *vn);
}

void adam_step(double *restrict p, const double *restrict g,
               double *restrict m, double *restrict v, size_t n,
               double beta1, double one_minus_beta1,
               double beta2, double one_minus_beta2,
               double k, double eps, double lr, double tiny)
{
    /* An idle block steps by exactly +0 only when these hold: a positive
     * finite denominator floor, a finite positive k, a finite step size
     * with its sign bit clear (-0 would step a -0 parameter to +0), a
     * first-moment decay that keeps +0 at +0, and finite 1 - beta. */
    int may_skip = eps > 0.0 && isfinite(eps) && k > 0.0 && isfinite(k)
        && lr >= 0.0 && !signbit(lr) && isfinite(lr)
        && beta1 >= 0.0 && !signbit(beta1)
        && isfinite(one_minus_beta1) && isfinite(one_minus_beta2);
    size_t i = 0;
    for (; i + ADAM_BLOCK <= n; i += ADAM_BLOCK)
        adam_block(p + i, g + i, m + i, v + i, ADAM_BLOCK, may_skip, beta1,
                   one_minus_beta1, beta2, one_minus_beta2, k, eps, lr, tiny);
    /* the tail always takes the full update */
    adam_block(p + i, g + i, m + i, v + i, n - i, 0, beta1, one_minus_beta1,
               beta2, one_minus_beta2, k, eps, lr, tiny);
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

/* One online actor-critic update's arrays and constants, resolved once,
 * when a nets.A2cUpdate is made; nets._A2cPlan mirrors it field by field.
 * critic and critic_next are the critic's plans on the caches of s and s',
 * actor the actor's plan on the cache its sampling pass filled.  The
 * critic's and the actor's parameters and gradients are the two parts of
 * the one vector p and its gradient g, which Adam steps as a whole; a is
 * the raw sampled action, and var the variance std * std shared by every
 * actor output.  Only the reward and the step's bias corrections are
 * passed per call. */
struct a2c_plan {
    const struct net *critic, *critic_next, *actor;
    const char *critic_theta, *actor_theta;
    char *critic_grad, *actor_grad;
    const double *a;
    double *p, *g, *m, *v;
    size_t n;
    double var, gamma, beta1, one_minus_beta1, beta2, one_minus_beta2, eps, tiny;
};

static inline const struct layer *last_layer(const struct net *net)
{
    return &net->layer[net->n_layers - 1];
}

/* nets._a2c_passes in one call: V(s) and V(s'), the TD error
 * delta = (r + gamma * V(s')) - V(s), the critic's backward pass from
 * -delta, the actor's from ((a - mu) / var) * -delta, and one Adam step
 * with bias corrections k and lr; gamma and Adam's constants are in the
 * plan.  Returns delta; a non-finite delta returns before any gradient,
 * parameter or moment is written.  forward, backward and adam_step are
 * called, not inlined: in a -fPIC build they may be interposed, so the
 * compiler keeps one copy of each. */
double a2c_update(const struct a2c_plan *plan, double r, double k, double lr)
{
    forward(plan->critic, plan->critic_theta);
    forward(plan->critic_next, plan->critic_theta);
    const struct layer *value = last_layer(plan->critic);
    double delta = (r + plan->gamma * last_layer(plan->critic_next)->z[0])
        - value->z[0];
    if (!isfinite(delta))
        return delta;
    value->dz[0] = -delta;
    backward(plan->critic, plan->critic_theta, plan->critic_grad);
    const struct layer *mu = last_layer(plan->actor);
    for (size_t j = 0; j < plan->actor->members * mu->n_out; j++)
        mu->dz[j] = ((plan->a[j] - mu->z[j]) / plan->var) * -delta;
    backward(plan->actor, plan->actor_theta, plan->actor_grad);
    adam_step(plan->p, plan->g, plan->m, plan->v, plan->n,
              plan->beta1, plan->one_minus_beta1, plan->beta2, plan->one_minus_beta2,
              k, plan->eps, lr, plan->tiny);
    return delta;
}
