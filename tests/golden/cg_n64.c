/* Generated by the Otter reproduction compiler. Do not edit. */
#include <float.h>
#include <math.h>
#include <mpi.h>
#include "otter_runtime.h"

int main(int argc, char *argv[])
{
    ML_init_runtime(&argc, &argv);
    MATRIX *A = NULL;
    MATRIX *Ap = NULL;
    double ML_tmp12 = 0.0;
    MATRIX *ML_tmp15 = NULL;
    MATRIX *ML_tmp2 = NULL;
    MATRIX *ML_tmp3 = NULL;
    MATRIX *ML_tmp7 = NULL;
    double alpha = 0.0;
    MATRIX *ans = NULL;
    MATRIX *b = NULL;
    double err = 0.0;
    int i = 0;
    int iters = 0;
    int n = 0;
    MATRIX *p = NULL;
    MATRIX *r = NULL;
    double resid = 0.0;
    double rsnew = 0.0;
    double rsold = 0.0;
    MATRIX *x = NULL;
    MATRIX *xtrue = NULL;
    int ML_i0;
    int ML_i1;
    int ML_i2;
    int ML_i3;
    int ML_i4;
    int ML_i5;

    n = 64;
    iters = 5;
    ML_rand("seed", 17, &ans);
    ML_rand(n, n, &ML_tmp2);
    ML_eye(n, &ML_tmp3);
    ML_init_like(&A, ML_tmp2);
    for (ML_i0 = ML_local_els(A)-1; ML_i0 >= 0; ML_i0--) {
        A->realbase[ML_i0] = (ML_tmp2->realbase[ML_i0] + ((double)n * ML_tmp3->realbase[ML_i0]));
    }
    ML_ones(n, 1, &xtrue);
    ML_matrix_multiply(A, xtrue, &b);
    ML_zeros(n, 1, &x);
    ML_matrix_multiply(A, x, &ML_tmp7);
    ML_init_like(&r, b);
    for (ML_i1 = ML_local_els(r)-1; ML_i1 >= 0; ML_i1--) {
        r->realbase[ML_i1] = (b->realbase[ML_i1] - ML_tmp7->realbase[ML_i1]);
    }
    ML_copy(r, &p);
    rsold = ML_dot(r, r);
    for (i = 1; i <= iters; i += 1) {
        ML_matrix_multiply(A, p, &Ap);
        ML_tmp12 = ML_dot(p, Ap);
        alpha = (rsold / ML_tmp12);
        ML_init_like(&x, x);
        ML_init_like(&r, r);
        for (ML_i2 = ML_local_els(x)-1; ML_i2 >= 0; ML_i2--) {
            x->realbase[ML_i2] = (x->realbase[ML_i2] + (alpha * p->realbase[ML_i2]));
            r->realbase[ML_i2] = (r->realbase[ML_i2] - (alpha * Ap->realbase[ML_i2]));
        }
        rsnew = ML_dot(r, r);
        ML_init_like(&p, r);
        for (ML_i4 = ML_local_els(p)-1; ML_i4 >= 0; ML_i4--) {
            p->realbase[ML_i4] = (r->realbase[ML_i4] + ((rsnew / rsold) * p->realbase[ML_i4]));
        }
        rsold = rsnew;
    }
    resid = sqrt(rsold);
    ML_init_like(&ML_tmp15, x);
    for (ML_i5 = ML_local_els(ML_tmp15)-1; ML_i5 >= 0; ML_i5--) {
        ML_tmp15->realbase[ML_i5] = fabs((x->realbase[ML_i5] - xtrue->realbase[ML_i5]));
    }
    ML_max(ML_tmp15, &err);
    ML_fprintf("cg: n=%d resid=%.3e err=%.3e\n", n, resid, err);

    ML_finalize_runtime();
    return 0;
}
