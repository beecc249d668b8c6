/*
 * otter_runtime.h — the run-time library interface of the Otter parallel
 * MATLAB compiler (reproduction of Quinn et al., IPPS 1998).
 *
 * Generated SPMD C programs (#include "otter_runtime.h") drive all
 * distributed-matrix operations through the ML_* functions declared here.
 * The descriptor mirrors the paper's Section 4: "Every matrix and vector
 * is represented on each processor by a C structure named MATRIX which
 * contains global information about its type, rank, and shape [plus]
 * processor-dependent information, such as the total number of matrix
 * elements stored on a particular processor and the address in that
 * processor's local memory of its first matrix element."
 *
 * In this reproduction the executable back end is the SPMD Python
 * emitter (see DESIGN.md); this header exists so that the C backend's
 * output is a complete, self-consistent compilation unit, and a test
 * (tests/codegen/test_c_header.py) verifies that every ML_* identifier
 * the emitter can produce is declared here.
 */

#ifndef OTTER_RUNTIME_H
#define OTTER_RUNTIME_H

#include <stddef.h>

/* ---------------------------------------------------------------------
 * types
 * ------------------------------------------------------------------- */

typedef enum {
    ML_TYPE_INTEGER,
    ML_TYPE_REAL,
    ML_TYPE_COMPLEX,
    ML_TYPE_LITERAL
} ML_TYPE;

typedef struct {
    double re;
    double im;
} ML_COMPLEX;

typedef struct MATRIX {
    /* global information: type, rank, shape */
    ML_TYPE type;
    int rows;
    int cols;
    /* distribution (row-contiguous block for matrices, element blocks
     * for vectors; scalars are never MATRIX — they are replicated) */
    int first_row;        /* first global row/element stored locally   */
    int local_els;        /* number of elements in this rank's block   */
    /* processor-dependent information */
    double *realbase;     /* local elements, row-major                 */
    double *imagbase;     /* NULL unless type == ML_TYPE_COMPLEX       */
} MATRIX;

/* a ':' subscript in ML_index_read / ML_index_assign argument lists */
#define ML_COLON (-2147483647)

/* ---------------------------------------------------------------------
 * runtime setup / teardown
 * ------------------------------------------------------------------- */

void ML_init_runtime(int *argc, char ***argv);
void ML_finalize_runtime(void);

/* allocation: result descriptor shaped/distributed like a template */
void ML_init_like(MATRIX **out, MATRIX *like);
void ML_copy(MATRIX *src, MATRIX **out);

/* local-block geometry used by the generated elementwise for loops */
int ML_local_els(MATRIX *m);
int ML_rows(MATRIX *m);
int ML_cols(MATRIX *m);
int ML_numel(MATRIX *m);

/* ---------------------------------------------------------------------
 * ownership and element access (paper Section 3/4)
 * ------------------------------------------------------------------- */

/* 1 iff the calling rank stores the element (0-based subscripts) */
int ML_owner(MATRIX *m, int i, ...);
/* address of a local element for guarded stores */
double *ML_realaddr1(MATRIX *m, int i);
double *ML_realaddr2(MATRIX *m, int i, int j);
/* the owner broadcasts element (i[,j]) to every rank */
void ML_broadcast(double *out, MATRIX *m, int i, ...);

/* general (possibly redistributing) indexed read / write;
 * nsubs subscripts follow, each an int expression or ML_COLON */
void ML_index_read(MATRIX *m, MATRIX **out, int nsubs, ...);
void ML_index_assign(MATRIX **m, double rhs, int nsubs, ...);

/* ---------------------------------------------------------------------
 * communication-requiring operations (hoisted by pass 4)
 * ------------------------------------------------------------------- */

void ML_matrix_multiply(MATRIX *a, MATRIX *b, MATRIX **out);
/* pass 6 fusion of transpose+multiply: out = a' * b */
void ML_matrix_multiply_at(MATRIX *a, MATRIX *b, MATRIX **out);
double ML_dot(MATRIX *a, MATRIX *b);
void ML_matrix_vector_multiply(MATRIX *a, MATRIX *x, MATRIX **out);
void ML_transpose(MATRIX *a, MATRIX **out);
void ML_solve(MATRIX *a, MATRIX *b, MATRIX **out);        /* a \ b */
void ML_solve_right(MATRIX *a, MATRIX *b, MATRIX **out);  /* a / b */
void ML_matrix_power(MATRIX *a, int k, MATRIX **out);
void ML_range(double start, double step, double stop, MATRIX **out);
void ML_literal(MATRIX **out, int rows, int cols, ...);

/* for-loops over matrix columns */
void ML_loop_begin(MATRIX *m, MATRIX **col);
int ML_loop_next(MATRIX **col);

/* truthiness of a distributed value (if/while conditions) */
int ML_truthy(MATRIX *m);
/* switch-statement matching */
double ML_switch_match(double subject, double candidate);

/* ---------------------------------------------------------------------
 * builtins (ML_<name>(inputs..., &outputs...))
 * ------------------------------------------------------------------- */

/* generators */
void ML_zeros(int r, int c, MATRIX **out);
void ML_ones(int r, int c, MATRIX **out);
void ML_eye(int r, int c, MATRIX **out);
void ML_rand(int r, int c, MATRIX **out);
void ML_randn(int r, int c, MATRIX **out);
void ML_linspace(double a, double b, int n, MATRIX **out);

/* Generated loops and scalar statements spell real elementwise
 * arithmetic inline, from the C column of the compiler's op table (the
 * expressions its native kernels run); only the parts of a complex
 * value are run-time calls */
double ML_real(ML_COMPLEX z);
double ML_imag(ML_COMPLEX z);
ML_COMPLEX ML_conj(ML_COMPLEX z);
double ML_angle(ML_COMPLEX z);
ML_COMPLEX ML_complex(double re, double im);

/* reductions (vector -> scalar; matrix -> row vector; optional dim) */
void ML_sum(MATRIX *a, ...);
void ML_prod(MATRIX *a, ...);
void ML_mean(MATRIX *a, ...);
void ML_std(MATRIX *a, ...);
void ML_var(MATRIX *a, ...);
void ML_median(MATRIX *a, ...);
void ML_max(MATRIX *a, ...);
void ML_min(MATRIX *a, ...);
void ML_all(MATRIX *a, ...);
void ML_any(MATRIX *a, ...);
void ML_norm(MATRIX *a, ...);
void ML_trapz(MATRIX *a, ...);
void ML_trapz2(MATRIX *a, ...);
/* pass 6: op(op(a)) as one call — column partials, one allreduce, a
 * local fold of the row — and n adjacent scalar reductions of n vectors
 * sharing one n-element allreduce (n inputs, then n double * outputs) */
typedef enum { ML_OP_SUM, ML_OP_PROD, ML_OP_MAX, ML_OP_MIN, ML_OP_MEAN,
               ML_OP_ANY, ML_OP_ALL } ML_REDUCTION;
void ML_reduce2(ML_REDUCTION op, MATRIX *a, double *out);
void ML_reduce_batch(ML_REDUCTION op, int n, ...);
void ML_cumsum(MATRIX *a, MATRIX **out);
void ML_cumprod(MATRIX *a, MATRIX **out);
void ML_find(MATRIX *a, MATRIX **out);

/* queries */
void ML_size(MATRIX *a, ...);
void ML_length(MATRIX *a, double *out);
void ML_numel_fn(MATRIX *a, double *out);
void ML_isempty(MATRIX *a, double *out);
void ML_isreal(MATRIX *a, double *out);
void ML_isscalar(MATRIX *a, double *out);

/* structural */
void ML_reshape(MATRIX *a, int r, int c, MATRIX **out);
void ML_repmat(MATRIX *a, int m, int n, MATRIX **out);
void ML_circshift(MATRIX *a, ...);  /* int k | MATRIX *[rows cols], then MATRIX **out */
/* pass 6: a constant [rows cols] shift passed by value — no MATRIX to gather */
void ML_circshift_const(MATRIX *a, const int *shift, MATRIX **out);
void ML_fliplr(MATRIX *a, MATRIX **out);
void ML_flipud(MATRIX *a, MATRIX **out);
void ML_tril(MATRIX *a, ...);
void ML_triu(MATRIX *a, ...);
void ML_diag(MATRIX *a, MATRIX **out);
void ML_sort(MATRIX *a, MATRIX **out);
void ML_double(MATRIX *a, MATRIX **out);

/* I/O — one rank coordinates all I/O operations */
void ML_print_matrix(const char *name, MATRIX *m);
void ML_print_scalar(const char *name, double v);
void ML_disp(MATRIX *m);
void ML_fprintf(const char *fmt, ...);
void ML_error(const char *fmt, ...);
void ML_load(const char *file, MATRIX **out);
void ML_save(const char *file, ...);
void ML_tic(void);
void ML_toc(double *out);

#endif /* OTTER_RUNTIME_H */
