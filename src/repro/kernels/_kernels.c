/* Fused hash->scatter kernels for the hot sketch update paths.
 *
 * Contract: every kernel is bit-identical to the NumPy path it
 * replaces.  The equivalences this file relies on:
 *
 *  - k-wise Horner hashing is exact integer arithmetic: with
 *    prime < 2^32, (acc * x + c) stays below 2^64, so uint64
 *    arithmetic mod p matches NumPy's vectorised uint64 path
 *    literally.  (uint64_t)item wraps negatives two's-complement,
 *    exactly like ndarray.astype(np.uint64).  The modulus runs
 *    through exact Barrett reduction (bar_red below) — same value
 *    as %, a fraction of the cost.
 *  - int64 scatter-adds: addition is associative and commutative
 *    mod 2^64 (-fwrapv pins wrapping), so sequential C adds equal
 *    np.add.at / np.dot for any accumulation order.
 *  - the Cauchy fold performs the same two double-precision
 *    operations in the same order as the NumPy multiply+cumsum
 *    (compiled with -ffp-contract=off so no FMA contraction).
 *
 * C99 plus the CPython headers: the kernels are plain C functions, and
 * the binding at the end of this file makes the source one extension
 * module (`_kernels`) whose functions take NumPy arrays through the
 * buffer protocol.  Built by repro/kernels/_build.py.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>  /* first: it may set feature macros for libc */
#include <stdint.h>
#include <stddef.h>

int64_t repro_abi_version(void) { return 2; }

/* Barrett reduction: x mod m via two multiplies instead of a hardware
 * divide (the big win over NumPy's vectorised %, which must issue a
 * 64-bit division per element).  With mu = floor(2^64 / m) the
 * quotient estimate q = floor(x*mu / 2^64) satisfies
 * floor(x/m) - 2 <= q <= floor(x/m), so at most two correcting
 * subtractions land on exactly x mod m — bit-identical to %, for any
 * 64-bit x and any m >= 2. */
typedef struct { uint64_t m, mu; } bar_t;

static inline bar_t bar_make(uint64_t m) {
    bar_t b;
    b.m = m;
    b.mu = m > 1 ? (uint64_t)((((__uint128_t)1) << 64) / m) : 0;
    return b;
}

static inline uint64_t bar_red(uint64_t x, bar_t b) {
    uint64_t q, r;
    if (b.m <= 1)
        return 0;
    q = (uint64_t)(((__uint128_t)x * b.mu) >> 64);
    r = x - q * b.m;
    while (r >= b.m)
        r -= b.m;
    return r;
}

/* Horner over a pre-reduced point x < prime; every intermediate
 * (acc * x + c) stays below 2^64 because prime < 2^32. */
static inline uint64_t horner_red(uint64_t x, const uint64_t *coeffs,
                                  int64_t k, bar_t bp) {
    uint64_t acc = 0;
    for (int64_t j = 0; j < k; j++)
        acc = bar_red(acc * x + coeffs[j], bp);
    return acc;
}

/* KWiseHash.hash_array: out[t] = horner(items[t]) % range_size.
 * (uint64_t)item wraps negatives two's-complement, exactly like
 * ndarray.astype(np.uint64). */
void repro_kwise_hash(const int64_t *items, int64_t m,
                      const uint64_t *coeffs, int64_t k,
                      uint64_t prime, uint64_t range_size,
                      int64_t *out) {
    bar_t bp = bar_make(prime), br = bar_make(range_size);
    for (int64_t t = 0; t < m; t++) {
        uint64_t x = bar_red((uint64_t)items[t], bp);
        out[t] = (int64_t)bar_red(horner_red(x, coeffs, k, bp), br);
    }
}

/* One pass over the chunk, item-major: bucket hash + sign hash +
 * scatter for every row of the table per item, with the item's field
 * reduction hoisted out of the row loop (and shared between the two
 * hash families when they live in the same field).  Scatter order
 * differs from the NumPy per-row order only across *distinct* cells;
 * within a cell the adds stay in item order, and int64 addition is
 * associative/commutative mod 2^64 (-fwrapv), so the table is
 * bit-identical either way.
 *
 * bucket_coeffs == NULL means every update lands in column 0 (the AMS
 * layout: table is the z vector viewed as (depth, 1)).  sign_coeffs ==
 * NULL means no sign flip (CountMin).  The sign convention matches
 * SignHash: range-2 hash value 0 -> -1, value 1 -> +1.
 *
 * Serves both the raw-chunk path (items/deltas straight from the
 * stream) and the plan-coalesced path (unique items + summed deltas,
 * zero sums included: adding zero is the identity, so the table stays
 * bit-identical to the nz-masked NumPy scatter).
 */
void repro_fused_table_update(
    int64_t *table, int64_t depth, int64_t width,
    const uint64_t *bucket_coeffs, int64_t kb, uint64_t bucket_prime,
    const uint64_t *sign_coeffs, int64_t ks, uint64_t sign_prime,
    const int64_t *items, const int64_t *deltas, int64_t m) {
    bar_t bb = bar_make(bucket_prime);
    bar_t bs = bar_make(sign_prime);
    bar_t bw = bar_make((uint64_t)width);
    int shared_field = (bucket_coeffs && sign_coeffs
                        && bucket_prime == sign_prime);
    for (int64_t t = 0; t < m; t++) {
        uint64_t xi = (uint64_t)items[t];
        uint64_t xb = bucket_coeffs ? bar_red(xi, bb) : 0u;
        uint64_t xs = 0u;
        int64_t d0 = deltas[t];
        if (sign_coeffs)
            xs = shared_field ? xb : bar_red(xi, bs);
        for (int64_t r = 0; r < depth; r++) {
            uint64_t b = bucket_coeffs
                ? bar_red(horner_red(xb, bucket_coeffs + r * kb, kb, bb), bw)
                : 0u;
            int64_t d = d0;
            if (sign_coeffs
                && (horner_red(xs, sign_coeffs + r * ks, ks, bs) & 1u) == 0u)
                d = -d;
            table[r * width + b] += d;
        }
    }
}

/* Sequential left-fold of the Cauchy accumulators:
 *   acc[r] += sum_t entries[r][idx(t)] * (double)deltas[t]
 * evaluated strictly left to right, one rounded multiply and one
 * rounded add per term -- the exact operation order of the NumPy
 * np.multiply(out=buf[1:]) + np.cumsum fold.  `entries` holds the
 * PRECOMPUTED NumPy row entries (np.tan stays in NumPy: libm tan
 * differs from np.tan by 1 ulp on part of the angle grid).  `inverse`
 * is the plan's unique->chunk gather (NULL for the identity).
 */
void repro_cauchy_fold(double *acc, int64_t n_rows,
                       const double *const *entries,
                       const int64_t *inverse,
                       const int64_t *deltas, int64_t m) {
    for (int64_t r = 0; r < n_rows; r++) {
        const double *e = entries[r];
        double a = acc[r];
        if (inverse) {
            for (int64_t t = 0; t < m; t++)
                a += e[inverse[t]] * (double)deltas[t];
        } else {
            for (int64_t t = 0; t < m; t++)
                a += e[t] * (double)deltas[t];
        }
        acc[r] = a;
    }
}

/* CSSS accepted-segment scatter: drive the kept counts into the
 * pos/neg rows and return the running post-add maximum over every
 * touched cell (-1 when nothing was kept).  Counters only grow inside
 * a segment, so the running maximum equals NumPy's maximum over the
 * final values of the touched cells, and one combined pos/neg max
 * equals the two separate NumPy maxima.
 */
int64_t repro_csss_scatter(int64_t *pos, int64_t *neg,
                           const int64_t *buckets,
                           const int64_t *eff_signs,
                           const int64_t *kept, int64_t m) {
    int64_t mx = -1;
    for (int64_t t = 0; t < m; t++) {
        if (kept[t] <= 0)
            continue;
        int64_t *row = eff_signs[t] > 0 ? pos : neg;
        int64_t v = row[buckets[t]] + kept[t];
        row[buckets[t]] = v;
        if (v > mx)
            mx = v;
    }
    return mx;
}

/* ------------------------------------------------------------------
 * CPython binding: one METH_FASTCALL wrapper per kernel.
 *
 * Each wrapper takes the arrays themselves through the buffer protocol
 * and checks everything the kernel dereferences: C-contiguous layout,
 * the dimension count, the element format (int64, uint64 or float64 by
 * format code, not merely an 8-byte item size), writable outputs and
 * matching lengths.  A call the kernel cannot take answers None, with
 * nothing written and no exception set, so the Python try_* helpers
 * fall back to NumPy.  Index *values* (hash buckets below the row
 * width, the plan's inverse gather below the unique count) remain the
 * caller's contract.  Only a wrong argument count raises.  The GIL is
 * released around each kernel body: no Python object is touched there,
 * and the held buffer views keep every array alive and unresized.
 */

#define I64_CODES "lq"
#define U64_CODES "LQ"
#define F64_CODES "d"

/* Is the view's format one bare 8-byte element code of `codes`, as
 * NumPy exports a native-order array?  A byte-order prefix or any
 * other format declines. */
static int format_in(const Py_buffer *v, const char *codes) {
    const char *f = v->format;
    if (f == NULL || v->itemsize != 8 || f[0] == '\0' || f[1] != '\0')
        return 0;
    for (; *codes; codes++)
        if (*codes == f[0])
            return 1;
    return 0;
}

/* The views one call holds, released together on every exit path. */
typedef struct {
    Py_buffer v[5];
    int n;
} views_t;

static void release_views(views_t *vs) {
    while (vs->n > 0)
        PyBuffer_Release(&vs->v[--vs->n]);
}

/* Fill v with a C-contiguous `ndim`-dimensional view of obj in one of
 * `codes`, writable when asked: 0 on success, else -1 with nothing held
 * and no exception set. */
static int get_view(PyObject *obj, Py_buffer *v, int ndim,
                    const char *codes, int writable) {
    int flags = PyBUF_ND | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, v, flags) != 0) {
        PyErr_Clear();
        return -1;
    }
    if (v->ndim != ndim || !format_in(v, codes)
        || !PyBuffer_IsContiguous(v, 'C')) {
        PyBuffer_Release(v);
        return -1;
    }
    return 0;
}

/* get_view into the next slot of vs; the view, or NULL. */
static Py_buffer *take_view(views_t *vs, PyObject *obj, int ndim,
                            const char *codes, int writable) {
    Py_buffer *v = &vs->v[vs->n];
    if (get_view(obj, v, ndim, codes, writable))
        return NULL;
    vs->n++;
    return v;
}

static PyObject *decline(views_t *vs) {
    release_views(vs);
    Py_RETURN_NONE;
}

/* A non-negative Python int that fits uint64; -1 (no exception) else. */
static int as_u64(PyObject *obj, uint64_t *out) {
    unsigned long long v = PyLong_AsUnsignedLongLong(obj);
    if (v == (unsigned long long)-1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    *out = (uint64_t)v;
    return 0;
}

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t want) {
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

static PyObject *py_abi_version(PyObject *self, PyObject *unused) {
    return PyLong_FromLongLong(repro_abi_version());
}

/* kwise_hash(items, coeffs, prime, range_size, out) -> out | None */
static PyObject *py_kwise_hash(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs) {
    views_t vs;
    Py_buffer *items, *coeffs, *out;
    uint64_t prime, range_size;
    vs.n = 0;
    if (arity("kwise_hash", nargs, 5))
        return NULL;
    if (!(items = take_view(&vs, args[0], 1, I64_CODES, 0))
        || !(coeffs = take_view(&vs, args[1], 1, U64_CODES, 0))
        || !(out = take_view(&vs, args[4], 1, I64_CODES, 1))
        || out->shape[0] != items->shape[0]
        || as_u64(args[2], &prime) || as_u64(args[3], &range_size))
        return decline(&vs);
    Py_BEGIN_ALLOW_THREADS
    repro_kwise_hash(items->buf, items->shape[0], coeffs->buf,
                     coeffs->shape[0], prime, range_size, out->buf);
    Py_END_ALLOW_THREADS
    release_views(&vs);
    Py_INCREF(args[4]);
    return args[4];
}

/* fused_table_update(table, bucket_coeffs, bucket_prime, bucket_range,
 *                    sign_coeffs, sign_prime, sign_range,
 *                    items, deltas) -> True | None
 * A coefficient matrix holds one row per table row; None drops that
 * hash (no bucket hash: a one-column table; no sign hash: no flip).
 * bucket_range must be the table width (at least 1, so every bucket
 * lands in the row) and sign_range 2. */
static PyObject *py_fused_table_update(PyObject *self,
                                       PyObject *const *args,
                                       Py_ssize_t nargs) {
    views_t vs;
    Py_buffer *table, *bucket = NULL, *sign = NULL, *items, *deltas;
    uint64_t bprime = 1, brange = 1, sprime = 1, srange = 2;
    int64_t depth, width;
    vs.n = 0;
    if (arity("fused_table_update", nargs, 9))
        return NULL;
    if (!(table = take_view(&vs, args[0], 2, I64_CODES, 1)))
        return decline(&vs);
    depth = table->shape[0];
    width = table->shape[1];
    if (args[1] != Py_None
        && (!(bucket = take_view(&vs, args[1], 2, U64_CODES, 0))
            || bucket->shape[0] != depth
            || as_u64(args[2], &bprime) || as_u64(args[3], &brange)))
        return decline(&vs);
    if (args[4] != Py_None
        && (!(sign = take_view(&vs, args[4], 2, U64_CODES, 0))
            || sign->shape[0] != depth
            || as_u64(args[5], &sprime) || as_u64(args[6], &srange)))
        return decline(&vs);
    if (width < 1 || (uint64_t)width != brange || srange != 2
        || !(items = take_view(&vs, args[7], 1, I64_CODES, 0))
        || !(deltas = take_view(&vs, args[8], 1, I64_CODES, 0))
        || items->shape[0] != deltas->shape[0])
        return decline(&vs);
    Py_BEGIN_ALLOW_THREADS
    repro_fused_table_update(
        table->buf, depth, width,
        bucket ? bucket->buf : NULL, bucket ? bucket->shape[1] : 0, bprime,
        sign ? sign->buf : NULL, sign ? sign->shape[1] : 0, sprime,
        items->buf, deltas->buf, items->shape[0]);
    Py_END_ALLOW_THREADS
    release_views(&vs);
    Py_RETURN_TRUE;
}

/* cauchy_fold(acc, entries, inverse, deltas) -> True | None
 * entries: a sequence of one float64 vector per accumulator, each as
 * long as deltas, or indexed through inverse (None: identity). */
static PyObject *py_cauchy_fold(PyObject *self, PyObject *const *args,
                                Py_ssize_t nargs) {
    views_t vs;
    Py_buffer *acc, *inverse = NULL, *deltas, *rows = NULL;
    const double **ptrs = NULL;
    PyObject *seq = NULL, *result = Py_None;
    Py_ssize_t n_rows, held = 0;
    vs.n = 0;
    if (arity("cauchy_fold", nargs, 4))
        return NULL;
    if (!(acc = take_view(&vs, args[0], 1, F64_CODES, 1))
        || !(deltas = take_view(&vs, args[3], 1, I64_CODES, 0))
        || (args[2] != Py_None
            && (!(inverse = take_view(&vs, args[2], 1, I64_CODES, 0))
                || inverse->shape[0] != deltas->shape[0])))
        return decline(&vs);
    if (!(seq = PySequence_Fast(args[1], ""))) {
        PyErr_Clear();
        return decline(&vs);
    }
    n_rows = PySequence_Fast_GET_SIZE(seq);
    if (n_rows != acc->shape[0])
        goto done;
    rows = PyMem_Calloc((size_t)n_rows + 1, sizeof(Py_buffer));
    ptrs = PyMem_Calloc((size_t)n_rows + 1, sizeof(double *));
    if (rows == NULL || ptrs == NULL) {
        result = PyErr_NoMemory();
        goto done;
    }
    for (; held < n_rows; held++) {
        Py_buffer *e = &rows[held];
        if (get_view(PySequence_Fast_GET_ITEM(seq, held), e, 1,
                     F64_CODES, 0))
            goto done;
        if (inverse == NULL && e->shape[0] != deltas->shape[0]) {
            PyBuffer_Release(e);
            goto done;
        }
        ptrs[held] = e->buf;
    }
    Py_BEGIN_ALLOW_THREADS
    repro_cauchy_fold(acc->buf, n_rows, ptrs,
                      inverse ? inverse->buf : NULL, deltas->buf,
                      deltas->shape[0]);
    Py_END_ALLOW_THREADS
    result = Py_True;
done:
    while (held > 0)
        PyBuffer_Release(&rows[--held]);
    PyMem_Free(rows);
    PyMem_Free(ptrs);
    Py_XDECREF(seq);
    release_views(&vs);
    Py_XINCREF(result);
    return result;
}

/* csss_scatter(pos, neg, buckets, eff_signs, kept) -> int | None */
static PyObject *py_csss_scatter(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs) {
    views_t vs;
    Py_buffer *pos, *neg, *buckets, *signs, *kept;
    int64_t mx;
    vs.n = 0;
    if (arity("csss_scatter", nargs, 5))
        return NULL;
    if (!(pos = take_view(&vs, args[0], 1, I64_CODES, 1))
        || !(neg = take_view(&vs, args[1], 1, I64_CODES, 1))
        || !(buckets = take_view(&vs, args[2], 1, I64_CODES, 0))
        || !(signs = take_view(&vs, args[3], 1, I64_CODES, 0))
        || !(kept = take_view(&vs, args[4], 1, I64_CODES, 0))
        || buckets->shape[0] != kept->shape[0]
        || signs->shape[0] != kept->shape[0])
        return decline(&vs);
    Py_BEGIN_ALLOW_THREADS
    mx = repro_csss_scatter(pos->buf, neg->buf, buckets->buf, signs->buf,
                            kept->buf, kept->shape[0]);
    Py_END_ALLOW_THREADS
    release_views(&vs);
    return PyLong_FromLongLong(mx);
}

#define FASTCALL(fn) ((PyCFunction)(void (*)(void))(fn))

static PyMethodDef kernel_methods[] = {
    {"abi_version", py_abi_version, METH_NOARGS,
     "abi_version() -> int: the interface version of this build."},
    {"kwise_hash", FASTCALL(py_kwise_hash), METH_FASTCALL,
     "kwise_hash(items, coeffs, prime, range_size, out) -> out | None"},
    {"fused_table_update", FASTCALL(py_fused_table_update), METH_FASTCALL,
     "fused_table_update(table, bucket_coeffs, bucket_prime, "
     "bucket_range, sign_coeffs, sign_prime, sign_range, items, deltas)"
     " -> True | None"},
    {"cauchy_fold", FASTCALL(py_cauchy_fold), METH_FASTCALL,
     "cauchy_fold(acc, entries, inverse, deltas) -> True | None"},
    {"csss_scatter", FASTCALL(py_csss_scatter), METH_FASTCALL,
     "csss_scatter(pos, neg, buckets, eff_signs, kept) -> int | None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_kernels",
    "Fused hash->scatter kernels (see repro.kernels); each kernel "
    "answers None when it cannot take the call.",
    0,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__kernels(void) {
    return PyModuleDef_Init(&kernel_module);
}
