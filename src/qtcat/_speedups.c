/* Compiled enumeration kernels; same contract as qtcat._kernels_py.
 *
 * rational_census(n, s) walks the paths of a slope and takes each node's
 * degree step in O(1) from gamma tables its parent built (one row per later
 * depth, indexed by the sum of the coordinates in between), dividing
 * nothing; the three (ell, m) kernels, ellm_census_levels,
 * ellm_paths_bounded and ellm_maximal_bounded, all take (ell, m, dstar) and
 * share one degree-pruned walk, which slides the degree from one try to the
 * next in O(1) over a histogram of the earlier positions (of at most
 * HIST_CAP entries); lowest_tuple(a, m) iterates the cycle map right on one
 * position tuple; catalan_census_levels(ell, dstar) is ellm_census_levels
 * at m = 1 with the path counts from the Garsia-Haglund recursion, cut at
 * dstar, and a walk of the maximal paths only.  Each walk is an iterative
 * depth-first loop over int64 arrays sized to the instance.  The census
 * kernels count into one store, a row of areas per degree (one level of
 * areas for a slope, one per level for an (ell, m) walk), grown to the
 * largest degree met, and make Python objects only when they return, in one
 * fold of each level's rows.  The listing kernels append each path they
 * keep to a Python list.
 *
 * Inputs are limited to slopes n/s with n * s < LIMIT ((ell, m)-paths are
 * the paths of slope (m(ell+1)+1)/(ell+1)).  Then every intermediate value,
 * including degr <= ell * n, stays below 2**62, and a store index below the
 * store's size, which store_grow holds within size_t.  A walk
 * is s - 1 (or ell) levels deep, and s (or ell + 1) is at most MAX_DEPTH.
 * An orbit takes the same (ell, m) limits and entries |a_i| < LIMIT.
 * qtcat.kernels checks the same limits before it calls in here.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define LIMIT ((int64_t)1 << 31)
#define MAX_DEPTH 512

/* ------------------------------------------------------------------------
 * the count store of every census: counts[2 key] and counts[2 key + 1] are
 * the numbers of paths and of maximal paths under key
 *   degr * stride + at(j) + area,  at(j) = m j(j+1)(j+2)/6 + j,
 * for level j = 0..levels-1, whose areas 0..m(j+1)(j+2)/2 are the cells
 * at(j)..at(j+1)-1 of each degree's row; stride = at(levels).  The rows
 * grow by doubling to the largest degree met, and not past cap rows unless
 * a degree needs it. */

typedef struct {
    int64_t *counts;
    int64_t m, stride, rows, cap;
} Store;

static int64_t
level_at(int64_t m, int64_t j)
{
    return m * j * (j + 1) * (j + 2) / 6 + j;
}

static Store
store_new(int64_t levels, int64_t m, int64_t cap)
{
    return (Store){NULL, m, level_at(m, levels), 0, cap};
}

/* make room for degree d: at least double the rows, zero the new ones,
   raise MemoryError if refused or past size_t */
static int
store_grow(Store *st, int64_t d)
{
    int64_t want = 2 * st->rows < st->cap ? 2 * st->rows : st->cap;
    want = want > d ? want : d + 1;
    int64_t *grown = (uint64_t)want > SIZE_MAX / (2 * sizeof(int64_t)) / (uint64_t)st->stride
        ? NULL : PyMem_Realloc(st->counts, (size_t)(2 * want * st->stride) * sizeof(int64_t));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(grown + 2 * st->rows * st->stride, 0,
           (size_t)(2 * (want - st->rows) * st->stride) * sizeof(int64_t));
    st->counts = grown;
    st->rows = want;
    return 0;
}

/* dict[(d, a0 + x)] = cells[x * step] for each nonzero cell x < len */
static int
fold_row(PyObject *dict, int64_t d, int64_t a0, const int64_t *cells, int64_t len,
         int64_t step)
{
    for (int64_t x = 0; x < len; x++) {
        if (cells[x * step] == 0)
            continue;
        PyObject *k = Py_BuildValue("(LL)", (long long)d, (long long)(a0 + x));
        PyObject *v = PyLong_FromLongLong(cells[x * step]);
        int rc = (k == NULL || v == NULL) ? -1 : PyDict_SetItem(dict, k, v);
        Py_XDECREF(k);
        Py_XDECREF(v);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* {(degr, area): count} of level j, all paths (half 0) or maximal (half 1) */
static PyObject *
store_dict(const Store *st, int64_t j, int half)
{
    int64_t at = level_at(st->m, j), width = level_at(st->m, j + 1) - at;
    PyObject *dict = PyDict_New();
    for (int64_t d = 0; dict != NULL && d < st->rows; d++)
        if (fold_row(dict, d, 0, st->counts + 2 * (d * st->stride + at) + half, width, 2) < 0)
            Py_CLEAR(dict);
    return dict;
}

/* (all_counts, max_counts) of level j */
static PyObject *
store_level(const Store *st, int64_t j)
{
    PyObject *all = store_dict(st, j, 0);
    PyObject *max = all == NULL ? NULL : store_dict(st, j, 1);
    if (max == NULL) {
        Py_XDECREF(all);
        return NULL;
    }
    return Py_BuildValue("(NN)", all, max);
}

/* a long walk still answers ^C */
static int
interrupted(uint64_t *ticks)
{
    return (++*ticks & 0xFFFFF) == 0 && PyErr_CheckSignals() < 0;
}

static int64_t
gcd64(int64_t a, int64_t b)
{
    while (b != 0) {
        int64_t r = a % b;
        a = b;
        b = r;
    }
    return a;
}

/* ------------------------------------------------------------------------
 * rational_census(n, s)
 *
 * The walk fixes x_0, x_1, ..., x_{ell-1} depth by depth (x_ell is forced),
 * and depth i adds to the degree the terms gamma_{k i}, k = 1..i:
 *   gamma_{k i} = min(floor(|nu| / s), nu > 0 ? x_k : x_{k-1}),
 * with the scaled beta numerator nu = sX - nj, X = x_k + ... + x_i and
 * j = i - k + 1 in 1..s-1.  Coprimality makes nu nonzero, so with
 * q = fl[j] = floor(nj/s): nu > 0 exactly when X > q, and then
 * floor(nu/s) = X - q - 1, else floor(-nu/s) = q - X.  No division.
 *
 * For k <= j < r, gamma_{k r} depends on x_{j+1}, ..., x_r only through
 * their sum u, and its caps x_{k-1}, x_k are fixed once x_0..x_j are.  So
 * the node at depth j holds the gamma table
 *   T_j[r][u] = sum over k = 1..j of gamma_{k r}, x_{j+1} + ... + x_r = u,
 * for r = j+1..ell-1 and 0 <= u <= fl[r+1] - pref[j+1].  T_0 is 0, and
 * each row comes from the parent's:
 *   T_j[r][u] = T_{j-1}[r][u + x_j] + gamma_{j r} at X = u + x_j
 * (caps x_{j-1}, x_j; q = fl[r-j+1]).  Depth i then takes its degree step
 * T_{i-1}[i][x_i] + gamma_{i i} in O(1), and a row is built once per
 * internal node and read by all its descendants.  The pure-Python walk
 * keeps the O(i) sum as the oracle.
 *
 * A leaf counts in the store as level 0 of width M + 1 (m = M): degr and
 * area are at most M, and its rows grow only to the largest degr met, so a
 * thin slope such as 2893/2 (one degr, 0) keeps one row. */

static PyObject *
rational_census(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "s", NULL};
    long long n_, s_;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LL:rational_census", kwlist, &n_, &s_))
        return NULL;
    int64_t n = n_, s = s_;
    if (n < 1 || s < 1 || n >= LIMIT || s > MAX_DEPTH || n * s >= LIMIT
            || gcd64(n, s) != 1) {
        PyErr_Format(PyExc_ValueError,
                     "slope %lld/%lld: need coprime n, s >= 1 with n*s < 2**31 "
                     "and s <= %d", n_, s_, MAX_DEPTH);
        return NULL;
    }
    int64_t ell = s - 1, M = 0;
    for (int64_t i = 0; i < ell; i++)
        M += n * (i + 1) / s;

    Store st = store_new(1, M, M + 1);
    PyObject *out = NULL;
    int64_t *buf = NULL;
    if (ell == 0) { /* the single path (n): every statistic is zero */
        if (store_grow(&st, 0) == 0) {
            st.counts[0] = st.counts[1] = 1;
            out = store_level(&st, 0);
        }
        goto done;
    }

    /* row r of T_j starts at T + row[r] + j (fl[r+1] + 1), for j = 0..r-1
       and r = 1..ell-1; the rows of T_0 stay 0.  As r < 512 and
       fl < 2**31, every count of cells stays below 2**50 in uint64 */
    int64_t row[MAX_DEPTH];
    uint64_t cells = 0;
    for (int64_t r = 1; r < ell; r++) {
        row[r] = (int64_t)cells;
        cells += (uint64_t)r * (uint64_t)(n * (r + 1) / s + 1);
    }
    uint64_t size = 7 * (uint64_t)(ell + 1) + cells;
    /* per depth i: xs = x_i, pref = x_0 + ... + x_{i-1}, room = largest x_i,
       deg = degr of the prefix, w = sum (ell - k) x_k over k < i,
       slk = min over k < i of n(k+1) - s*pref[k+1]; fl[j] = floor(nj/s)
       for j = 0..ell, where nj < ns < 2**31; then T */
    buf = size > SIZE_MAX / sizeof(int64_t)
        ? NULL : PyMem_Calloc((size_t)size, sizeof(int64_t));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *xs = buf, *pref = xs + ell + 1, *room = pref + ell + 1;
    int64_t *deg = room + ell + 1, *w = deg + ell + 1, *slk = w + ell + 1;
    int64_t *fl = slk + ell + 1, *T = fl + ell + 1;
    for (int64_t j = 0; j <= ell; j++)
        fl[j] = n * j / s;
    uint64_t ticks = 0;
    int64_t i = 0;
    xs[0] = -1;
    room[0] = fl[1];
    slk[0] = n * s;
    while (i >= 0) {
        if (interrupted(&ticks))
            goto done;
        int64_t x = ++xs[i];
        if (x > room[i]) {
            i--;
            continue;
        }
        int64_t total = pref[i] + x, d = deg[i];
        if (i > 0) {
            /* T_{i-1}[i][x] + gamma_{i i}, where X = x and q = fl[1] */
            int64_t up = x > fl[1], g = x - fl[1] - up, cap = up ? x : xs[i - 1];
            g = g < 0 ? -g : g;
            d += T[row[i] + (i - 1) * (fl[i + 1] + 1) + x] + (g < cap ? g : cap);
        }
        int64_t slack = n * (i + 1) - s * total;
        int64_t minslack = slack < slk[i] ? slack : slk[i];
        int64_t wi = w[i] + (ell - i) * x;
        if (i == ell - 1) {
            if (d >= st.rows && store_grow(&st, d) < 0)
                goto done;
            int64_t *c = st.counts + 2 * (d * (M + 1) + (M - wi));
            c[0]++;
            c[1] += minslack == 1;
            continue;
        }
        if (i > 0) { /* T_i from T_{i-1}, the row before each of its rows */
            for (int64_t r = i + 1; r < ell; r++) {
                int64_t len = fl[r + 1] + 1, q = fl[r - i + 1], c0 = xs[i - 1];
                int64_t *t = T + row[r] + i * len;
                for (int64_t u = 0; u < len - total; u++) {
                    int64_t X = u + x, up = X > q, g = X - q - up, cap = up ? x : c0;
                    g = g < 0 ? -g : g;
                    t[u] = t[u + x - len] + (g < cap ? g : cap);
                }
            }
        }
        i++;
        xs[i] = -1;
        pref[i] = total;
        room[i] = fl[i + 1] - total;
        deg[i] = d;
        w[i] = wi;
        slk[i] = minslack;
    }
    out = store_level(&st, 0);
done:
    PyMem_Free(buf);
    PyMem_Free(st.counts);
    return out;
}

/* ------------------------------------------------------------------------
 * the degree-bounded (ell, m) walk, shared by ellm_census_levels,
 * ellm_paths_bounded and ellm_maximal_bounded */

/* the (ell, m) limits, shared with lowest_tuple */
static int
ellm_fits(long long e, long long mm)
{
    return e >= 1 && mm >= 1 && e < MAX_DEPTH && mm < LIMIT
        && mm * (e + 1) + 1 < LIMIT && (mm * (e + 1) + 1) * (e + 1) < LIMIT;
}

static int
ellm_args(PyObject *args, PyObject *kwds, const char *fmt,
          int64_t *ell, int64_t *m, int64_t *dstar)
{
    static char *kwlist[] = {"ell", "m", "dstar", NULL};
    long long e, mm, ds;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, fmt, kwlist, &e, &mm, &ds))
        return -1;
    if (!ellm_fits(e, mm) || ds < 0) {
        PyErr_Format(PyExc_ValueError,
                     "(ell, m, dstar) = (%lld, %lld, %lld): need ell, m >= 1, dstar >= 0, "
                     "ell < %d and (m(ell+1)+1)(ell+1) < 2**31", e, mm, ds, MAX_DEPTH);
        return -1;
    }
    *ell = e;
    *m = mm;
    *dstar = ds;
    return 0;
}

static int64_t
alpha(int64_t a, int64_t b, int64_t m)
{
    int64_t d = a <= b ? b - a : a - b - 1;
    return d < m ? d : m;
}

/* the largest position histogram a walk allocates */
#define HIST_CAP ((int64_t)1 << 16)

/* Walks the (ell, m)-paths with degr <= dstar in the order of _kernels_py:
   a_1 runs down from a1 (m for every path, 0 for the maximal ones only),
   each later a_i from a_{i-1} + m, and a prefix whose running degree
   exceeds dstar is cut (sound because no step lowers the degree).  The
   nodes the walk enters at level i are then exactly the (i, m)-paths with
   degr <= dstar.  With a store, the walk counts each of them at level
   i - 1 of it, as maximal when a_1 = 0; with a list out, it appends
   (degr, positions) of each path at level ell to out.

   The degree of a try a_i = v is
     d(v) = degr(a_1..a_{i-1}) - max(v - m, 0) + sum over k < i of alpha(a_k, v).
   As v falls by one, only the a_k within m of v move it:
     d(v) = d(v + 1) + up(v + 1) - lo(v + 1) + [v + 1 > m],
   with up(v) = #{k < i : a_k in [v + 1, v + m]} and
   lo(v) = #{k < i : a_k in [v - m, v - 1]}.  A histogram h of a_1..a_{i-1}
   slides both counts with four reads, so each try after a level's first
   costs O(1).  The first try, v = a_{i-1} + m, starts from v = a_{i-1},
   whose d and counts level i - 1 already holds (alpha(a_{i-1}, a_{i-1}) is
   0), and climbs the same rule m steps up when m < i; otherwise it takes
   the plain O(i) sum, which also sets the counts.  h spans the positions
   0..(ell + 1)m + 1.  Past HIST_CAP entries it is not allocated and every
   try takes the O(i) sum, so a huge m costs no memory. */
static int
ellm_walk(int64_t ell, int64_t m, int64_t a1, int64_t dstar, Store *st, PyObject *out)
{
    /* per depth i: a = a_i, ar = a_1 + ... + a_{i-1}, and for the last try
       v = a_i: dv = d(v), up = up(v), lo = lo(v); so dv[i - 1] is the
       degree of a_1..a_{i-1}, and dv[0] = 0 */
    int64_t span = (ell + 1) * m + 2;
    int hist = span <= HIST_CAP;
    int64_t *buf = PyMem_Calloc(5 * (size_t)(ell + 1) + (hist ? (size_t)span : 0),
                                sizeof(int64_t));
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int64_t *a = buf, *ar = a + ell + 1, *dv = ar + ell + 1;
    int64_t *up = dv + ell + 1, *lo = up + ell + 1;
    int64_t *h = hist ? lo + ell + 1 : NULL;
    uint64_t ticks = 0;
    int64_t i = 1;
    int first = 1; /* the next try is its level's first */
    a[1] = a1 + 1; /* pre-decremented */
    while (i >= 1) {
        if (interrupted(&ticks))
            goto fail;
        int64_t v = --a[i];
        if (v < 0) {
            if (--i >= 1 && h != NULL)
                h[a[i]]--;
            continue;
        }
        int64_t d;
        if (h != NULL && !first) {
            d = dv[i] + up[i] - lo[i] + (v >= m);
            up[i] += h[v + 1] - h[v + m + 1];
            lo[i] += (v >= m ? h[v - m] : 0) - h[v];
        } else if (h != NULL && m < i) {
            /* climb from x = a_{i-1}: d(x) is degr(a_1..a_{i-1}) plus the
               terms of x at level i - 1, and the counts are level i - 1's */
            int64_t x = a[i - 1];
            d = dv[i - 1] + (dv[i - 1] - dv[i - 2]);
            int64_t u = up[i - 1], l = lo[i - 1];
            for (; x < v; x++) {
                u += h[x + m + 1] - h[x + 1];
                l += h[x] - (x >= m ? h[x - m] : 0);
                d += l - u - (x + 1 > m);
            }
            up[i] = u;
            lo[i] = l;
        } else {
            d = dv[i - 1] - (v > m ? v - m : 0);
            int64_t u = 0, l = 0;
            for (int64_t k = 1; k < i; k++) {
                d += alpha(a[k], v, m);
                u += a[k] > v && a[k] <= v + m;
                l += a[k] < v && a[k] >= v - m;
            }
            up[i] = u;
            lo[i] = l;
        }
        dv[i] = d;
        first = 0;
        if (d > dstar)
            continue;
        if (st != NULL) {
            if (d >= st->rows && store_grow(st, d) < 0)
                goto fail;
            int64_t *c = st->counts + 2 * (d * st->stride + level_at(m, i - 1) + ar[i] + v);
            c[0]++;
            c[1] += a[1] == 0;
        }
        if (i < ell) {
            if (h != NULL)
                h[v]++;
            i++;
            a[i] = v + m + 1;
            ar[i] = ar[i - 1] + v;
            first = 1;
            continue;
        }
        if (out == NULL)
            continue;
        PyObject *item = PyTuple_New(ell + 1);
        if (item == NULL)
            goto fail;
        for (int64_t k = 0; k <= ell; k++) {
            PyObject *ak = PyLong_FromLongLong(a[k]);
            if (ak == NULL) {
                Py_DECREF(item);
                goto fail;
            }
            PyTuple_SET_ITEM(item, k, ak);
        }
        item = Py_BuildValue("(LN)", (long long)d, item);
        if (item == NULL || PyList_Append(out, item) < 0) {
            Py_XDECREF(item);
            goto fail;
        }
        Py_DECREF(item);
    }
    PyMem_Free(buf);
    return 0;

fail:
    PyMem_Free(buf);
    return -1;
}

/* [(all_counts, max_counts) for levels 1..ell]: level i counts the (i, m)-paths
   with degr <= dstar, all from one walk at ell */
static PyObject *
ellm_census_levels(PyObject *self, PyObject *args, PyObject *kwds)
{
    int64_t ell, m, dstar;
    if (ellm_args(args, kwds, "LLL:ellm_census_levels", &ell, &m, &dstar) < 0)
        return NULL;
    /* no level has a path of degr above C(ell+1, 2) m */
    int64_t M = m * ell * (ell + 1) / 2;
    Store st = store_new(ell, m, (dstar < M ? dstar : M) + 1);
    PyObject *out = NULL;
    if (ellm_walk(ell, m, m, dstar, &st, NULL) == 0)
        out = PyList_New(ell);
    for (int64_t j = 0; out != NULL && j < ell; j++) {
        PyObject *level = store_level(&st, j);
        if (level == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, j, level);
    }
    PyMem_Free(st.counts);
    return out;
}

/* (degr, positions) of each (ell, m)-path with degr <= dstar, or of each
   maximal one, in walk order */
static PyObject *
ellm_list(PyObject *args, PyObject *kwds, const char *fmt, int maximal)
{
    int64_t ell, m, dstar;
    if (ellm_args(args, kwds, fmt, &ell, &m, &dstar) < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    if (out != NULL && ellm_walk(ell, m, maximal ? 0 : m, dstar, NULL, out) < 0)
        Py_CLEAR(out);
    return out;
}

static PyObject *
ellm_paths_bounded(PyObject *self, PyObject *args, PyObject *kwds)
{
    return ellm_list(args, kwds, "LLL:ellm_paths_bounded", 0);
}

static PyObject *
ellm_maximal_bounded(PyObject *self, PyObject *args, PyObject *kwds)
{
    return ellm_list(args, kwds, "LLL:ellm_maximal_bounded", 1);
}

/* ------------------------------------------------------------------------
 * catalan_census_levels(ell, dstar): what ellm_census_levels(ell, 1, dstar)
 * returns, with the all_counts of every level from the Garsia-Haglund
 * recursion (Discrete Math. 256, 2002) instead of a walk.
 *
 * Level i counts the (i, 1)-paths, the Dyck paths of size n = i + 1, and
 * their sum of q^dinv t^area is C_n = F_{n,1} + ... + F_{n,n} with
 *   F_{n,n} = q^C(n,2),
 *   F_{n,k} = t^(n-k) q^C(k,2) sum_{r=1}^{n-k} [r+k-1 choose r]_q F_{n-k,r};
 * a term q^a t^b of C_n counts under the key (degr, area) =
 * (C(n,2) - a - b, b).  A term of F_{n-k,r} of degr d' times q^j from the
 * q-binomial, 0 <= j <= r(k-1), is a term of F_{n,k} of area b' + n - k
 * and, as C(n,2) = C(k,2) + C(n-k,2) + k(n-k), of degr
 *   d' + (k-1)(n-k) - j = d' + (k-1)(n-k-r) + i,  i = r(k-1) - j >= 0.
 * So no step lowers the degree: the terms of degr <= dstar come from terms
 * of degr <= dstar only, term r adds nothing when d' + (k-1)(n-k-r) >
 * dstar, and otherwise only i <= dstar - d' - (k-1)(n-k-r), that is
 * j >= d' + (k-1)(n-k) - dstar.  (k-1)(n-k) alone is no lower bound: j
 * reaches r(k-1).  The q-binomial is palindromic, so the coefficient of q^j
 * is that of q^i, the partitions of i into at most r parts of size at most
 * k - 1; the kernel keeps them for i <= dstar and steps r up by
 * (1 - q^(r+k-1)) / (1 - q^r).  Each term's area moves by n - k whatever i
 * is, so a row of F_{n-k,r} (one degr) adds to a row of F_{n,k} shifted by
 * n - k, times one coefficient.  As [r choose r]_q = 1, F_{n+1,1} is
 * t^n C_n, and the kernel reads C_n off it.
 *
 * F_{n,k} keeps a row for each degr 0..min(dstar, C(n,2)), over the areas
 * it reaches; a first pass over the terms takes each row's span, a second
 * fills it.  The cells share one arena grown by doubling, and the rows
 * grow with n: at lstar(1, 15) = 17 they are 20,674 cells (an arena of
 * 32,768, 256 KB) and 2,612 rows (63 KB).  Every count and coefficient is
 * summed and multiplied with overflow checks, so a count above 2**63 - 1
 * raises OverflowError rather than wrap; below ell = 35 none can, each
 * being at most Catalan(35).  max_counts come from one walk of the maximal
 * paths, the (ell, 1) walk from a_1 = 0. */

/* the areas lo..hi of one row of F_{n,k}, at cells + off; empty while
   hi < lo */
typedef struct {
    int64_t lo, hi, off;
} Row;

/* *acc += a * b, or OverflowError */
static int
add_product(int64_t *acc, int64_t a, int64_t b)
{
    int64_t p;
    if (__builtin_mul_overflow(a, b, &p) || __builtin_add_overflow(*acc, p, acc)) {
        PyErr_SetString(PyExc_OverflowError,
                        "catalan_census_levels: a count exceeds 2**63 - 1");
        return -1;
    }
    return 0;
}

static PyObject *
catalan_census_levels(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"ell", "dstar", NULL};
    long long e, ds;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LL:catalan_census_levels", kwlist, &e, &ds))
        return NULL;
    if (!ellm_fits(e, 1) || ds < 0) {
        PyErr_Format(PyExc_ValueError,
                     "(ell, dstar) = (%lld, %lld): need ell >= 1, dstar >= 0 and ell < %d",
                     e, ds, MAX_DEPTH);
        return NULL;
    }
    /* no (i, 1)-path with i <= ell has degr above C(ell+1, 2) */
    int64_t ell = e, M = ell * (ell + 1) / 2, dstar = ds < M ? ds : M;
    /* the rows of F_{n,k}, for n = 1..ell+1 and F_{ell+2,1}, start at
       rows + first[n] + (k - 1)(deep[n] + 1), deep[n] = min(dstar, C(n,2)) */
    int64_t first[MAX_DEPTH + 2], deep[MAX_DEPTH + 2];
    for (int64_t n = 0; n <= ell + 2; n++) {
        deep[n] = n * (n - 1) / 2 < dstar ? n * (n - 1) / 2 : dstar;
        first[n] = n == 0 ? 0 : first[n - 1] + (n - 1) * (deep[n - 1] + 1);
    }
    Row *rows = NULL;
    int64_t *co = PyMem_Calloc((size_t)dstar + 1, sizeof(int64_t));
    int64_t *cells = NULL, used = 0, cap = 0;
    /* the walk from a_1 = 0 counts only maximal paths, in both halves */
    Store st = store_new(ell, 1, dstar + 1);
    uint64_t ticks = 0;
    PyObject *out = NULL;
    if (co == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    if (ellm_walk(ell, 1, 0, dstar, &st, NULL) < 0)
        goto fail;
    out = PyList_New(ell);
    if (out == NULL)
        goto fail;
    for (int64_t n = 1; n <= ell + 2; n++) {
        /* the rows of F_{n,1..n}, or of F_{ell+2,1} alone, all empty */
        int64_t kmax = n <= ell + 1 ? n : 1, nrows = first[n] + kmax * (deep[n] + 1);
        Row *grown = PyMem_Realloc(rows, (size_t)nrows * sizeof(Row));
        if (grown == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        rows = grown;
        for (int64_t x = first[n]; x < nrows; x++) {
            rows[x].lo = LIMIT;
            rows[x].hi = -1;
        }
        for (int64_t k = 1; k <= kmax; k++) {
            Row *f = rows + first[n] + (k - 1) * (deep[n] + 1);
            int64_t s = n - k, c = k - 1, need = used;
            Row *src = rows + first[s]; /* F_{s,r} at src + (r - 1)(deep[s] + 1) */
            if (s == 0) /* F_{n,n}: one term, degr 0 and area 0 */
                f[0].lo = f[0].hi = 0;
            for (int64_t r = 1; r <= s; r++) { /* the span of each row */
                Row *g = src + (r - 1) * (deep[s] + 1);
                for (int64_t d = 0; d <= deep[s] && d + c * (s - r) <= dstar; d++)
                    for (int64_t i = 0; i <= r * c && d + c * (s - r) + i <= dstar; i++) {
                        Row *t = f + d + c * (s - r) + i;
                        t->lo = g[d].lo + s < t->lo ? g[d].lo + s : t->lo;
                        t->hi = g[d].hi + s > t->hi ? g[d].hi + s : t->hi;
                    }
            }
            for (int64_t d = 0; d <= deep[n]; d++)
                if (f[d].hi >= f[d].lo) {
                    f[d].off = need;
                    need += f[d].hi - f[d].lo + 1;
                }
            if (need > cap) {
                int64_t want = 2 * cap > need ? 2 * cap : need;
                int64_t *more = PyMem_Realloc(cells, (size_t)want * sizeof(int64_t));
                if (more == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
                memset(more + cap, 0, (size_t)(want - cap) * sizeof(int64_t));
                cells = more;
                cap = want;
            }
            used = need;
            if (s == 0)
                cells[f[0].off] = 1;
            co[0] = 1;
            memset(co + 1, 0, (size_t)dstar * sizeof(int64_t));
            for (int64_t r = 1; r <= s; r++) {
                /* co[i] for [r+c choose r]_q from [r-1+c choose r-1]_q */
                for (int64_t i = dstar; i >= r + c; i--)
                    co[i] -= co[i - r - c];
                for (int64_t i = r; i <= dstar; i++)
                    if (add_product(&co[i], co[i - r], 1) < 0)
                        goto fail;
                Row *g = src + (r - 1) * (deep[s] + 1);
                for (int64_t d = 0; d <= deep[s] && d + c * (s - r) <= dstar; d++) {
                    if (g[d].hi < g[d].lo)
                        continue;
                    const int64_t *from = cells + g[d].off;
                    int64_t w = g[d].hi - g[d].lo + 1;
                    for (int64_t i = 0; i <= r * c && d + c * (s - r) + i <= dstar; i++) {
                        if (interrupted(&ticks))
                            goto fail;
                        Row *t = f + d + c * (s - r) + i;
                        int64_t *to = cells + t->off + g[d].lo + s - t->lo;
                        for (int64_t x = 0; x < w; x++)
                            if (add_product(&to[x], co[i], from[x]) < 0)
                                goto fail;
                    }
                }
            }
        }
        if (n < 3)
            continue;
        /* level n - 2 is C_{n-1} = t^(1-n) F_{n,1} */
        Row *f = rows + first[n];
        PyObject *all = PyDict_New();
        for (int64_t d = 0; all != NULL && d <= deep[n]; d++)
            if (f[d].hi >= f[d].lo && fold_row(all, d, f[d].lo - (n - 1), cells + f[d].off,
                                               f[d].hi - f[d].lo + 1, 1) < 0)
                Py_CLEAR(all);
        PyObject *max = all == NULL ? NULL : store_dict(&st, n - 3, 1);
        if (max == NULL) {
            Py_XDECREF(all);
            goto fail;
        }
        PyObject *level = Py_BuildValue("(NN)", all, max);
        if (level == NULL)
            goto fail;
        PyList_SET_ITEM(out, n - 3, level);
    }
    PyMem_Free(rows);
    PyMem_Free(co);
    PyMem_Free(cells);
    PyMem_Free(st.counts);
    return out;

fail:
    Py_XDECREF(out);
    PyMem_Free(rows);
    PyMem_Free(co);
    PyMem_Free(cells);
    PyMem_Free(st.counts);
    return NULL;
}

/* ------------------------------------------------------------------------
 * lowest_tuple(a, m): iterate right on the positions a = (a_0, ..., a_ell)
 * until unrightable, in place, as qtcat.cycles.lowest_tuple does on tuples */

static PyObject *
lowest_tuple(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"a", "m", NULL};
    PyObject *tup;
    long long m;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!L:lowest_tuple", kwlist,
                                     &PyTuple_Type, &tup, &m))
        return NULL;
    Py_ssize_t len = PyTuple_GET_SIZE(tup);
    if (!ellm_fits(len - 1, m)) {
        PyErr_Format(PyExc_ValueError,
                     "lowest_tuple: (ell, m) = (%zd, %lld) with ell = len(a) - 1: need "
                     "ell, m >= 1, ell < %d and (m(ell+1)+1)(ell+1) < 2**31",
                     len - 1, m, MAX_DEPTH);
        return NULL;
    }
    int64_t a[MAX_DEPTH + 1], ell = len - 1;
    for (int64_t k = 0; k <= ell; k++) {
        long long v = PyLong_AsLongLong(PyTuple_GET_ITEM(tup, k));
        if (v == -1 && PyErr_Occurred())
            return NULL;
        if (v <= -LIMIT || v >= LIMIT) {
            PyErr_Format(PyExc_ValueError,
                         "lowest_tuple: position %lld is out of range: need |a_i| < 2**31", v);
            return NULL;
        }
        a[k] = v;
    }
    /* each right step moves the area by one, so more than max_area of them
       is a bug, raised rather than looped on */
    int64_t steps = m * ell * (ell + 1) / 2;
    for (;;) {
        /* the point: minimal r with a_r - a_ell > -m, at most ell */
        int64_t last = a[ell], r = 0;
        while (a[r] - last <= -m)
            r++;
        if (r == ell)
            break;
        /* unrightable when the pair, the minimal k with a_k - a_{k+2} >= -m,
           lies below r - 1 */
        int64_t k = 0;
        while (k + 2 <= r && a[k] - a[k + 2] < -m)
            k++;
        if (k + 2 <= r)
            break;
        if (steps-- == 0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "right_tuple orbit exceeded the area range; implementation bug");
            return NULL;
        }
        /* cycleright at r: a_ell + 1 moves in after a_r */
        memmove(a + r + 2, a + r + 1, (size_t)(ell - r - 1) * sizeof(int64_t));
        a[r + 1] = last + 1;
    }
    PyObject *out = PyTuple_New(len);
    if (out == NULL)
        return NULL;
    for (int64_t i = 0; i <= ell; i++) {
        PyObject *ai = PyLong_FromLongLong(a[i]);
        if (ai == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, ai);
    }
    return out;
}

/* ------------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"rational_census", (PyCFunction)(void (*)(void))rational_census,
     METH_VARARGS | METH_KEYWORDS,
     "rational_census(n, s)\n--\n\n"
     "Count the paths of slope n/s by (degr, area); see qtcat._kernels_py."},
    {"ellm_census_levels", (PyCFunction)(void (*)(void))ellm_census_levels,
     METH_VARARGS | METH_KEYWORDS,
     "ellm_census_levels(ell, m, dstar)\n--\n\n"
     "For each level 1..ell, count the (level, m)-paths with degr <= dstar by "
     "(degr, area); see qtcat._kernels_py."},
    {"ellm_paths_bounded", (PyCFunction)(void (*)(void))ellm_paths_bounded,
     METH_VARARGS | METH_KEYWORDS,
     "ellm_paths_bounded(ell, m, dstar)\n--\n\n"
     "List of (degr, positions) over the (ell, m)-paths with degr <= dstar; "
     "see qtcat._kernels_py."},
    {"ellm_maximal_bounded", (PyCFunction)(void (*)(void))ellm_maximal_bounded,
     METH_VARARGS | METH_KEYWORDS,
     "ellm_maximal_bounded(ell, m, dstar)\n--\n\n"
     "List of (degr, positions) over maximal (ell, m)-paths with degr <= dstar; "
     "see qtcat._kernels_py."},
    {"catalan_census_levels", (PyCFunction)(void (*)(void))catalan_census_levels,
     METH_VARARGS | METH_KEYWORDS,
     "catalan_census_levels(ell, dstar)\n--\n\n"
     "ellm_census_levels(ell, 1, dstar), its left sides from the Garsia-Haglund "
     "recursion; see qtcat._kernels_py."},
    {"lowest_tuple", (PyCFunction)(void (*)(void))lowest_tuple,
     METH_VARARGS | METH_KEYWORDS,
     "lowest_tuple(a, m)\n--\n\n"
     "Iterate right on the position tuple a until unrightable; see "
     "qtcat.cycles.lowest_tuple."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "qtcat._speedups",
    .m_doc = "Compiled enumeration kernels; same contract as qtcat._kernels_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "BACKEND", "c") < 0)
        Py_CLEAR(mod);
    return mod;
}
