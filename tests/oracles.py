"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch with different
algorithms than the package (set algebra instead of label arrays, cofactor
expansion and a one-matrix Cholesky instead of the subset table of Schur
complements, series/continued fractions instead of closed-form sums), so
agreement is meaningful.  The one exception is `noncentral_recurrence`: the
package's noncentral recurrence as a plain scalar loop, the bit-for-bit
reference of its array form.
"""

import math

import numpy as np

from mutindep.distributions import chi2_sf

# --- regularized incomplete gamma (series + continued fraction) ----------


def _gamma_series(a, x, eps=1e-16, itmax=1000):
    ap = a
    total = term = 1.0 / a
    for _ in range(itmax):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * eps:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_frac(a, x, eps=1e-16, itmax=1000):
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, itmax + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def reg_gamma_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x)."""
    if a <= 0 or x < 0:
        raise ValueError("need a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cont_frac(a, x)


def chi2_sf_oracle(x, df):
    return reg_gamma_upper(df / 2.0, x / 2.0)


# --- the noncentral mixture recurrence, one statistic, nothing cached ------


def noncentral_recurrence(x, df, lam):
    """The package's noncentral chi-squared recurrence for one statistic, as
    a plain loop with every Poisson weight, lgamma and log taken afresh.

    Not an independent algorithm: it is the bit-for-bit reference of the
    array form, whose weights and logs are cached and whose ladder steps
    many statistics at once.  Q(df) is the scalar chi2_sf, checked above
    against the incomplete gamma.
    """
    if lam == 0.0:
        return chi2_sf(x, df)
    q = lam / 2.0
    log_q = math.log(q)
    weights = []
    total = 0.0
    while total < 1.0 - 1e-12:
        weights.append(math.exp(-q + len(weights) * log_q - math.lgamma(len(weights) + 1)))
        total += weights[-1]
    sf = chi2_sf(x, df)
    h, a = x / 2.0, df / 2.0
    log_h = math.log(h) if h > 0.0 else -math.inf
    log_step = a * log_h - h - math.lgamma(a + 1.0)
    acc = 0.0
    for weight in weights:
        acc += weight * sf
        sf += math.exp(log_step)
        a += 1.0
        log_step += log_h - math.log(a)
    return min(acc, 1.0)


# --- determinants by cofactor expansion ----------------------------------


def det_cofactor(matrix):
    m = [list(row) for row in np.asarray(matrix, dtype=float)]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += ((-1.0) ** j) * m[0][j] * det_cofactor(minor)
    return total


def chol_logdet(matrix):
    """log det by an in-order Cholesky factorization, or None when a pivot
    is at or below 1e-12 * dim * max(diagonal).

    The reference for the kernel's pivot rule: a subset of its table of
    log-determinants fails exactly when this factorization of the submatrix
    does.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    tol = 1e-12 * n * float(a.diagonal().max(initial=0.0))
    acc = 0.0
    for j in range(n):
        s = float(a[j, j] - a[j, :j] @ a[j, :j])
        if s <= tol:
            return None
        piv = math.sqrt(s)
        a[j, j] = piv
        acc += math.log(piv)
        if j + 1 < n:
            a[j + 1 :, j] = (a[j + 1 :, j] - a[j + 1 :, :j] @ a[j, :j]) / piv
    return 2.0 * acc


# --- set-algebra partition operations ------------------------------------


def as_block_sets(partition):
    return frozenset(frozenset(b) for b in partition.blocks())


def meet_blocks(blocks_p, blocks_q):
    out = set()
    for a in blocks_p:
        for b in blocks_q:
            inter = frozenset(a & b)
            if inter:
                out.add(inter)
    return frozenset(out)


def join_blocks(blocks_p, blocks_q):
    blocks = [set(b) for b in blocks_p] + [set(b) for b in blocks_q]
    changed = True
    while changed:
        changed = False
        merged = []
        for b in blocks:
            for target in merged:
                if target & b:
                    target |= b
                    changed = True
                    break
            else:
                merged.append(set(b))
        blocks = merged
    return frozenset(frozenset(b) for b in blocks)


def is_refinement_blocks(blocks_p, blocks_q):
    return all(any(a <= b for b in blocks_q) for a in blocks_p)


# --- ROC area by explicit threshold sweep --------------------------------


def roc_auc_sweep(pos, neg):
    """Trapezoidal area under the ROC curve of 'reject when p <= t'."""
    pos = list(pos)
    neg = list(neg)
    points = [(0.0, 0.0)]
    for t in sorted(set(pos) | set(neg)):
        fpr = sum(1 for q in neg if q <= t) / len(neg)
        tpr = sum(1 for p in pos if p <= t) / len(pos)
        points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


# --- one-sample Kolmogorov-Smirnov ----------------------------------------


def ks_statistic_uniform(values, lo=0.0, hi=1.0):
    """KS distance of `values` from the uniform law on (lo, hi)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cdf = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    d_plus = (np.arange(1, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0, n) / n).max()
    return float(max(d_plus, d_minus))


def ks_critical(n, alpha=0.01):
    """Asymptotic critical value of the one-sample KS statistic."""
    coefficients = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}
    return coefficients[alpha] / math.sqrt(n)
