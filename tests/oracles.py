"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch with different
algorithms than the package (set algebra instead of label arrays, cofactor
expansion and a one-matrix Cholesky instead of the subset table of Schur
complements, series/continued fractions instead of closed-form sums), so
agreement is meaningful; the chi-squared tails are also taken at 40
digits with mpmath.  The two exceptions are `noncentral_recurrence`, the
noncentral mixture as a plain scalar loop in logs, the accuracy reference
of the array form, and `model_and_samples`, a campaign run's draw one
matrix at a time, the bit-for-bit reference of its array form.
"""

import math

import mpmath
import numpy as np

from mutindep.distributions import chi2_sf
from mutindep.randomness import random_partition_with_k_blocks

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


def mp_chi2_sf(x, df):
    """P(chi2_df > x) at 40 digits, as an mpf: the regularized upper
    incomplete gamma, taken as 1 minus the lower one below the mean, where
    mpmath's lower series is the faster."""
    with mpmath.workdps(40):
        a, h = mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
        if h < a:
            return 1 - mpmath.gammainc(a, 0, h, regularized=True)
        return mpmath.gammainc(a, h, regularized=True)


def mp_noncentral_chi2_sf(x, df, lam):
    """The noncentral chi-squared tail at 40 digits, as a float: its whole
    Poisson(lam/2) mixture, summed until the remaining mass is below 1e-30,
    each central tail Q(a+1, h) stepped up from Q(a, h) by
    h^a e^-h / Gamma(a+1)."""
    with mpmath.workdps(40):
        q, h, a = mpmath.mpf(lam) / 2, mpmath.mpf(x) / 2, mpmath.mpf(df) / 2
        tail, weight = mp_chi2_sf(x, df), mpmath.exp(-q)
        step = mpmath.exp(a * mpmath.log(h) - h - mpmath.loggamma(a + 1)) if h else 0
        total = mass = 0
        j = 0
        while mass < 1 - mpmath.mpf(10) ** -30:
            total += weight * tail
            mass += weight
            tail += step
            j += 1
            step *= h / (a + j)
            weight *= q / j
        return float(total)


# --- the noncentral mixture recurrence, one statistic at a time -----------


def noncentral_recurrence(x, df, lam):
    """The noncentral chi-squared mixture for one statistic, as a plain
    loop over the Poisson weights that steps Q(df+2j) up one term at a
    time in logs, every weight, lgamma and log taken afresh.

    Not an independent algorithm: the same truncated mixture as the array
    form, summed in another order, so the two agree to rounding.  Its
    steps take each term's log as a*log(h) - h - lgamma(a+1), whose
    absolute error of about h*eps reaches 1.5e-13 relative at h = 500
    against the same truncated mixture at 40 digits.  Q(df) is the scalar
    chi2_sf, checked above against the incomplete gamma.
    """
    q = lam / 2.0
    if q == 0.0:  # Poisson(0) is all at j = 0
        return chi2_sf(x, df)
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


# --- a campaign run's draw, one matrix at a time ---------------------------


def model_and_samples(n, blocks, k, rng):
    """A campaign run's truth, correlation matrix and (k, n) samples drawn
    from rng one matrix at a time: the partition walk, then each block's
    Bartlett factor row by row (a chi-squared and i normals), rescaled to
    a correlation matrix and placed with np.ix_, then the 2-D Cholesky
    factor and the product of a (k, n) block of normals with it.

    Not an independent algorithm: it is the bit-for-bit reference of the
    stacked draw, which takes every step but the random ones once per
    chunk.  The walk is the package's, checked on its own.
    """
    truth = random_partition_with_k_blocks(n, blocks, rng)
    sigma = np.eye(n)
    g = rng.generator
    for block in truth.blocks():
        dim = len(block)
        if dim == 1:
            continue
        factor = np.zeros((dim, dim))
        for i in range(dim):
            factor[i, i] = math.sqrt(g.chisquare(dim + 1 - i))
            if i:
                factor[i, :i] = g.standard_normal(i)
        w = factor @ factor.T
        d = np.sqrt(np.diag(w))
        r = w / np.outer(d, d)
        r = (r + r.T) / 2.0
        np.fill_diagonal(r, 1.0)
        idx = np.array(block) - 1
        sigma[np.ix_(idx, idx)] = r
    z = g.standard_normal((k, n))
    return truth, sigma, z @ np.linalg.cholesky(sigma).T


# --- the exact null law of a test with one or two variables on a side -----


def singleton_sf(stat, n, k):
    """Exact null tail P(S > stat) of the statistic S of a test of n
    variables with one on a side, from k samples.

    With V = exp(-S/(k-1)), ((1-V)/(n-1)) / (V/(k-n)) is F(n-1, k-n)
    (the likelihood-ratio criterion U with q = 1; Anderson 2003, sec. 8.4),
    and (1-V)/V = expm1(S/(k-1)).  scipy is imported here alone, as only
    the tests need it.
    """
    from scipy import stats

    ratio = math.expm1(stat / (k - 1)) * (k - n) / (n - 1)
    return float(stats.f.sf(ratio, n - 1, k - n))


def pair_sf(stat, n, k):
    """Exact null tail P(S > stat) of the statistic S of a test of n
    variables with two on a side, from k samples.

    With V = exp(-S/(k-1)), ((1-sqrt V)/(2(n-2))) / (sqrt V/(2(k-n))) is
    F(2(n-2), 2(k-n)) (the criterion U with q = 2; Anderson 2003, sec.
    8.4), and (1-sqrt V)/sqrt V = expm1(S/(2(k-1))).
    """
    from scipy import stats

    ratio = math.expm1(stat / (2 * (k - 1))) * (k - n) / (n - 2)
    return float(stats.f.sf(ratio, 2 * (n - 2), 2 * (k - n)))


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


def entailed(partition, masks):
    """Which members bitmasks are dichotomies the partition entails: those
    that split none of its blocks, each block read as a bitmask."""
    masks = np.asarray(masks, dtype=np.uint64)
    out = np.ones(masks.shape, dtype=bool)
    for block in partition.blocks():
        bits = np.uint64(sum(1 << (e - 1) for e in block))
        inside = masks & bits
        out &= (inside == 0) | (inside == bits)
    return out


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
