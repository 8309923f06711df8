"""The benchmark's own reference for checking the program's outputs.

Nothing here imports the package: statistics come from numpy.linalg.slogdet,
tails from scipy.stats, and the corrections and the lattice meet are
written out again on plain bitmasks.  Each check returns a list of
mismatch messages, empty when the output agrees.

Tolerances, fixed before any run:
* statistic: |program - reference| <= 1e-10 * (k - 1) + 1e-9 * |reference|
  (Cholesky against LU log-determinants, scaled by k - 1);
* p-value, recomputed from the program's own statistic: central
  <= 1e-12 * p + 1e-300, noncentral (scipy's ncx2 against the Poisson
  mixture) <= 1e-5 * p + 1e-12;
* corrections, survivor sets and mu_hat: exact.
"""

import numpy as np

STAT_ABS_PER_SAMPLE = 1e-10
STAT_REL = 1e-9
P_REL = {"central": 1e-12, "noncentral": 1e-5}
P_ABS = {"central": 1e-300, "noncentral": 1e-12}


def all_masks(n):
    """Members bitmasks of every dichotomy (element 1 always a member),
    ascending, as the program enumerates them."""
    return [1 | (s << 1) for s in range(2 ** (n - 1) - 1)]


def statistics(r, k, masks):
    """(k-1) * [logdet R_aa + logdet R_cc - logdet R], clamped at 0."""
    r = np.asarray(r, dtype=np.float64)
    n = r.shape[0]
    bits = ((np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1).astype(bool)
    ld_a = np.empty(len(masks))
    ld_c = np.empty(len(masks))
    for size in np.unique(bits.sum(axis=1)):
        rows = np.flatnonzero(bits.sum(axis=1) == size)
        for part, out, width in ((bits[rows], ld_a, size), (~bits[rows], ld_c, n - size)):
            idx = np.nonzero(part)[1].reshape(len(rows), width)
            sign, logdet = np.linalg.slogdet(r[idx[:, :, None], idx[:, None, :]])
            if (sign <= 0).any():
                raise ValueError("reference found a singular submatrix")
            out[rows] = logdet
    sign, ld_full = np.linalg.slogdet(r)
    if sign <= 0:
        raise ValueError("reference found a singular matrix")
    return np.maximum((k - 1) * (ld_a + ld_c - ld_full), 0.0)


def sample_correlation(rows):
    r = np.corrcoef(np.asarray(rows, dtype=np.float64), rowvar=False)
    r = np.clip((r + r.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r


def sizes(mask, n):
    na = bin(mask).count("1")
    return na, n - na


def _odd_cubic(t):
    return 2 * t**3 + 3 * t**2 - t


def p_values(stats, masks, n, k, mode):
    from scipy import stats as st

    df = np.array([a * c for a, c in (sizes(m, n) for m in masks)], dtype=np.float64)
    if mode == "central":
        return st.chi2.sf(stats, df)
    lam = np.array([(_odd_cubic(n) - _odd_cubic(a) - _odd_cubic(c)) / (12.0 * (k - 1))
                    for a, c in (sizes(m, n) for m in masks)])
    return st.ncx2.sf(stats, df, lam)


def bh_rejected(p, alpha):
    """Benjamini-Hochberg step-up: reject every p-value at or below the
    largest p_(i) with p_(i) <= alpha * i / m."""
    p = np.asarray(p, dtype=np.float64)
    ordered = np.sort(p)
    passing = np.flatnonzero(ordered <= alpha * np.arange(1, p.size + 1) / p.size)
    if not passing.size:
        return np.zeros(p.size, dtype=bool)
    return p <= ordered[passing[-1]]


def bonferroni_rejected(p, alpha):
    p = np.asarray(p, dtype=np.float64)
    return p <= alpha / p.size


REJECTED = {"fdr": bh_rejected, "bonferroni": bonferroni_rejected}


def meet(n, masks):
    """Blocks (tuples of 1-based elements) of the meet of the dichotomies
    `masks`: two elements share a block iff they fall on the same side of
    every one.  The empty meet is the one-block partition."""
    groups = {}
    for i in range(n):
        signature = tuple((m >> i) & 1 for m in masks)
        groups.setdefault(signature, []).append(i + 1)
    return tuple(sorted(tuple(b) for b in groups.values()))


def entailed(mask, blocks):
    """True when the dichotomy splits no block of the pattern."""
    for block in blocks:
        inside = sum(1 for e in block if (mask >> (e - 1)) & 1)
        if 0 < inside < len(block):
            return False
    return True


def parse_partition(text, n):
    """Blocks of "12|3" (digit runs, n <= 9) or "1,2|3,10" (n > 9) text."""
    blocks = []
    for block in text.split("|"):
        items = block.split(",") if n > 9 else block
        blocks.append(tuple(sorted(int(e) for e in items)))
    return tuple(sorted(blocks))


def format_blocks(blocks, n):
    sep = "," if n > 9 else ""
    return "|".join(sep.join(str(e) for e in b) for b in sorted(blocks))


def members_mask(blocks):
    """The members bitmask of a two-block partition: the block holding 1."""
    first = next(b for b in blocks if 1 in b)
    return sum(1 << (e - 1) for e in first)


def check_inference(result, r, k, alpha, correction, mode):
    """Check one inference: `result` holds the program's masks, statistics,
    df and p-values per test, the surviving masks and the blocks of mu_hat."""
    n = r.shape[0]
    errors = []
    masks = all_masks(n)
    if not np.array_equal(result["masks"], masks):
        return [f"tests do not cover the {2 ** (n - 1) - 1} dichotomies in order"]
    stats = np.asarray(result["stats"], dtype=np.float64)
    ref = statistics(r, k, masks)
    tol = STAT_ABS_PER_SAMPLE * (k - 1) + STAT_REL * np.abs(ref)
    bad = np.flatnonzero(np.abs(stats - ref) > tol)
    if bad.size:
        j = bad[0]
        errors.append(f"statistic of mask {masks[j]}: {stats[j]!r} vs reference {ref[j]!r}")
    expected_df = [a * c for a, c in (sizes(m, n) for m in masks)]
    if not np.array_equal(result["df"], expected_df):
        errors.append("degrees of freedom differ from |a| * |c|")
    p = np.asarray(result["p"], dtype=np.float64)
    p_ref = p_values(stats, masks, n, k, mode)
    bad = np.flatnonzero(np.abs(p - p_ref) > P_REL[mode] * p_ref + P_ABS[mode])
    if bad.size:
        j = bad[0]
        errors.append(f"{mode} p-value of mask {masks[j]}: {p[j]!r} vs reference {p_ref[j]!r}")
    rejected = REJECTED[correction](p, alpha)
    kept = [m for m, rej in zip(masks, rejected) if not rej]
    if sorted(int(m) for m in result["kept"]) != kept:
        errors.append(f"{correction} survivors differ: {len(result['kept'])} vs {len(kept)}")
    if tuple(sorted(result["mu_hat"])) != meet(n, kept):
        errors.append(f"mu_hat {result['mu_hat']} is not the meet of the survivors "
                      f"{meet(n, kept)}")
    return errors
