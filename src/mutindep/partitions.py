"""Set partitions of {1..n} and their refinement lattice.

A partition stands for a grouping of variables into mutually independent
blocks; a bipartition (2-block partition) is the unit hypothesis of a
dichotomy test.  Partitions are kept in canonical restricted-growth form,
so two equal partitions are representation-equal and hash-equal.
"""

import functools
import re

import numpy as np

from ._kernels import MAX_VARIABLES

# Largest n accepted by the public counting functions.  Bell/Stirling values
# up to this point stay within the range of 64-bit consumers; Python ints are
# exact regardless, the bound just keeps the contract portable.
COUNT_LIMIT = 26

_TOKEN_SPLIT = re.compile(r"[,\s]+")


class Partition:
    """A set partition of {1..n} in canonical restricted-growth form.

    The constructor accepts any sequence of n block labels (element i gets
    ``labels[i-1]``) and relabels them by first occurrence, which yields the
    canonical restricted-growth string: ``assignment[0] == 0`` and each id is
    at most one above the running maximum.  Blocks are therefore numbered by
    ascending least element.
    """

    __slots__ = ("_n", "_assignment")

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a partition needs a nonempty ground set")
        ids = {}
        assignment = []
        for lab in labels:
            if lab not in ids:
                ids[lab] = len(ids)
            assignment.append(ids[lab])
        self._assignment = tuple(assignment)
        self._n = len(assignment)

    @classmethod
    def singletons(cls, n):
        """The finest partition 1|2|...|n (bottom of the lattice)."""
        return cls(range(n))

    @classmethod
    def one_block(cls, n):
        """The coarsest partition 12...n (top of the lattice)."""
        if n < 1:
            raise ValueError("a partition needs a nonempty ground set")
        return cls([0] * n)

    @classmethod
    def from_blocks(cls, blocks, n=None):
        """Build from an iterable of blocks of 1-based elements.

        The blocks must cover {1..n} exactly once; `n` defaults to the
        largest element mentioned.
        """
        blocks = [tuple(b) for b in blocks]
        elements = [e for b in blocks for e in b]
        if not elements:
            raise ValueError("a partition needs a nonempty ground set")
        if n is None:
            n = max(elements)
        seen = set()
        for e in elements:
            if not isinstance(e, int) or e < 1 or e > n:
                raise ValueError(f"element {e!r} out of range 1..{n}")
            if e in seen:
                raise ValueError(f"duplicate element {e}")
            seen.add(e)
        for e in range(1, n + 1):
            if e not in seen:
                raise ValueError(f"missing element {e}")
        labels = [0] * n
        for j, block in enumerate(blocks):
            if not block:
                raise ValueError("empty block")
            for e in block:
                labels[e - 1] = j
        return cls(labels)

    @property
    def n(self):
        return self._n

    @property
    def assignment(self):
        """Tuple of 0-based block ids, one per element, in restricted-growth form."""
        return self._assignment

    @property
    def block_count(self):
        return max(self._assignment) + 1

    def blocks(self):
        """Blocks as tuples of 1-based elements, ordered by least element."""
        out = [[] for _ in range(self.block_count)]
        for i, b in enumerate(self._assignment):
            out[b].append(i + 1)
        return tuple(tuple(b) for b in out)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self):
        return hash(self._assignment)

    def __repr__(self):
        return f"Partition({format_partition(self)!r})"

    def __str__(self):
        return format_partition(self)


class Bipartition:
    """A two-block partition a | complement of {1..n}.

    Stored as the bitmask of the block containing element 1 (bit i-1 stands
    for element i), which removes the a-versus-complement ambiguity.  The
    bitmask representation caps n at 32; general Partition operations carry
    no such cap.
    """

    __slots__ = ("_n", "_members")

    def __init__(self, n, members):
        _check_bipartition_n(n)
        members = int(members)
        full = (1 << n) - 1
        if members & 1 == 0:
            raise ValueError("the members block must contain element 1")
        if members & ~full:
            raise ValueError("members bitmask has bits outside 1..n")
        if members == full:
            raise ValueError("the complement block must be nonempty")
        self._n = n
        self._members = members

    @property
    def n(self):
        return self._n

    @property
    def members(self):
        return self._members

    def sizes(self):
        """(|a|, |complement|) block cardinalities."""
        na = self._members.bit_count()
        return na, self._n - na

    def to_partition(self):
        return Partition((self._members >> i) & 1 ^ 1 for i in range(self._n))

    def __eq__(self, other):
        if not isinstance(other, Bipartition):
            return NotImplemented
        return self._n == other._n and self._members == other._members

    def __hash__(self):
        return hash((self._n, self._members))

    def __repr__(self):
        return f"Bipartition({format_partition(self.to_partition())!r})"

    def __str__(self):
        return format_partition(self.to_partition())


def _check_bipartition_n(n):
    if not 2 <= n <= 32:
        raise ValueError(f"bipartitions support 2 <= n <= 32, got n={n}")


def _check_same_n(p, q):
    if p.n != q.n:
        raise ValueError(f"ground sets differ: {p.n} vs {q.n}")


def meet(p, q):
    """Greatest lower bound: i and j share a block iff they do in both p and q."""
    _check_same_n(p, q)
    return Partition(zip(p.assignment, q.assignment))


def join(p, q):
    """Least upper bound, via disjoint-set union over the two block relations."""
    _check_same_n(p, q)
    parent = list(range(p.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (p, q):
        first = {}
        for i, lab in enumerate(part.assignment):
            if lab in first:
                ra, rb = find(first[lab]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                first[lab] = i
    return Partition(find(i) for i in range(p.n))


def is_refinement(p, q):
    """True iff every block of p lies inside a block of q (p <= q)."""
    return meet(p, q) == p


def meet_all(partitions):
    """Meet of a nonempty collection (order-independent), in one pass: i and
    j share a block iff they do in every partition."""
    partitions = list(partitions)
    if not partitions:
        raise ValueError("meet of an empty collection is undefined here")
    for p in partitions[1:]:
        _check_same_n(partitions[0], p)
    return Partition(zip(*(p.assignment for p in partitions)))


def _check_enumeration_size(count, what):
    # 2^(count-1) - 1 dichotomies; refuse before allocating them
    if count > MAX_VARIABLES:
        raise ValueError(
            f"{count} {what} have {2 ** (count - 1) - 1} dichotomies; enumerating "
            f"them is limited to {MAX_VARIABLES} {what}"
        )


def bipartition_masks(n):
    """Members bitmasks of all 2^(n-1) - 1 bipartitions of {1..n}, ascending.

    The bitmasks with bit 0 (element 1) set, except the full set: the odd
    numbers below 2^n - 1, as a uint64 array.  At most MAX_VARIABLES
    variables.
    """
    _check_bipartition_n(n)
    _check_enumeration_size(n, "variables")
    return np.arange(1, 2**n - 1, 2, dtype=np.uint64)


def enumerate_bipartitions(n):
    """All 2^(n-1) - 1 bipartitions of {1..n}, ascending by members bitmask."""
    return [Bipartition(n, members) for members in bipartition_masks(n).tolist()]


def block_masks(mu):
    """The bitmask of each block of mu (bit i-1 for element i), blocks
    ordered by least element."""
    out = [0] * mu.block_count
    for i, b in enumerate(mu.assignment):
        out[b] |= 1 << i
    return out


def entailed_masks(masks, mu):
    """Boolean array: which members bitmasks are dichotomies entailed by mu.

    A dichotomy is entailed exactly when it splits no block of mu, that is
    when mask & B is 0 or B for every block mask B.  Agrees with membership
    in entailed_dichotomies(mu).
    """
    masks = np.asarray(masks, dtype=np.uint64)
    entailed = np.ones(masks.shape, dtype=bool)
    for block in block_masks(mu):
        block = np.uint64(block)
        inside = masks & block
        entailed &= (inside == 0) | (inside == block)
    return entailed


def entailed_dichotomies(mu):
    """All bipartitions obtained by splitting mu's blocks into two groups.

    These are exactly the dichotomies entailed by the independence pattern
    mu; there are 2^(k-1) - 1 of them for k blocks (none when k == 1).
    Returned ascending by members bitmask.  At most MAX_VARIABLES blocks.
    """
    blocks = block_masks(mu)
    _check_enumeration_size(len(blocks), "blocks")
    out = []
    for s in range(2 ** (len(blocks) - 1) - 1):
        selector = 1 | (s << 1)
        members = 0
        for j, block in enumerate(blocks):
            if (selector >> j) & 1:
                members |= block
        out.append(Bipartition(mu.n, members))
    out.sort(key=lambda b: b.members)
    return out


def enumerate_coarsenings(mu):
    """All partitions coarser than or equal to mu (Bell(k) of them for k blocks)."""
    k = mu.block_count
    if k > 12:
        raise ValueError(f"coarsening enumeration limited to 12 blocks, got {k}")
    out = []
    for rgs in _iter_restricted_growth(k):
        out.append(Partition(rgs[b] for b in mu.assignment))
    return out


def enumerate_partitions(n):
    """All Bell(n) partitions of {1..n}, canonical, lexicographic by assignment."""
    if not 1 <= n <= 10:
        raise ValueError(f"exhaustive enumeration limited to n <= 10, got n={n}")
    return [Partition(rgs) for rgs in _iter_restricted_growth(n)]


def _iter_restricted_growth(n):
    # Lexicographic restricted-growth strings; b[j] = 1 + max(a[:j]).
    a = [0] * n
    b = [1] * n
    while True:
        yield tuple(a)
        j = n - 1
        while j >= 1 and a[j] == b[j]:
            j -= 1
        if j < 1:
            return
        a[j] += 1
        grow = b[j] + 1 if a[j] == b[j] else b[j]
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = grow


def _check_count_arg(n):
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > COUNT_LIMIT:
        raise ValueError(
            f"counting is limited to n <= {COUNT_LIMIT} to stay within 64-bit range"
        )


def bell_number(n):
    """Number of partitions of an n-element set (exact)."""
    _check_count_arg(n)
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def stirling2(n, k):
    """Number of partitions of an n-element set into exactly k blocks (exact)."""
    _check_count_arg(n)
    if k < 0 or k > n:
        return 0
    return _stirling2_exact(n, k)


@functools.lru_cache(maxsize=None)
def _stirling2_exact(n, k):
    # Unbounded helper (Python ints), also used by the uniform partition sampler.
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    if k == n or k == 1:
        return 1
    return k * _stirling2_exact(n - 1, k) + _stirling2_exact(n - 1, k - 1)


def format_partition(p):
    """Canonical text form: blocks by least element, elements ascending.

    Digit-run style ("12|3") when every index is a single digit, otherwise
    comma-separated ("1,2|3,10").
    """
    blocks = p.blocks()
    if p.n > 9:
        return "|".join(",".join(str(e) for e in b) for b in blocks)
    return "|".join("".join(str(e) for e in b) for b in blocks)


def parse_partition(text):
    """Parse the textual partition grammar.

    Blocks are separated by "|"; within a block, 1-based indices are
    separated by commas or whitespace.  A bare digit run such as "123" is
    read as the single digits 1, 2, 3 when that yields a valid partition
    (only possible for n <= 9); otherwise tokens are multi-digit numbers.
    """
    if not text or not text.strip():
        raise ValueError("empty partition string")
    token_blocks = []
    for block_text in text.strip().split("|"):
        tokens = [t for t in _TOKEN_SPLIT.split(block_text.strip()) if t]
        if not tokens:
            raise ValueError("empty block in partition string")
        for t in tokens:
            if not t.isdigit():
                raise ValueError(f"malformed token {t!r} in partition string")
        token_blocks.append(tokens)

    # Whole numbers first; the digit-run reading only exists for n <= 9, and
    # at most one of the two interpretations can form a valid partition.
    numbers = [[int(t) for t in toks] for toks in token_blocks]
    try:
        return Partition.from_blocks(numbers)
    except ValueError:
        tokens = [t for toks in token_blocks for t in toks]
        if all(len(t) == 1 for t in tokens) or any("0" in t for t in tokens):
            raise
    return Partition.from_blocks(
        [[int(ch) for t in toks for ch in t] for toks in token_blocks]
    )
