"""Composition pipeline: quadruples to T-sequences to orthogonal designs to
Hadamard matrices, plus Golay-pair machinery.

Each construction is a standard recipe paired with an unconditional verifier;
the verifier is the contract, so a sign-convention slip in a recipe is caught
immediately instead of propagating.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .seqcore import (
    KIND_BASE,
    KIND_NORMAL,
    KIND_T,
    QuadseqError,
    SeqQuadruple,
    VerificationReport,
    as_binary,
    parse_seq,
    profile_index,
    read_text,
    seq_str,
    verify_quadruple,
)


class ConstructionError(QuadseqError):
    """Invalid input to a construction."""


@dataclass(frozen=True)
class GolayPair:
    """Two binary sequences whose autocorrelations cancel at every positive lag."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", as_binary(self.a))
        object.__setattr__(self, "b", as_binary(self.b))
        if len(self.a) != len(self.b):
            raise ConstructionError("pair sequences must have equal length")

    @property
    def length(self) -> int:
        return len(self.a)

    def report(self) -> VerificationReport:
        """The verdict on the pair: a Golay pair of length g is exactly a
        base quadruple BS(g, 0)."""
        return verify_quadruple(SeqQuadruple(self.a, self.b, (), (), KIND_BASE))

    def is_valid(self) -> bool:
        return self.report().passed

    def plaintext(self) -> str:
        """The "E;F" line of the pair; parse_golay_pair reads it."""
        return f"{seq_str(self.a)};{seq_str(self.b)}"


def parse_golay_pair(text: str) -> GolayPair:
    """The pair of an "E;F" line; complementarity is not checked."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ConstructionError("expected two ';'-separated sequences")
    return GolayPair(parse_seq(parts[0]), parse_seq(parts[1]))


def golay_double(pair: GolayPair) -> GolayPair:
    """Length-doubling step: (E, F) -> (E||F, E||-F)."""
    pair.report().require(ConstructionError, "input pair's autocorrelations do not cancel")
    return GolayPair(pair.a + pair.b, pair.a + tuple(-v for v in pair.b))


def golay_search(g: int, allow_large: bool = False) -> list[GolayPair]:
    """All ordered complementary pairs of length g, in bits order (see
    seqcore.int_to_seq) of the first sequence, then of the second.

    The profile index's join on the all-zero target: the cost is 2^g table
    entries rather than 2^(2g) candidate pairs.
    """
    if g < 0:
        raise ConstructionError("length must be nonnegative")
    if g > 12 and not allow_large:
        raise ConstructionError(
            f"length {g} over search budget (pass allow_large, or --allow-large, to force)")
    [(pairs, _probes)] = profile_index(g).join(np.zeros((1, max(g - 1, 0)), dtype=np.int64))
    # bits order is descending order of the reversed sequence ('+' is 1)
    pairs.sort(key=lambda p: (p[0][::-1], p[1][::-1]), reverse=True)
    return [GolayPair(first, second) for first, second in pairs]


def _golay_exponents(n: int) -> tuple[int, int, int, int]:
    """(fives, thirteens, twos, rest) with n = 5^fives * 13^thirteens * 2^twos * rest,
    for n >= 1."""
    exponents = []
    for prime in (5, 13, 2):
        count = 0
        while n % prime == 0:
            n //= prime
            count += 1
        exponents.append(count)
    return (*exponents, n)


def is_golay_number(n: int) -> bool:
    """True iff n factors as 2^a * 10^b * 26^c with a, b, c >= 0."""
    if n < 1:
        raise ConstructionError("argument must be a positive integer")
    fives, thirteens, twos, rest = _golay_exponents(n)
    return rest == 1 and twos >= fives + thirteens


def golay_pair(g: int, seeds: list[GolayPair] | None = None) -> GolayPair:
    """A complementary pair of length g via seed pairs and doubling.

    Seeds of length 1 and 10 are built in; a length-26 seed must be supplied
    (naive search at 26 is far over budget).  Lengths needing a product of
    two nontrivial seeds (e.g. 100, 520) are refused.
    """
    if not is_golay_number(g):
        raise ConstructionError(f"{g} is not of the form 2^a*10^b*26^c")
    fives, thirteens, _twos, _rest = _golay_exponents(g)
    if fives + thirteens > 1:
        raise ConstructionError(
            f"length {g} needs a pair product; only doubling from seeds is supported"
        )
    if fives == 1:
        pair, seed_len = _seed_of_length(10, seeds), 10
    elif thirteens == 1:
        pair, seed_len = _seed_of_length(26, seeds), 26
    else:
        pair, seed_len = GolayPair((1,), (1,)), 1
    while seed_len < g:
        pair = golay_double(pair)
        seed_len *= 2
    return pair


def _seed_of_length(length: int, seeds: list[GolayPair] | None) -> GolayPair:
    for pair in seeds or ():
        if pair.length == length:
            pair.report().require(
                ConstructionError, f"length-{length} seed pair's autocorrelations do not cancel")
            return pair
    if length == 10:
        # cheap enough to derive on demand; avoids trusting a transcribed pair
        return golay_search(10)[0]
    raise ConstructionError(f"no seed pair of length {length} available")


def load_golay_seeds(path: str) -> list[GolayPair]:
    """Read "E;F" pair lines (see parse_golay_pair), verifying each on load;
    every error names its line, and a file that is not UTF-8 is refused."""
    pairs = []
    for lineno, raw in enumerate(read_text(path, ConstructionError).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pair = parse_golay_pair(line)
            pair.report().require(ConstructionError, "autocorrelations do not cancel")
        except QuadseqError as exc:
            raise ConstructionError(f"line {lineno}: {exc}") from None
        pairs.append(pair)
    return pairs


def golay_to_ns(pair: GolayPair) -> SeqQuadruple:
    """Normal quadruple of shape (g+1, g) from a complementary pair:
    A = E||(+), B = E||(-), C = D = F."""
    pair.report().require(ConstructionError, "input pair's autocorrelations do not cancel")
    quad = SeqQuadruple(pair.a + (1,), pair.a + (-1,), pair.b, pair.b, KIND_NORMAL)
    verify_quadruple(quad).require(ConstructionError, "construction failed verification")
    return quad


def bs_to_ts(q: SeqQuadruple) -> SeqQuadruple:
    """T-sequences of length m+n from base sequences of shape (m, n).

    The halves (A+B)/2 and (A-B)/2 are ternary with complementary supports,
    so padding them apart yields four sequences with disjoint covering
    supports whose autocorrelation total is half the input's.
    """
    if q.kind == KIND_T:
        raise ConstructionError("input quadruple must be binary, not ternary")
    verify_quadruple(SeqQuadruple(q.a, q.b, q.c, q.d, KIND_BASE)).require(
        ConstructionError, "input fails base verification")
    m, n = q.shape
    zeros_m, zeros_n = (0,) * m, (0,) * n
    t1 = tuple((q.a[i] + q.b[i]) // 2 for i in range(m)) + zeros_n
    t2 = tuple((q.a[i] - q.b[i]) // 2 for i in range(m)) + zeros_n
    t3 = zeros_m + tuple((q.c[i] + q.d[i]) // 2 for i in range(n))
    t4 = zeros_m + tuple((q.c[i] - q.d[i]) // 2 for i in range(n))
    out = SeqQuadruple(t1, t2, t3, t4, KIND_T)
    verify_quadruple(out).require(ConstructionError, "halving output fails T verification")
    return out


@dataclass(frozen=True, eq=False)
class SymbolicMatrix:
    """Square matrix over {0, +-x_1, ..., +-x_u}, stored as signed indices
    (+k for x_k) in `grid`, a read-only int64 copy of the array passed in."""

    order: int
    nvars: int
    grid: np.ndarray
    signature: tuple[int, ...]

    def __post_init__(self):
        try:
            grid = np.array(self.grid)
        except ValueError:  # ragged rows
            raise ConstructionError("grid does not match declared order") from None
        if grid.shape != (self.order, self.order):
            raise ConstructionError("grid does not match declared order")
        if grid.dtype.kind not in "iu":
            raise ConstructionError(f"grid entries must be integers, got {grid.dtype}")
        if len(self.signature) != self.nvars:
            raise ConstructionError("signature length must equal the variable count")
        beyond = (grid > self.nvars) | (grid < -self.nvars)
        if beyond.any():
            raise ConstructionError(f"entry {grid[beyond][0]} references variable beyond {self.nvars}")
        grid = grid.astype(np.int64, copy=False)
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    def __reduce__(self):
        # through the constructor, so a pickled or deep-copied grid is read-only again
        return SymbolicMatrix, (self.order, self.nvars, self.grid, self.signature)

    def __eq__(self, other):
        return isinstance(other, SymbolicMatrix) and np.array_equal(self.grid, other.grid) and (
            (self.order, self.nvars, self.signature) == (other.order, other.nvars, other.signature))


def ts_to_od(t: SeqQuadruple) -> SymbolicMatrix:
    """Orthogonal design of order 4n with signature (n,n,n,n) from
    T-sequences of length n.

    The four circulants have disjoint supports, so each quaternion-style
    combination below has single-variable entries; the combinations fill a
    Goethals-Seidel block array with R the back-diagonal identity.
    """
    if t.kind != KIND_T:
        raise ConstructionError(f"input quadruple has kind {t.kind!r}, need ts")
    verify_quadruple(t).require(ConstructionError, "input fails T verification")
    n = t.n
    if n == 0:
        raise ConstructionError("T-sequences of length 0 give no design")
    # row r of a circulant is its sequence cyclically shifted right by r
    shift = (np.arange(n) - np.arange(n)[:, None]) % n
    c1, c2, c3, c4 = np.array(t.seqs(), dtype=np.int64)[:, shift]
    m1 = c1 + 2 * c2 + 3 * c3 + 4 * c4
    m2 = -2 * c1 + c2 + 4 * c3 - 3 * c4
    m3 = -3 * c1 - 4 * c2 + c3 + 2 * c4
    m4 = -4 * c1 + 3 * c2 - 2 * c3 + c4
    # right-multiplying by R reverses the columns
    m2r, m3r, m4r = m2[:, ::-1], m3[:, ::-1], m4[:, ::-1]
    m2tr, m3tr, m4tr = m2.T[:, ::-1], m3.T[:, ::-1], m4.T[:, ::-1]
    block = np.block(
        [
            [m1, m2r, m3r, m4r],
            [-m2r, m1, m4tr, -m3tr],
            [-m3r, -m4tr, m1, m2tr],
            [-m4r, m3tr, -m2tr, m1],
        ]
    )
    design = SymbolicMatrix(order=4 * n, nvars=4, grid=block, signature=(n, n, n, n))
    verify_od(design).require(ConstructionError, "assembled array fails design verification")
    return design


def _exact_gram(a: np.ndarray, b: np.ndarray, peak: int) -> np.ndarray:
    """a @ b.T, exact, for integer-valued a and b whose entries are at most
    `peak` in magnitude."""
    # Every entry and partial sum of the product is an integer of magnitude
    # at most N * peak**2 (N = a.shape[-1]), and float64 holds every integer
    # below 2**53: so float64 (BLAS) is exact while N * peak**2 < 2**53, and
    # Python ints in object arrays beyond.  seqcore._npaf_array's guard.
    dtype = np.float64 if a.shape[-1] * peak * peak < 2**53 else object
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False).T


def _first_mismatch(product: np.ndarray, diagonal: int) -> tuple[int, int, int, int] | None:
    """(row, column, value, expected) of the first cell, row-major, where the
    square `product` differs from diagonal * I."""
    bad = product != 0
    # as Python objects, a float meets an int diagonal of any size exactly
    np.fill_diagonal(bad, product.diagonal().astype(object) != diagonal)
    if not bad.any():
        return None
    r, c = divmod(int(bad.argmax()), bad.shape[1])
    return r, c, int(product[r, c]), diagonal if r == c else 0


def verify_od(s: SymbolicMatrix) -> VerificationReport:
    """Exact symbolic check of S S^T = (s_1 x_1^2 + ... + s_u x_u^2) I.

    With S = C_1 x_1 + ... + C_u x_u and coefficient matrices C_k over
    {0, +-1}, x_j^2 has coefficient C_j C_j^T and x_j x_k has C_j C_k^T +
    C_k C_j^T.  For each j one exact float64 product C_j [C_j ... C_u]^T
    holds every C_j C_k^T with k >= j.  The report names the first failing
    monomial (x1^2, x1*x2, ..., xu^2) and its first failing cell, row-major.
    """
    n, u = s.order, s.nvars
    var = np.arange(1, u + 1)[:, None, None]
    coeffs = (s.grid == var).astype(np.float64)
    coeffs -= s.grid == -var
    for j in range(u):
        products = _exact_gram(coeffs[j], coeffs[j:].reshape(-1, n), 1)
        for k in range(j, u):
            block = products[:, (k - j) * n : (k - j + 1) * n]
            if k == j:
                label, product, diagonal = f"x{j + 1}^2", block, s.signature[j]
            else:
                label, product, diagonal = f"x{j + 1}*x{k + 1}", block + block.T, 0
            bad = _first_mismatch(product, diagonal)
            if bad is not None:
                failure = "monomial {} at cell ({}, {}): coefficient {}, expected {}"
                return VerificationReport(passed=False, failure=failure.format(label, *bad))
    return VerificationReport(passed=True)


def od_substitute(
    s: SymbolicMatrix, values: tuple[int, ...], require_hadamard: bool = False
) -> tuple[np.ndarray, VerificationReport]:
    """Replace each variable by an integer and verify the resulting product.

    H is int64 while the values fit in it, Python ints beyond; H H^T is
    checked exactly.  With +-1 values on a zero-free design the output is a
    Hadamard matrix of the design's order; require_hadamard insists on that.
    """
    if len(values) != s.nvars:
        raise ConstructionError(f"need {s.nvars} values, got {len(values)}")
    values = tuple(map(operator.index, values))  # TypeError for 1.5 or 1.0
    if require_hadamard:
        if np.any(s.grid == 0):
            raise ConstructionError("design has zero support")
        if any(v not in (1, -1) for v in values):
            raise ConstructionError("Hadamard substitution needs +-1 values")
    peak = max(map(abs, values), default=0)
    # table[k] = values[k-1] and table[-k] = -values[k-1], counted from the end
    table = np.array((0, *values, *(-v for v in reversed(values))),
                     dtype=np.int64 if peak < 2**63 else object)
    h = table[s.grid]
    expected = sum(int(sig) * v * v for sig, v in zip(s.signature, values))
    bad = _first_mismatch(_exact_gram(h, h, peak), expected)
    failure = None if bad is None else "product at cell ({}, {}) is {}, expected {}".format(*bad)
    return h, VerificationReport(passed=bad is None, failure=failure)


def matrix_to_text(s: SymbolicMatrix) -> str:
    """Serialize: first line 'order u', then one row per line of signed
    variable indices ('+k', '-k', '0')."""
    lines = [f"{s.order} {s.nvars}"]
    for row in s.grid.tolist():
        lines.append(" ".join("0" if v == 0 else f"{'+' if v > 0 else '-'}{abs(v)}" for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> SymbolicMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConstructionError("empty matrix text")
    try:
        order, nvars = (int(v) for v in lines[0].split())
    except ValueError:
        raise ConstructionError(f"bad header line {lines[0]!r}") from None
    if len(lines) != order + 1:
        raise ConstructionError(f"expected {order} rows, got {len(lines) - 1}")
    try:
        grid = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ConstructionError(f"bad entry: {exc}") from None
    # signature is re-derived from the first row; verify_od checks the others
    signature = tuple(sum(abs(v) == k for v in grid[0]) for k in range(1, nvars + 1)) if grid else ()
    return SymbolicMatrix(order=order, nvars=nvars, grid=grid, signature=signature)


def pm_matrix_to_text(h: np.ndarray) -> str:
    """Serialize a +-1 matrix as lines of '+'/'-' characters."""
    return "\n".join(map("".join, np.where(h > 0, "+", "-").tolist())) + "\n"
