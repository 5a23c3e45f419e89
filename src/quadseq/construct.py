"""Composition pipeline: quadruples to T-sequences to orthogonal designs to
Hadamard matrices, plus Golay-pair machinery.

Each construction is a standard recipe paired with an unconditional verifier;
the verifier is the contract, so a sign-convention slip in a recipe is caught
immediately instead of propagating.
"""

from concurrent.futures import ThreadPoolExecutor
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
    npaf_values,
    parse_seq,
    profile_index,
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

    def is_valid(self) -> bool:
        pa, pb = npaf_values(self.a), npaf_values(self.b)
        return all(pa[j] + pb[j] == 0 for j in range(1, self.length))


def _require_valid(pair: GolayPair) -> None:
    if not pair.is_valid():
        raise ConstructionError("autocorrelations do not cancel at positive lags")


def golay_double(pair: GolayPair) -> GolayPair:
    """Length-doubling step: (E, F) -> (E||F, E||-F)."""
    _require_valid(pair)
    return GolayPair(pair.a + pair.b, pair.a + tuple(-v for v in pair.b))


def golay_search(g: int, allow_large: bool = False) -> list[GolayPair]:
    """All ordered complementary pairs of length g, deterministic order.

    Hash-joins the two sides on their positive-lag profiles, so the cost is
    2^g table entries rather than 2^(2g) candidate pairs.
    """
    if g < 0:
        raise ConstructionError("length must be nonnegative")
    if g > 12 and not allow_large:
        raise ConstructionError(f"length {g} over search budget (pass allow_large to force)")
    if g == 0:
        return [GolayPair((), ())]
    index = profile_index(g)
    pairs = []
    for first, profile in zip(index.seqs, index.profiles):
        want = tuple(-v for v in profile)
        for second in index.groups.get(want, ()):
            pairs.append(GolayPair(first, second))
    return pairs


def is_golay_number(n: int) -> bool:
    """True iff n factors as 2^a * 10^b * 26^c with a, b, c >= 0."""
    if n < 1:
        raise ConstructionError("argument must be a positive integer")
    fives = thirteens = twos = 0
    while n % 5 == 0:
        n //= 5
        fives += 1
    while n % 13 == 0:
        n //= 13
        thirteens += 1
    while n % 2 == 0:
        n //= 2
        twos += 1
    return n == 1 and twos >= fives + thirteens


def golay_pair(g: int, seeds: list[GolayPair] | None = None) -> GolayPair:
    """A complementary pair of length g via seed pairs and doubling.

    Seeds of length 1 and 10 are built in; a length-26 seed must be supplied
    (naive search at 26 is far over budget).  Lengths needing a product of
    two nontrivial seeds (e.g. 100, 520) are refused.
    """
    if not is_golay_number(g):
        raise ConstructionError(f"{g} is not of the form 2^a*10^b*26^c")
    fives = thirteens = 0
    reduced = g
    while reduced % 5 == 0:
        reduced //= 5
        fives += 1
    while reduced % 13 == 0:
        reduced //= 13
        thirteens += 1
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
            _require_valid(pair)
            return pair
    if length == 10:
        # cheap enough to derive on demand; avoids trusting a transcribed pair
        return golay_search(10)[0]
    raise ConstructionError(f"no seed pair of length {length} available")


def load_golay_seeds(path: str) -> list[GolayPair]:
    """Read 'E;F' plaintext pairs, one per line, verifying each on load."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(";")
            if len(parts) != 2:
                raise ConstructionError(f"line {lineno}: expected two ';'-separated sequences")
            pair = GolayPair(parse_seq(parts[0]), parse_seq(parts[1]))
            if not pair.is_valid():
                raise ConstructionError(f"line {lineno}: pair fails the complementarity check")
            pairs.append(pair)
    return pairs


def golay_to_ns(pair: GolayPair) -> SeqQuadruple:
    """Normal quadruple of shape (g+1, g) from a complementary pair:
    A = E||(+), B = E||(-), C = D = F."""
    _require_valid(pair)
    quad = SeqQuadruple(
        pair.a + (1,), pair.a + (-1,), pair.b, pair.b, KIND_NORMAL
    )
    report = verify_quadruple(quad)
    if not report:
        raise ConstructionError(f"construction failed verification: {report.failure}")
    return quad


def bs_to_ts(q: SeqQuadruple) -> SeqQuadruple:
    """T-sequences of length m+n from base sequences of shape (m, n).

    The halves (A+B)/2 and (A-B)/2 are ternary with complementary supports,
    so padding them apart yields four sequences with disjoint covering
    supports whose autocorrelation total is half the input's.
    """
    if q.kind == KIND_T:
        raise ConstructionError("input quadruple must be binary, not ternary")
    report = verify_quadruple(SeqQuadruple(q.a, q.b, q.c, q.d, KIND_BASE))
    if not report:
        raise ConstructionError(f"input fails base verification: {report.failure}")
    m, n = q.shape
    zeros_m, zeros_n = (0,) * m, (0,) * n
    t1 = tuple((q.a[i] + q.b[i]) // 2 for i in range(m)) + zeros_n
    t2 = tuple((q.a[i] - q.b[i]) // 2 for i in range(m)) + zeros_n
    t3 = zeros_m + tuple((q.c[i] + q.d[i]) // 2 for i in range(n))
    t4 = zeros_m + tuple((q.c[i] - q.d[i]) // 2 for i in range(n))
    out = SeqQuadruple(t1, t2, t3, t4, KIND_T)
    check = verify_quadruple(out)
    if not check:
        raise ConstructionError(f"halving output fails T verification: {check.failure}")
    return out


@dataclass(frozen=True)
class SymbolicMatrix:
    """Square matrix over {0, +-x_1, ..., +-x_u}, stored as signed indices."""

    order: int
    nvars: int
    grid: tuple[tuple[int, ...], ...]
    signature: tuple[int, ...]

    def __post_init__(self):
        if len(self.grid) != self.order or any(len(r) != self.order for r in self.grid):
            raise ConstructionError("grid does not match declared order")
        if len(self.signature) != self.nvars:
            raise ConstructionError("signature length must equal the variable count")
        for row in self.grid:
            for v in row:
                if abs(v) > self.nvars:
                    raise ConstructionError(f"entry {v} references variable beyond {self.nvars}")

    def coefficient_matrix(self, var: int) -> np.ndarray:
        """Integer matrix of the coefficients of variable `var` (1-based)."""
        g = np.array(self.grid, dtype=np.int64)
        return ((g == var).astype(np.int64) - (g == -var).astype(np.int64))


def _circulant(seq) -> list[list[int]]:
    # row r is the sequence cyclically shifted right by r
    n = len(seq)
    return [[seq[(c - r) % n] for c in range(n)] for r in range(n)]


def ts_to_od(t: SeqQuadruple) -> SymbolicMatrix:
    """Orthogonal design of order 4n with signature (n,n,n,n) from
    T-sequences of length n.

    The four circulants have disjoint supports, so each quaternion-style
    combination below has single-variable entries; the combinations fill a
    Goethals-Seidel block array with R the back-diagonal identity.
    """
    if t.kind != KIND_T:
        raise ConstructionError(f"input quadruple has kind {t.kind!r}, need ts")
    report = verify_quadruple(t)
    if not report:
        raise ConstructionError(f"input fails T verification: {report.failure}")
    n = t.n
    circulants = [np.array(_circulant(s), dtype=np.int64) for s in t.seqs()]
    c1, c2, c3, c4 = circulants
    m1 = _combine(n, (1, c1), (2, c2), (3, c3), (4, c4))
    m2 = _combine(n, (-2, c1), (1, c2), (4, c3), (-3, c4))
    m3 = _combine(n, (-3, c1), (-4, c2), (1, c3), (2, c4))
    m4 = _combine(n, (-4, c1), (3, c2), (-2, c3), (1, c4))
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
    design = SymbolicMatrix(
        order=4 * n,
        nvars=4,
        grid=tuple(tuple(int(v) for v in row) for row in block),
        signature=(n, n, n, n),
    )
    check = verify_od(design)
    if not check:
        raise ConstructionError(f"assembled array fails design verification: {check.failure}")
    return design


def _combine(n, *terms) -> np.ndarray:
    """Sum of signed-variable multiples of disjoint-support circulants,
    stored as signed variable indices."""
    out = np.zeros((n, n), dtype=np.int64)
    for coeff, mat in terms:
        var = abs(coeff)
        sign = 1 if coeff > 0 else -1
        out += var * sign * mat  # mat entries in {-1,0,1}; disjoint supports
    return out


def verify_od(s: SymbolicMatrix) -> VerificationReport:
    """Exact symbolic check of S S^T = (s_1 x_1^2 + ... + s_u x_u^2) I.

    Expands the product per monomial x_j x_k with integer coefficient
    matrices; monomials are checked in a thread pool (the matrix products
    share nothing and numpy releases the GIL), and the first failing cell
    and monomial in canonical order are named in the report.
    """
    coeffs = [s.coefficient_matrix(k) for k in range(1, s.nvars + 1)]
    eye = np.eye(s.order, dtype=np.int64)

    def check(j: int, k: int) -> str | None:
        if j == k:
            product = coeffs[j] @ coeffs[j].T
            target = s.signature[j] * eye
            label = f"x{j + 1}^2"
        else:
            product = coeffs[j] @ coeffs[k].T + coeffs[k] @ coeffs[j].T
            target = np.zeros_like(eye)
            label = f"x{j + 1}*x{k + 1}"
        if np.array_equal(product, target):
            return None
        bad = np.argwhere(product != target)[0]
        r, c = int(bad[0]), int(bad[1])
        return (
            f"monomial {label} at cell ({r}, {c}): "
            f"coefficient {int(product[r, c])}, expected {int(target[r, c])}"
        )

    monomials = [(j, k) for j in range(s.nvars) for k in range(j, s.nvars)]
    if not monomials:
        return VerificationReport(passed=True)
    with ThreadPoolExecutor(max_workers=min(4, len(monomials))) as pool:
        failures = list(pool.map(lambda jk: check(*jk), monomials))
    for failure in failures:
        if failure is not None:
            return VerificationReport(passed=False, failure=failure)
    return VerificationReport(passed=True)


def od_substitute(
    s: SymbolicMatrix, values: tuple[int, ...], require_hadamard: bool = False
) -> tuple[np.ndarray, VerificationReport]:
    """Replace each variable by an integer and verify the resulting product.

    With +-1 values on a zero-free design the output is a Hadamard matrix of
    the design's order; require_hadamard insists on that situation.
    """
    if len(values) != s.nvars:
        raise ConstructionError(f"need {s.nvars} values, got {len(values)}")
    grid = np.array(s.grid, dtype=np.int64)
    if require_hadamard:
        if np.any(grid == 0):
            raise ConstructionError("design has zero support")
        if any(v not in (1, -1) for v in values):
            raise ConstructionError("Hadamard substitution needs +-1 values")
    h = np.zeros_like(grid)
    for k in range(1, s.nvars + 1):
        h += values[k - 1] * s.coefficient_matrix(k)
    expected = sum(s.signature[k] * values[k] ** 2 for k in range(s.nvars))
    product = h @ h.T
    target = expected * np.eye(s.order, dtype=np.int64)
    if np.array_equal(product, target):
        report = VerificationReport(passed=True)
    else:
        bad = np.argwhere(product != target)[0]
        r, c = int(bad[0]), int(bad[1])
        report = VerificationReport(
            passed=False,
            failure=f"product at cell ({r}, {c}) is {int(product[r, c])}, expected {int(target[r, c])}",
        )
    return h, report


def matrix_to_text(s: SymbolicMatrix) -> str:
    """Serialize: first line 'order u', then one row per line of signed
    variable indices ('+k', '-k', '0')."""
    lines = [f"{s.order} {s.nvars}"]
    for row in s.grid:
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
    grid = []
    for ln in lines[1:]:
        row = []
        for tok in ln.split():
            try:
                row.append(int(tok))
            except ValueError:
                raise ConstructionError(f"bad entry {tok!r}") from None
        grid.append(tuple(row))
    # signature is re-derived: count of each variable per row must be constant
    g = np.array(grid, dtype=np.int64)
    signature = tuple(int(np.count_nonzero(np.abs(g[0]) == k)) for k in range(1, nvars + 1))
    return SymbolicMatrix(order=order, nvars=nvars, grid=tuple(grid), signature=signature)


def pm_matrix_to_text(h: np.ndarray) -> str:
    """Serialize a +-1 matrix as lines of '+'/'-' characters."""
    return "\n".join("".join("+" if v > 0 else "-" for v in row) for row in h) + "\n"
