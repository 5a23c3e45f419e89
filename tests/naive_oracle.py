"""Independent brute-force oracles, deliberately dumber than the library.

These enumerate raw sign assignments and decide membership through the
public verifier (or, for the norm identity, through literal polynomial
multiplication), so they share no code path with the search engine's
profile tables and hash join.  Autocorrelations here come from the defining
double sum, never from the library's numpy kernel, and the design and
Hadamard products from loops over Python ints, never from numpy.  The one
exception is profile_groups, the reference for the profile index's layout:
it groups int_to_seq's sequences one by one by npaf_values, whose exactness
is checked against npaf_double_sum on its own.
"""

import itertools
from functools import cache

from quadseq.seqcore import SeqQuadruple, int_to_seq, npaf_values, verify_quadruple


def all_signs(length):
    return itertools.product((1, -1), repeat=length)


def npaf_double_sum(seq):
    """Autocorrelations at lags 0..len-1 by the defining double sum, in
    Python ints; (0,) for the empty sequence."""
    n = len(seq)
    if n == 0:
        return (0,)
    return tuple(sum(seq[i] * seq[i + j] for i in range(n - j)) for j in range(n))


@cache
def profile_groups(length):
    """The binary sequences of `length` grouped by positive-lag profile: a
    dict from each profile to its sequences in bits order (see int_to_seq),
    the profiles in the bits order of their first sequences."""
    groups = {}
    for bits in range(1 << length):
        seq = int_to_seq(bits, length)
        groups.setdefault(npaf_values(seq)[1:], []).append(seq)
    return groups


@cache
def square_sum_buckets(length):
    """profile_groups(length) as (profile, sequences) items in buckets by
    their squared sum, length + 2 * sum(profile): a dict from each squared
    sum to its bucket, in the order of the buckets' first profiles."""
    buckets = {}
    for profile, seqs in profile_groups(length).items():
        buckets.setdefault(length + 2 * sum(profile), []).append((profile, seqs))
    return buckets


def laurent_norm(seq):
    """Coefficient dict of X(z) * X(1/z) by direct double loop."""
    coeffs = {}
    for i, xi in enumerate(seq):
        for k, xk in enumerate(seq):
            key = i - k
            coeffs[key] = coeffs.get(key, 0) + xi * xk
    return {k: v for k, v in coeffs.items() if v}


def quadruple_norm_total(seqs):
    total = {}
    for seq in seqs:
        for k, v in laurent_norm(seq).items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


def brute_force_solutions(kind, n):
    """Every (A;B;C;D) of shape (n+1, n) of the given kind, as plaintexts.

    B's first n entries follow from the defining pattern, but its last entry
    is enumerated freely; everything else is left to the verifier.
    """
    out = set()
    for a_bits in all_signs(n + 1):
        body = tuple(
            v if (kind == "ns" or i % 2 == 0) else -v
            for i, v in enumerate(a_bits[:n])
        )
        for b_last in (1, -1):
            b_bits = body + (b_last,)
            for c_bits in all_signs(n):
                for d_bits in all_signs(n):
                    quad = SeqQuadruple(a_bits, b_bits, c_bits, d_bits, kind)
                    if verify_quadruple(quad):
                        out.add(quad.plaintext())
    return out


def brute_force_golay(g):
    """All ordered complementary pairs of length g by definition check."""
    pairs = []
    for e in all_signs(g):
        pe = npaf_double_sum(e)
        for f in all_signs(g):
            pf = npaf_double_sum(f)
            if all(pe[j] + pf[j] == 0 for j in range(1, g)):
                pairs.append((e, f))
    return pairs


def design_failure(grid, signature):
    """verify_od's verdict by literal expansion: None when S S^T equals
    (s_1 x_1^2 + ... + s_u x_u^2) I, else the first failing monomial and cell
    worded as verify_od words them.  Cell (r, c) of S S^T is the sum of the
    products S[r][i] * S[c][i], each expanded term by term in Python ints."""
    n, u = len(grid), len(signature)
    coeffs = {}
    for r in range(n):
        for c in range(n):
            for a, b in zip(grid[r], grid[c]):
                if a and b:
                    key = (r, c, min(abs(a), abs(b)), max(abs(a), abs(b)))
                    coeffs[key] = coeffs.get(key, 0) + (1 if (a > 0) == (b > 0) else -1)
    for j in range(1, u + 1):
        for k in range(j, u + 1):
            label = f"x{j}^2" if j == k else f"x{j}*x{k}"
            for r in range(n):
                for c in range(n):
                    got = coeffs.get((r, c, j, k), 0)
                    want = signature[j - 1] if j == k and r == c else 0
                    if got != want:
                        return f"monomial {label} at cell ({r}, {c}): coefficient {got}, expected {want}"
    return None


def substitute(grid, values):
    """The grid with each +-k replaced by +-values[k-1], as lists of ints."""
    return [[0 if v == 0 else (1 if v > 0 else -1) * values[abs(v) - 1] for v in row] for row in grid]


def substitution_failure(grid, signature, values):
    """od_substitute's verdict on H H^T by a triple loop in Python ints."""
    h = substitute(grid, values)
    n = len(h)
    expected = sum(s * v * v for s, v in zip(signature, values))
    for r in range(n):
        for c in range(n):
            got = sum(h[r][i] * h[c][i] for i in range(n))
            want = expected if r == c else 0
            if got != want:
                return f"product at cell ({r}, {c}) is {got}, expected {want}"
    return None
