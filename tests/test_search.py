import hashlib
import itertools
import os
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import quadseq.search as search_module
from quadseq.catalog import witness_records
from quadseq.search import (
    BudgetExhausted,
    Checkpoint,
    SearchError,
    SearchSpec,
    canonicalize,
    enumerate_cases,
    equivalence_classes,
    load_checkpoint,
    nn_orbit,
    save_checkpoint,
    search,
)
from quadseq.seqcore import (
    SeqQuadruple,
    alternate,
    negate,
    npaf_values,
    parse_quad,
    reverse,
    sum_of_squares_check,
    verify_quadruple,
)

from naive_oracle import brute_force_solutions


def plaintexts(result):
    return [q.plaintext() for q in result.solutions]


@pytest.mark.parametrize("kind,order", [
    ("nn", 0), ("nn", 1), ("nn", 2), ("nn", 3), ("nn", 4),
    ("ns", 0), ("ns", 1), ("ns", 2), ("ns", 3), ("ns", 4), ("ns", 5),
])
def test_engine_matches_brute_force_oracle(kind, order):
    got = set(plaintexts(search(SearchSpec(kind, order))))
    assert got == brute_force_solutions(kind, order)


@pytest.mark.slow
def test_engine_matches_brute_force_oracle_ns6():
    got = set(plaintexts(search(SearchSpec("ns", 6))))
    assert got == brute_force_solutions("ns", 6)


def test_odd_orders_are_searched_honestly():
    # no parity shortcut: order 1 really is populated, 3/5 really are empty
    assert search(SearchSpec("nn", 1)).count == 16
    assert search(SearchSpec("nn", 3)).count == 0
    assert search(SearchSpec("nn", 5)).count == 0


@pytest.mark.parametrize("kind,order", [("nn", 4), ("nn", 6), ("ns", 4), ("ns", 6)])
def test_prune_toggles_never_change_solutions(kind, order):
    reference = None
    for sum_prune in (True, False):
        spec = SearchSpec(kind, order, use_sum_prune=sum_prune)
        got = plaintexts(search(spec))
        if reference is None:
            reference = got
        assert got == reference


def test_every_emitted_solution_passes_verifier(solutions):
    for order in (4, 6):
        for quad in solutions("nn", order) + solutions("ns", order):
            assert verify_quadruple(quad)
            assert sum_of_squares_check(quad.m, quad.n, quad.sums())


def test_output_is_sorted_and_deterministic(solutions):
    texts = [q.plaintext() for q in solutions("nn", 6)]
    assert texts == sorted(texts)
    again = plaintexts(search(SearchSpec("nn", 6)))
    assert again == texts


def test_worker_count_does_not_change_output():
    single = plaintexts(search(SearchSpec("nn", 6)))
    multi = plaintexts(search(SearchSpec("nn", 6), workers=2))
    assert single == multi


def test_case_interleaving_does_not_change_output():
    ordered = plaintexts(search(SearchSpec("nn", 4, cases=tuple(range(1, 13)))))
    shuffled = plaintexts(search(SearchSpec("nn", 4, cases=(7, 3, 11, 1, 5, 9, 2, 12, 4, 8, 6, 10))))
    full = plaintexts(search(SearchSpec("nn", 4)))
    assert ordered == full
    assert sorted(shuffled) == sorted(full)


def test_first_mode_returns_lex_least():
    full = plaintexts(search(SearchSpec("nn", 4)))
    first = plaintexts(search(SearchSpec("nn", 4, mode="first")))
    assert first == full[:1]
    empty = search(SearchSpec("nn", 3, mode="first"))
    assert empty.count == 0 and empty.solutions == []


def test_first_mode_takes_the_first_populated_case_pass():
    # at nn 6 case 3 is empty, and the least solution of case 4 is not the
    # least overall (that one is in case 5)
    cases = (3, 4, 5)
    per_case = [plaintexts(search(SearchSpec("nn", 6, cases=(c,)))) for c in cases]
    assert per_case[0] == [] and per_case[1][0] > per_case[2][0]
    first = search(SearchSpec("nn", 6, mode="first", cases=cases))
    assert plaintexts(first) == per_case[1][:1] and first.count == 1


def test_count_mode_matches_all_mode(solutions):
    assert search(SearchSpec("nn", 6, mode="count")).count == len(solutions("nn", 6))
    assert search(SearchSpec("ns", 6, mode="count")).count == 0


def test_order_bound_refusal():
    with pytest.raises(SearchError):
        search(SearchSpec("nn", 21))
    with pytest.raises(SearchError):
        search(SearchSpec("bs", 4))
    with pytest.raises(SearchError):
        search(SearchSpec("nn", 4, mode="everything"))
    with pytest.raises(SearchError):
        search(SearchSpec("nn", 4, cases=(0,)))


def test_representatives_mode_fixes_boundary(solutions):
    reps = search(SearchSpec("nn", 4, representatives=True)).solutions
    assert reps
    for quad in reps:
        assert quad.a[0] == 1 and quad.b[0] == 1
        assert quad.a[-1] == 1 and quad.b[-1] == -1
    # symmetry breaking must not lose classes
    full_classes = {q.plaintext() for q in equivalence_classes(solutions("nn", 4))}
    rep_classes = {q.plaintext() for q in equivalence_classes(reps)}
    assert rep_classes == full_classes


def test_enumerate_cases_shape():
    cases = enumerate_cases("nn", 36)
    assert len(cases) == 12
    assert [c.case_id for c in cases] == list(range(1, 13))
    reps = [r for c in cases for r in c.sums_reps]
    assert len(reps) == len(set(reps))
    assert cases[-1].note  # order 36 has 16 orbits, so the tail is merged
    padded = enumerate_cases("nn", 10)
    assert sum(1 for c in padded if not c.sums_reps) == 5


def test_cases_partition_solution_set(solutions):
    full = {q.plaintext() for q in solutions("nn", 4)}
    per_case = []
    for case_id in range(1, 13):
        got = set(plaintexts(search(SearchSpec("nn", 4, cases=(case_id,)))))
        per_case.append(got)
    union = set().union(*per_case)
    assert union == full
    for first, second in itertools.combinations(per_case, 2):
        assert not (first & second)


def test_budget_exhaustion_and_resume_reproduce_full_run(tmp_path):
    full = plaintexts(search(SearchSpec("nn", 6)))
    spec = SearchSpec("nn", 6, node_limit=40)
    path = str(tmp_path / "run.ckpt")
    checkpoint = None
    for _round in range(10_000):
        try:
            result = search(spec, resume=checkpoint, checkpoint_path=path)
            break
        except BudgetExhausted as exc:
            checkpoint = exc.checkpoint
    else:
        pytest.fail("resume loop did not terminate")
    assert plaintexts(result) == full
    assert _round > 0  # the budget actually bit at least once


def _resumed(spec, workers, path=None):
    """Run spec to completion, resuming after every exhausted budget (through
    the checkpoint file when `path` is given); returns (result, legs)."""
    checkpoint = None
    for legs in range(1, 1000):
        try:
            return search(spec, workers=workers, resume=checkpoint, checkpoint_path=path), legs
        except BudgetExhausted as exc:
            checkpoint = load_checkpoint(path) if path else exc.checkpoint
    pytest.fail("resume loop did not terminate")


@pytest.mark.parametrize("kind", ["nn", "ns"])
def test_counters_do_not_depend_on_workers_budget_or_resume(kind, tmp_path):
    # Every surviving A is charged its sum-compatible C-profiles whether its
    # join was computed or reused, so block size, worker count and resume
    # points change neither the solutions nor a single counter.
    reference = search(SearchSpec(kind, 10))
    budgeted = SearchSpec(kind, 10, node_limit=reference.stats.nodes // 5)
    runs = {
        "workers=2": (search(SearchSpec(kind, 10), workers=2), 1),
        "budget, workers=1": _resumed(budgeted, 1),
        "budget, workers=2, file": _resumed(budgeted, 2, str(tmp_path / "run.ckpt")),
    }
    for name, (result, legs) in runs.items():
        assert plaintexts(result) == plaintexts(reference), name
        assert result.count == reference.count, name
        assert result.stats.nodes == reference.stats.nodes, name
        assert result.stats.prunes == reference.stats.prunes, name
    assert runs["budget, workers=1"][1] > 1
    assert runs["budget, workers=2, file"][1] > 1


@pytest.mark.parametrize("kind,order", [("nn", 4), ("ns", 4)])
def test_join_without_sum_prune_matches_brute_force_oracle(kind, order):
    # with the sum prune off, A's of inadmissible sums reach the join, and
    # the join's own sum index must find nothing for them
    spec = SearchSpec(kind, order, use_sum_prune=False)
    assert set(plaintexts(search(spec))) == brute_force_solutions(kind, order)


def test_join_probes_only_sum_compatible_profiles():
    from quadseq.search import _join
    from quadseq.seqcore import profile_index

    n = 8
    index = profile_index(n)
    squares = frozenset(v * v for v in range(0, n + 1, 2))
    c, d = (1, 1, -1, 1, 1, 1, -1, -1), (1, -1, -1, -1, 1, 1, 1, 1)
    target = tuple(u + v for u, v in zip(npaf_values(c)[1:], npaf_values(d)[1:]))
    residual = 2 * n + 2 * sum(target)
    groups, probes = _join(target, index, squares)
    compatible = [p for p in index.groups if residual - (n + 2 * sum(p)) in squares]
    assert probes == len(compatible) < len(index.groups)
    expected = {
        (c_seq, d_seq) for p in index.groups for c_seq in index.groups[p]
        for d_seq in index.groups.get(tuple(t - v for t, v in zip(target, p)), ())
    }
    got = [pair for _rep, pairs in groups for pair in pairs]
    assert (c, d) in expected and len(got) == len(expected) and set(got) == expected
    for (high, low), pairs in groups:
        for c_seq, d_seq in pairs:
            c_abs, d_abs = abs(sum(c_seq)), abs(sum(d_seq))
            assert (high, low) == (max(c_abs, d_abs), min(c_abs, d_abs))


def test_checkpoint_file_round_trip(tmp_path):
    spec = SearchSpec("nn", 4, node_limit=10)
    path = str(tmp_path / "ck.txt")
    with pytest.raises(BudgetExhausted) as info:
        search(spec, checkpoint_path=path)
    loaded = load_checkpoint(path)
    assert loaded == info.value.checkpoint
    save_checkpoint(loaded, path)
    assert load_checkpoint(path) == loaded
    with pytest.raises(SearchError):
        search(SearchSpec("nn", 6), resume=loaded)
    # the cursor of the older format counts long sequences in another order
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert f"frame lex-next {loaded.lex_next}\n" in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("frame lex-next", "frame a-next"))
    with pytest.raises(SearchError, match="older a-next format"):
        load_checkpoint(path)


def _budgeted_checkpoint_file(tmp_path, spec):
    path = str(tmp_path / "run.ckpt")
    with pytest.raises(BudgetExhausted):
        search(spec, checkpoint_path=path)
    return path


def test_torn_checkpoint_is_rejected(tmp_path):
    # a file that lost its last solution lines must not resume to a run that
    # counts them but no longer returns them
    path = _budgeted_checkpoint_file(tmp_path, SearchSpec("nn", 8, node_limit=6000))
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert sum(line.startswith("sol ") for line in lines) > 3
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-3])
    with pytest.raises(SearchError, match="damaged checkpoint"):
        load_checkpoint(path)


def test_checkpoint_write_replaces_the_file_in_one_step(tmp_path, monkeypatch):
    path = _budgeted_checkpoint_file(tmp_path, SearchSpec("nn", 6, node_limit=40))
    with open(path, encoding="utf-8") as fh:
        before = fh.read()
    checkpoint = load_checkpoint(path)
    checkpoint.nodes += 1

    def crash(src, dst):
        raise OSError("crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        save_checkpoint(checkpoint, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == before


def test_checkpoint_with_a_retired_prune_counter_still_resumes(tmp_path):
    # files written before the partial-lag prune was removed carry a
    # `prune partial_lag 0` line
    spec = SearchSpec("nn", 8, node_limit=6000)
    path = _budgeted_checkpoint_file(tmp_path, spec)
    checkpoint = load_checkpoint(path)
    checkpoint.prunes["partial_lag"] = 0
    save_checkpoint(checkpoint, path)
    with open(path, encoding="utf-8") as fh:
        assert "prune partial_lag 0\n" in fh.read()
    result, _legs = _resumed(spec, 1, path)
    assert plaintexts(result) == plaintexts(search(SearchSpec("nn", 8)))
    assert set(result.stats.prunes) == {"sum_of_squares", "case"}


@pytest.mark.parametrize("workers", [1, 2])
def test_budgeted_first_mode_returns_lex_least(workers, solutions):
    # neither the solution nor the node count of first mode depends on the
    # worker count or on a budget, large or small
    full = [q.plaintext() for q in solutions("nn", 12)]
    unbudgeted = search(SearchSpec("nn", 12, mode="first"), workers=workers)
    runs = [
        unbudgeted,
        search(SearchSpec("nn", 12, mode="first", node_limit=10**9), workers=workers),
        _resumed(SearchSpec("nn", 12, mode="first", node_limit=20_000), workers)[0],
    ]
    for result in runs:
        assert plaintexts(result) == full[:1]
        assert result.count == 1
        assert result.stats.nodes == unbudgeted.stats.nodes


def test_budget_stops_every_worker_count_at_the_same_block(tmp_path, monkeypatch):
    # a budgeted pool used to scan its whole queue of blocks before raising
    log = tmp_path / "blocks.log"
    scan = search_module._scan_block

    def logged_scan(plan, memo, bounds):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{bounds[0]}\n")
        return scan(plan, memo, bounds)

    monkeypatch.setattr(search_module, "_scan_block", logged_scan)
    spec = SearchSpec("nn", 12, node_limit=1000)
    checkpoints = {}
    for workers in (1, 2):
        log.write_text("")
        with pytest.raises(BudgetExhausted) as info:
            search(spec, workers=workers)
        checkpoints[workers] = info.value.checkpoint
        scanned = len(log.read_text().splitlines())
        assert scanned < 92 // 4, workers  # nn 12 has 92 blocks of 90 long sequences
    assert checkpoints[1] == checkpoints[2]
    assert checkpoints[1].nodes < 20_000 and checkpoints[1].lex_next == 90


def test_orbit_contains_input_and_preserves_membership(solutions):
    quad = solutions("nn", 4)[0]
    orbit = nn_orbit(quad)
    assert quad in orbit
    members = {q.plaintext() for q in solutions("nn", 4)}
    assert {q.plaintext() for q in orbit} <= members


def test_orbits_partition(solutions):
    sols = solutions("nn", 2)
    orbits = {}
    for quad in sols:
        orbits[quad.plaintext()] = frozenset(q.plaintext() for q in nn_orbit(quad))
    distinct = set(orbits.values())
    for first, second in itertools.combinations(distinct, 2):
        assert not (first & second)
    assert set().union(*distinct) == {q.plaintext() for q in sols}


def test_orbit_rejects_non_members():
    with pytest.raises(SearchError):
        nn_orbit(parse_quad("+++;+--;++;++", "nn"))
    # a T-sequence quadruple verifies, but its plaintext order is not the flat tuple order
    with pytest.raises(SearchError, match="binary"):
        nn_orbit(parse_quad("+0;00;0+;00", "ts"))


def test_canonicalize_idempotent_and_orbit_constant(solutions):
    quad = solutions("nn", 4)[-1]
    canon = canonicalize(quad)
    assert canonicalize(canon) == canon
    for member in nn_orbit(quad):
        assert canonicalize(member) == canon


def test_classes_of_different_shapes_stay_apart():
    # both flat tuples A||B||C||D are (1, 1)
    quads = [parse_quad("+;+;;", "bs"), parse_quad(";;+;+", "bs")]
    assert equivalence_classes(quads) == quads


def test_single_class_at_order_two(solutions):
    assert len(equivalence_classes(solutions("nn", 2))) == 1


def test_orbit_of_published_row():
    from quadseq.codec import parse_record
    from published import ROW36_RECORD

    quad = parse_record(ROW36_RECORD)
    orbit = nn_orbit(quad)
    assert quad in orbit
    for member in orbit:
        assert verify_quadruple(member).passed
    canon = canonicalize(quad)
    assert canonicalize(canon) == canon
    assert canon in orbit


def _odd_interior(op):
    # op applied to the 1-based odd positions below the top entry
    def move(seq):
        moved = list(seq)
        moved[: len(seq) - 1 : 2] = op(seq[: len(seq) - 1 : 2])
        return tuple(moved)
    return move


# the generators written on the four sequences, the reference for the signed maps
_GENERATORS = {
    "NegateAB": lambda a, b, c, d: (negate(a), negate(b), c, d),
    "NegateC": lambda a, b, c, d: (a, b, negate(c), d),
    "NegateD": lambda a, b, c, d: (a, b, c, negate(d)),
    "SwapCD": lambda a, b, c, d: (a, b, d, c),
    "ReverseC": lambda a, b, c, d: (a, b, reverse(c), d),
    "ReverseD": lambda a, b, c, d: (a, b, c, reverse(d)),
    "AlternateAll": lambda a, b, c, d: (alternate(a), alternate(b), alternate(c), alternate(d)),
    "SwapAB": lambda a, b, c, d: (b, a, c, d),
    "ReverseOddInterior": lambda a, b, c, d: (*map(_odd_interior(reverse), (a, b)), c, d),
    "NegateOddInterior": lambda a, b, c, d: (*map(_odd_interior(negate), (a, b)), c, d),
}


def test_every_generator_preserves_membership(solutions):
    for order in (2, 4, 6):
        members = {q.plaintext() for q in solutions("nn", order)}
        for quad in solutions("nn", order):
            flat = quad.a + quad.b + quad.c + quad.d
            m, n = quad.shape
            maps = search_module._signed_maps(m, n)
            assert [name for name, _source, _sign in maps] == list(_GENERATORS)
            for name, source, sign in maps:
                image = tuple(s * flat[i] for s, i in zip(sign, source))
                seqs = (image[:m], image[m : 2 * m], image[2 * m : 2 * m + n], image[2 * m + n :])
                assert seqs == _GENERATORS[name](*quad.seqs()), name
                assert SeqQuadruple(*seqs, "nn").plaintext() in members, name


# sha256 of the newline-joined sorted plaintexts of each witness orbit, in
# witness_records() order
WITNESS_ORBIT_SHA256 = (
    "b9f67eae6422dc2702d8c42c6f65037af52f63b9d1d0c43fd6739095dce1c5c0",
    "f1b5b5ddbeb38100f8a89299f30f684995aa4d7db51d45e391c776911331b209",
    "fbb83dc6c678596b4b7e03bac7b09b8807f0c9372b8bda58a40fe56c2c653a40",
    "f54486b6068d13b6e9c4e9e90e6bba1e565591168a6bd907e3a2fa40d29f3dd7",
    "cb7362b5fdcb9f6a4e78533c9275bdca99f38a30808b2d2f0240e0804d376105",
    "63aa94910ab7884a731ef005946961df681bbd357a42e9a4c4db87732edc301d",
)


@cache
def _witness_orbit(index):
    """Plaintext-sorted orbit of one witness record."""
    return tuple(sorted(nn_orbit(witness_records()[index].quad), key=SeqQuadruple.plaintext))


def test_witness_orbits_are_pinned():
    for index, expected in enumerate(WITNESS_ORBIT_SHA256):
        texts = [q.plaintext() for q in _witness_orbit(index)]
        assert len(texts) == 512
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(WITNESS_ORBIT_SHA256) - 1), st.integers(0, 511))
def test_any_witness_orbit_member_has_the_same_orbit_and_canonical_form(index, position):
    orbit = _witness_orbit(index)
    member = orbit[position]
    assert tuple(sorted(nn_orbit(member), key=SeqQuadruple.plaintext)) == orbit
    assert canonicalize(member) == orbit[0]


def test_canonical_form_is_the_plaintext_least_orbit_member(solutions):
    least = {}  # member -> plaintext-least member of its orbit
    for order in range(0, 9):
        for quad in solutions("nn", order):
            if quad not in least:
                orbit = nn_orbit(quad)
                least.update(dict.fromkeys(orbit, min(orbit, key=SeqQuadruple.plaintext)))
            assert canonicalize(quad) == least[quad]
        classes = {least[quad] for quad in solutions("nn", order)}
        assert equivalence_classes(solutions("nn", order)) == sorted(classes, key=SeqQuadruple.plaintext)


def test_alternation_flips_lag_signs():
    # the simultaneous alternation scales every lag-j total by (-1)^j, which
    # is why it must touch all four sequences at once
    quad = parse_quad("+-++;+++-;-++;+-+", "bs")
    base = [sum(npaf_values(s)[j] if j < len(s) else 0 for s in quad.seqs())
            for j in range(1, 4)]
    flipped_quad = [alternate(s) for s in quad.seqs()]
    flipped = [sum(npaf_values(s)[j] if j < len(s) else 0 for s in flipped_quad)
               for j in range(1, 4)]
    assert flipped == [(-1) ** j * v for j, v in zip(range(1, 4), base)]


def test_search_stats_populated():
    result = search(SearchSpec("nn", 4))
    assert result.stats.nodes > 0
    assert set(result.stats.prunes) == {"sum_of_squares", "case"}
    assert result.stats.elapsed >= 0.0


def test_pool_workers_inherit_the_parents_profile_index(monkeypatch):
    # the parent builds the index before the pool forks, so no worker builds its own
    from quadseq import seqcore
    monkeypatch.setattr(seqcore, "_PROFILE_INDEXES", {})
    search(SearchSpec("nn", 6), workers=2)
    assert 6 in seqcore._PROFILE_INDEXES
