"""Tests for the decomposition-atom lattice and its duality."""

import pickle
import time
from dataclasses import FrozenInstanceError
from itertools import combinations

import numpy as np
import pytest

from entroconj import (
    JointDistribution,
    MonotoneBooleanFunction,
    antichain_to_bf,
    bf_to_antichain,
    cmi_atom_set,
    dual,
    enumerate_atoms,
    mask_members,
    reference_pid,
    verify_theorem1_sets,
)
from entroconj import pid

from helpers import (
    atom_leq,
    copy_triple,
    oracle_antichain,
    oracle_antichain_table,
    oracle_atoms,
    oracle_dual,
    oracle_reference_pid,
    oracle_table,
    oracle_table_error,
    outside_dual,
    pid_conjugate_check,
    random_distribution,
    swapped_dual,
    xor_triple,
)

TOL = 1e-9


def brute_force_atoms(n: int) -> set[int]:
    """Oracle: scan every truth table for monotone nonconstant ones."""
    return {bits for bits in range(1 << (1 << n)) if oracle_table_error(n, bits) is None}


def constructor_error(n: int, bits: int) -> str | None:
    try:
        MonotoneBooleanFunction(n, bits)
    except ValueError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_atom_counts():
    assert len(enumerate_atoms(1)) == 1
    assert len(enumerate_atoms(2)) == 4
    assert len(enumerate_atoms(3)) == 18
    assert len(enumerate_atoms(4)) == 166


def test_atom_count_n5():
    assert len(enumerate_atoms(5)) == 7579


def test_enumeration_matches_brute_force():
    for n in (1, 2, 3, 4):
        assert {f.bits for f in enumerate_atoms(n)} == brute_force_atoms(n)


def test_enumeration_is_sorted_and_deduplicated():
    for n in (1, 2, 3, 4, 5):
        tables = [f.table() for f in enumerate_atoms(n)]
        assert tables == sorted(tables)
        assert len(set(tables)) == len(tables)


def test_enumeration_matches_the_depth_first_oracle():
    for n in (1, 2, 3, 4, 5):
        assert [f.bits for f in enumerate_atoms(n)] == oracle_atoms(n)


def test_packed_operations_match_their_oracles():
    for n in (1, 2, 3, 4, 5):
        for f in enumerate_atoms(n):
            assert f.table() == oracle_table(n, f.bits)
            assert dual(f).bits == oracle_dual(n, f.bits)
            antichain = oracle_antichain(n, f.bits)
            assert bf_to_antichain(f) == antichain
            assert antichain_to_bf(antichain, n).bits == oracle_antichain_table(n, antichain) == f.bits


def test_constructor_matches_the_oracle_on_every_n4_table():
    for bits in range(-1, (1 << 16) + 1):
        assert constructor_error(4, bits) == oracle_table_error(4, bits), bits


def test_constructor_matches_the_oracle_on_random_n5_tables():
    rng = np.random.default_rng(5)
    atoms = [f.bits for f in enumerate_atoms(5)]
    # random tables are almost never monotone, so also flip one bit of an atom
    picks = zip(rng.integers(0, len(atoms), 5000), rng.integers(0, 32, 5000))
    near = [atoms[i] ^ (1 << int(m)) for i, m in picks]
    random = [int(x) for x in rng.integers(0, 1 << 32, 20000, dtype=np.uint64)]
    for bits in near + random + [-1, 0, (1 << 32) - 1, 1 << 32]:
        assert constructor_error(5, bits) == oracle_table_error(5, bits), bits
    for n in (0, 11, -3):
        assert constructor_error(n, 1) == oracle_table_error(n, 1)


def test_enumerated_atoms_are_the_constructed_atoms():
    for n in (1, 2, 3, 4, 5):
        for f in enumerate_atoms(n):
            g = MonotoneBooleanFunction(n, f.bits)
            assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
            assert type(f.n) is int and type(f.bits) is int


def test_enumerated_atoms_stay_frozen_and_pickle():
    for f in enumerate_atoms(3):
        with pytest.raises(FrozenInstanceError):
            f.bits = 1
        with pytest.raises(FrozenInstanceError):
            f.n = 2
        assert pickle.loads(pickle.dumps(f)) == f


@pytest.fixture
def fresh_enumeration():
    enumerate_atoms.cache_clear()
    yield
    enumerate_atoms.cache_clear()


@pytest.mark.parametrize("row", [0b0100, 0, 0b1111, 0b10000], ids=["non-monotone", "zero", "full", "too-wide"])
def test_enumeration_checks_its_tables_as_the_constructor_does(monkeypatch, fresh_enumeration, row):
    good = pid._atom_tables(2)
    monkeypatch.setattr(pid, "_atom_tables", lambda n: np.append(good, np.uint64(row)))
    message = constructor_error(2, row)
    assert message is not None
    with pytest.raises(ValueError) as caught:
        enumerate_atoms(2)
    assert str(caught.value) == message


@pytest.mark.parametrize("n, bits, message", [
    (True, 2, "source count True is not an integer"),
    (2, 2.0, "truth table 2.0 is not an integer"),
    (2.0, 2, "source count 2.0 is not an integer"),
    ("2", 2, "source count '2' is not an integer"),
    (2, True, "truth table True is not an integer"),
    (2, "2", "truth table '2' is not an integer"),
])
def test_constructor_refuses_non_integer_fields(n, bits, message):
    assert constructor_error(n, bits) == message


@pytest.mark.parametrize("n, message", [
    (True, "source count True is not an integer"),
    (2.0, "source count 2.0 is not an integer"),
    ("2", "source count '2' is not an integer"),
])
def test_atom_layer_refuses_a_non_integer_source_count(n, message):
    enumerate_atoms(int(n))  # an untyped cache would answer n from this entry
    for call in (enumerate_atoms, lambda n: cmi_atom_set(n, [1]), lambda n: antichain_to_bf([[1]], n)):
        with pytest.raises(ValueError) as caught:
            call(n)
        assert str(caught.value) == message


def test_atoms_take_numpy_integers_as_int():
    f = MonotoneBooleanFunction(np.int64(2), np.uint64(0b1000))
    assert type(f.n) is int and type(f.bits) is int
    assert f == MonotoneBooleanFunction(2, 0b1000) and hash(f) == hash(MonotoneBooleanFunction(2, 0b1000))
    atoms = enumerate_atoms(np.int64(3))
    assert atoms == enumerate_atoms(3)
    assert all(type(f.n) is int for f in atoms)


def test_atom_order_refuses_different_source_counts():
    # the oracle order guards its own inputs: atoms over different source
    # counts have no common lattice to compare in
    with pytest.raises(ValueError, match="atoms live over different source counts"):
        atom_leq(enumerate_atoms(1)[0], enumerate_atoms(2)[-1])


def test_theorem1_check_refuses_a_bad_source_count_before_using_it():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="source count 1000000 outside 1..5"):
        verify_theorem1_sets(10**6, [1])
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="source count 2.0 is not an integer"):
        verify_theorem1_sets(2.0, [1])
    with pytest.raises(ValueError, match="source count -1 outside 1..5"):
        verify_theorem1_sets(-1, [1])


def test_theorem1_check_takes_iterators_as_it_takes_lists():
    for n in (3, 4):
        for ma in range(1, 1 << n):
            for mb in range(1 << n):
                if ma & mb:
                    continue
                a, b = mask_members(ma), mask_members(mb)
                assert verify_theorem1_sets(n, iter(a), iter(b)) is verify_theorem1_sets(n, list(a), list(b)), (n, a, b)


def test_packed_tables_refuse_a_table_wider_than_64_bits():
    assert pid._packed([antichain_to_bf([[6]], 6)]).tolist() == [antichain_to_bf([[6]], 6).bits]
    with pytest.raises(OverflowError):
        pid._packed([antichain_to_bf([[7]], 7)])


def test_enumeration_range_check():
    with pytest.raises(ValueError):
        enumerate_atoms(0)
    with pytest.raises(ValueError):
        enumerate_atoms(6)


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        MonotoneBooleanFunction(2, 0)  # constant 0
    with pytest.raises(ValueError):
        MonotoneBooleanFunction(2, 0b1111)  # constant 1
    with pytest.raises(ValueError):
        MonotoneBooleanFunction(2, 0b0100)  # f({2})=1 but f({1,2})=0


# ---------------------------------------------------------------------------
# antichain isomorphism
# ---------------------------------------------------------------------------


def test_synergy_antichain_table():
    f = antichain_to_bf([[1, 2]], 2)
    assert f.table() == "0001"


def test_full_redundancy_has_singleton_antichain():
    n = 3
    bits = sum(1 << m for m in range(1, 1 << n))  # ones everywhere but the empty set
    f = MonotoneBooleanFunction(n, bits)
    assert bf_to_antichain(f) == ((1,), (2,), (3,))


def test_antichain_round_trip_exhaustive():
    for n in (1, 2, 3, 4):
        for f in enumerate_atoms(n):
            assert antichain_to_bf(bf_to_antichain(f), n) == f


def test_antichain_validation():
    with pytest.raises(ValueError):
        antichain_to_bf([], 2)
    with pytest.raises(ValueError):
        antichain_to_bf([[]], 2)
    with pytest.raises(ValueError):
        antichain_to_bf([[1], [1, 2]], 2)  # nested members


@pytest.mark.parametrize("antichain", [[1], None, 5, [[1], 2]], ids=["bare-index", "none", "int", "index-member"])
def test_antichain_that_is_not_a_sequence_of_sets_is_a_worded_value_error(antichain):
    with pytest.raises(ValueError, match=r"^antichain must be a sequence of source sets$"):
        antichain_to_bf(antichain, 3)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_dual_worked_examples():
    f = antichain_to_bf([[1, 2]], 2)
    assert bf_to_antichain(dual(f)) == ((1,), (2,))
    g = antichain_to_bf([[1, 2], [1, 3]], 3)
    assert bf_to_antichain(dual(g)) == ((1,), (2, 3))
    unique = antichain_to_bf([[1]], 2)
    assert dual(unique) == unique


def test_dual_is_order_reversing_involution():
    for n in (2, 3, 4):
        atoms = enumerate_atoms(n)
        for f in atoms:
            assert dual(dual(f)) == f
        for f, g in combinations(atoms, 2):
            assert atom_leq(f, g) == atom_leq(dual(g), dual(f))


# ---------------------------------------------------------------------------
# conditional-MI atom sets and the duality identity
# ---------------------------------------------------------------------------


def test_cmi_atom_set_full_information():
    assert set(cmi_atom_set(2, [1, 2])) == set(enumerate_atoms(2))


def test_cmi_atom_set_conditional_pair():
    atoms = cmi_atom_set(2, [1], [2])
    expected = {antichain_to_bf([[1]], 2), antichain_to_bf([[1, 2]], 2)}
    assert set(atoms) == expected


def test_cmi_atom_set_single_source():
    assert len(cmi_atom_set(1, [1])) == 1


def test_cmi_atom_set_rejects_overlap():
    with pytest.raises(ValueError):
        cmi_atom_set(2, [1], [1])
    with pytest.raises(ValueError):
        cmi_atom_set(2, [])


def test_theorem1_sets_pairwise():
    assert verify_theorem1_sets(2, [1], [2])


def _pair_by_pair(n: int) -> tuple[int, bool]:
    """The sweep as one ``_theorem1_holds`` per pair on ``_cmi_tables`` rows."""
    tables, full = pid._checked_tables(n), (1 << n) - 1
    holds = [
        pid._theorem1_holds(
            n,
            pid._cmi_tables(tables, n, mask_members(ma), mask_members(mb)),
            pid._cmi_tables(tables, n, mask_members(ma), mask_members(full ^ ma ^ mb)),
        )
        for ma in range(1, 1 << n)
        for mb in range(1 << n)
        if not ma & mb
    ]
    return len(holds), all(holds)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_theorem1_sweep_agrees_with_the_pair_by_pair_check(n):
    swept = pid._theorem1_sweep(pid._checked_tables(n), n)
    assert swept == _pair_by_pair(n) == (3**n - 2**n, True)
    assert swept[1] is True  # a bool, as the JSON report needs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sweep_selections_are_the_cmi_rows_of_each_pair(n):
    tables, full = pid._checked_tables(n), (1 << n) - 1
    ma, mb, mc = pid._pair_masks(n)
    selected, complement = pid._pair_rows(tables, n, ma, mb), pid._pair_rows(tables, n, ma, mc)
    pairs = [(a, b) for a in range(1, 1 << n) for b in range(1 << n) if not a & b]
    assert list(zip(ma.tolist(), mb.tolist())) == pairs  # the pair loop's order
    assert selected.shape == complement.shape == (len(pairs), (len(tables) + 7) // 8)
    picks = range(len(pairs))
    if n == 5:
        picks = np.random.default_rng(26).choice(len(pairs), size=20, replace=False).tolist()
    for p in picks:
        a, b = pairs[p]
        rows = pid._cmi_tables(tables, n, mask_members(a), mask_members(b))
        assert np.array_equal(tables[np.unpackbits(selected[p], count=len(tables)) == 1], rows), (a, b)
        rows = pid._cmi_tables(tables, n, mask_members(a), mask_members(full ^ a ^ b))
        assert np.array_equal(tables[np.unpackbits(complement[p], count=len(tables)) == 1], rows), (a, b)


@pytest.mark.parametrize("fault", [lambda n: lambda tables, _n: tables, swapped_dual, outside_dual],
                         ids=["identity", "swapped", "outside"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_theorem1_sweep_fails_on_a_planted_dual_fault(monkeypatch, fault, n):
    monkeypatch.setattr(pid, "_dual_tables", fault(n))
    assert pid._theorem1_sweep(pid._checked_tables(n), n) == _pair_by_pair(n) == (3**n - 2**n, False)


def test_theorem1_sets_exhaustive():
    # every disjoint pair; cmi sets and duals checked against the per-mask oracles
    for n in (1, 2, 3, 4, 5):
        atoms = oracle_atoms(n)
        full = (1 << n) - 1
        for ma in range(1, 1 << n):
            for mb in range(1 << n):
                if ma & mb:
                    continue
                a = [i + 1 for i in range(n) if (ma >> i) & 1]
                b = [i + 1 for i in range(n) if (mb >> i) & 1]
                selected = [t for t in atoms if (t >> (ma | mb)) & 1 and not (t >> mb) & 1]
                assert [f.bits for f in cmi_atom_set(n, a, b)] == selected
                assert verify_theorem1_sets(n, a, b) is True, (n, a, b)
                if n == 5:  # the per-mask dual oracle is too slow for the n = 5 sweep
                    continue
                mc = full ^ (ma | mb)
                complement = {t for t in atoms if (t >> (ma | mc)) & 1 and not (t >> mc) & 1}
                assert {oracle_dual(n, t) for t in selected} == complement


# ---------------------------------------------------------------------------
# reference decomposition
# ---------------------------------------------------------------------------


def _values_by_antichain(dist):
    return {bf_to_antichain(f): v for f, v in reference_pid(dist).items()}


def _sparse_distribution(rng, nsources):
    """Sources over 2-3 symbols, a target over 2-9, about a quarter of the cells zero."""
    sizes = (*rng.integers(2, 4, size=nsources).tolist(), int(rng.integers(2, 10)))
    pmf = rng.random(sizes)
    pmf[rng.random(sizes) < 0.25] = 0.0
    pmf.flat[0] += 0.1  # never all zero
    return JointDistribution(pmf / pmf.sum())


def test_xor_is_pure_synergy():
    values = _values_by_antichain(xor_triple())
    assert values[((1, 2),)] == pytest.approx(1.0, abs=TOL)
    for antichain, v in values.items():
        if antichain != ((1, 2),):
            assert v == pytest.approx(0.0, abs=TOL)


def test_copy_is_pure_redundancy():
    values = _values_by_antichain(copy_triple())
    assert values[((1,), (2,))] == pytest.approx(1.0, abs=TOL)
    for antichain, v in values.items():
        if antichain != ((1,), (2,)):
            assert v == pytest.approx(0.0, abs=TOL)


def test_independent_target_gives_zero_atoms():
    rng = np.random.default_rng(3)
    source = rng.random((2, 2))
    source /= source.sum()
    pmf = np.multiply.outer(source, np.array([0.5, 0.5]))
    for v in reference_pid(JointDistribution(pmf)).values():
        assert v == pytest.approx(0.0, abs=TOL)


def test_degenerate_target_gives_zero_atoms():
    d = JointDistribution.from_pmf({(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    for v in reference_pid(d).values():
        assert v == pytest.approx(0.0, abs=TOL)


def test_two_source_atoms_are_nonnegative():
    # Williams and Beer show the atoms are nonnegative; a redundancy above
    # either source's information (a maximum, say) would make a unique atom negative
    rng = np.random.default_rng(23)
    for _ in range(30):
        for v in reference_pid(_sparse_distribution(rng, 2)).values():
            assert v >= -TOL


def test_reference_pid_rejects_many_sources():
    with pytest.raises(ValueError):
        reference_pid(JointDistribution(np.full((2,) * 5, 1 / 32)))


def test_cumulative_sums_rebuild_every_mi():
    rng = np.random.default_rng(21)
    for _ in range(30):
        nsources = int(rng.integers(2, 4))
        d = random_distribution(rng, rng.integers(2, 3, size=nsources + 1))
        values = reference_pid(d)
        assert tuple(values) == enumerate_atoms(nsources)  # the order decompose prints
        for mask in range(1, 1 << nsources):
            members = [i + 1 for i in range(nsources) if (mask >> i) & 1]
            total = sum(v for f, v in values.items() if f.value(mask))
            expected = d.conditional_mutual_information(members, (nsources + 1,))
            assert total == pytest.approx(expected, abs=TOL)


def _assert_same_bits(values, expected):
    assert list(values) == list(expected)
    assert [v.hex() for v in values.values()] == [v.hex() for v in expected.values()]


def test_reference_pid_matches_the_object_loop_bit_for_bit():
    rng = np.random.default_rng(24)
    for _ in range(240):
        d = _sparse_distribution(rng, int(rng.integers(1, 4)))
        _assert_same_bits(reference_pid(d), oracle_reference_pid(d))


def test_reference_pid_matches_the_object_loop_at_four_sources(monkeypatch):
    monkeypatch.setattr(pid, "MAX_PID_SOURCES", 4)
    rng = np.random.default_rng(25)
    for _ in range(10):
        d = _sparse_distribution(rng, 4)
        _assert_same_bits(reference_pid(d), oracle_reference_pid(d))


def test_reference_pid_at_five_sources_rebuilds_every_mi(monkeypatch):
    # the object loop would take seconds here; the sums are the check
    monkeypatch.setattr(pid, "MAX_PID_SOURCES", 5)
    d = _sparse_distribution(np.random.default_rng(26), 5)
    values = reference_pid(d)
    assert tuple(values) == enumerate_atoms(5)
    for mask in range(1, 1 << 5):
        total = sum(v for f, v in values.items() if f.value(mask))
        expected = d.conditional_mutual_information(mask_members(mask), (6,))
        assert total == pytest.approx(expected, abs=TOL)


# ---------------------------------------------------------------------------
# the conjugation check
# ---------------------------------------------------------------------------


def test_conjugate_check_on_xor():
    lhs, rhs = pid_conjugate_check(xor_triple(), [1])
    assert lhs == pytest.approx(1.0, abs=TOL)
    assert rhs == pytest.approx(1.0, abs=TOL)


def test_conjugate_check_on_copy():
    lhs, rhs = pid_conjugate_check(copy_triple(), [1])
    assert lhs == pytest.approx(0.0, abs=TOL)
    assert rhs == pytest.approx(0.0, abs=TOL)


def test_conjugate_check_agrees_on_random_distributions():
    rng = np.random.default_rng(22)
    for _ in range(20):
        nsources = int(rng.integers(2, 4))
        d = random_distribution(rng, rng.integers(2, 3, size=nsources + 1))
        for amask in range(1, 1 << nsources):
            a = [i + 1 for i in range(nsources) if (amask >> i) & 1]
            rest = [i + 1 for i in range(nsources) if not (amask >> i) & 1]
            for r in range(len(rest) + 1):
                for b in combinations(rest, r):
                    lhs, rhs = pid_conjugate_check(d, a, b)
                    assert lhs == pytest.approx(rhs, abs=TOL)


def test_redundancy_minus_synergy_flips_under_duality():
    # the dual of (redundancy - synergy) is (synergy - redundancy)
    red = antichain_to_bf([[1], [2]], 2)
    syn = antichain_to_bf([[1, 2]], 2)
    for d in (xor_triple(), copy_triple()):
        values = reference_pid(d)
        balance = values[red] - values[syn]
        dual_balance = values[dual(red)] - values[dual(syn)]
        assert dual_balance == pytest.approx(-balance, abs=TOL)
