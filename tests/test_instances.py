import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from branchlab.instances import (
    FAMILIES,
    InstanceFamilySpec,
    InstanceFormatError,
    InstanceValidationError,
    generate_instance,
    generate_with_certificate,
    lp_relaxation,
    parse_instance,
    serialize_instance,
)
from branchlab.simplex import SimplexSolver, LpStatus

from .oracles import brute_force_binary


def test_parse_minimal_single_variable():
    text = "MILP v1 tiny 1 0 1\nOBJ 1\nBND 0 0 1\n"
    inst = parse_instance(text)
    assert inst.name == "tiny"
    assert inst.num_vars == 1 and inst.num_cons == 0 and inst.num_int == 1
    assert inst.objective.tolist() == [1.0]
    assert inst.lower.tolist() == [0.0] and inst.upper.tolist() == [1.0]


def test_roundtrip_knapsack(knapsack):
    text = serialize_instance(knapsack)
    again = parse_instance(text)
    assert again == knapsack
    assert serialize_instance(again) == text


def test_bounds_violation_names_variable():
    text = "MILP v1 bad 1 0 0\nOBJ 1\nBND 0 2 1\n"
    with pytest.raises(InstanceValidationError) as err:
        parse_instance(text)
    assert err.value.field_path == "bounds[0]"


def test_syntax_error_carries_line_number():
    text = "MILP v1 bad 1 0 0\nOBJ 1\nBND 0 zero 1\n"
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert err.value.line_no == 3


def test_duplicate_triplet_rejected():
    text = "MILP v1 dup 2 1 0\nOBJ 1 1\nROW 0 4 2 0 2 0 3\nBND 0 0 1\nBND 1 0 1\n"
    with pytest.raises(InstanceValidationError) as err:
        parse_instance(text)
    assert "duplicate" in str(err.value)


def test_column_out_of_range_rejected():
    text = "MILP v1 oor 1 1 0\nOBJ 1\nROW 0 4 1 3 2\nBND 0 0 1\n"
    with pytest.raises(InstanceValidationError) as err:
        parse_instance(text)
    assert "out of range" in str(err.value)


def test_infinite_bounds_roundtrip():
    text = "MILP v1 free 1 0 0\nOBJ 0\nBND 0 -inf inf\n"
    inst = parse_instance(text)
    assert np.isneginf(inst.lower[0]) and np.isposinf(inst.upper[0])
    assert parse_instance(serialize_instance(inst)) == inst


def test_lp_relaxation_drops_integrality(knapsack):
    relaxed = lp_relaxation(knapsack)
    assert relaxed.num_int == 0
    assert knapsack.num_int == 2            # original untouched
    assert relaxed.objective.tolist() == knapsack.objective.tolist()
    # idempotence
    assert lp_relaxation(relaxed) == relaxed


def test_relaxation_lower_bounds_milp_on_knapsack(knapsack):
    lp = SimplexSolver(lp_relaxation(knapsack)).solve()
    assert lp.status is LpStatus.OPTIMAL
    assert lp.objective == pytest.approx(-23.0 / 3.0, abs=1e-9)
    milp_opt, _ = brute_force_binary(knapsack)
    assert milp_opt == pytest.approx(-5.0)
    assert lp.objective <= milp_opt + 1e-9


def test_generation_deterministic():
    spec = InstanceFamilySpec("multi-knapsack", n=10, m=3, seed=7)
    a = serialize_instance(generate_instance(spec))
    b = serialize_instance(generate_instance(spec))
    assert a == b


def test_multi_knapsack_planted_point():
    spec = InstanceFamilySpec("multi-knapsack", n=10, m=3, seed=7)
    inst, planted = generate_with_certificate(spec)
    A = inst.dense_matrix()
    assert np.all(A @ planted <= inst.rhs + 1e-9)
    assert np.all(planted >= inst.lower) and np.all(planted <= inst.upper)


def test_set_cover_rows_coverable():
    spec = InstanceFamilySpec("set-cover", n=12, m=8, seed=1)
    inst, planted = generate_with_certificate(spec)
    A = inst.dense_matrix()
    for i in range(inst.num_cons):
        assert np.count_nonzero(A[i]) >= 1
    assert np.all(A @ planted <= inst.rhs + 1e-9)


def test_unsupported_family():
    with pytest.raises(ValueError, match="unsupported family"):
        generate_instance(InstanceFamilySpec("mystery", n=4, m=2, seed=0))


def test_nonpositive_sizes_rejected():
    with pytest.raises(ValueError, match="positive"):
        generate_instance(InstanceFamilySpec("set-cover", n=0, m=2, seed=0))


def test_corpus_roundtrip_and_bound_ordering():
    """parse(serialize(.)) is the identity and the relaxation lower-bounds the
    integer optimum across every family at brute-forceable sizes."""
    for family in FAMILIES:
        for seed in range(6):
            inst, planted = generate_with_certificate(
                InstanceFamilySpec(family, n=10, m=3, seed=seed)
            )
            assert parse_instance(serialize_instance(inst)) == inst
            A = inst.dense_matrix()
            assert np.all(A @ planted <= inst.rhs + 1e-9)
            assert inst.num_vars <= 12
            milp_opt, _ = brute_force_binary(inst)
            assert milp_opt is not None
            lp = SimplexSolver(lp_relaxation(inst)).solve()
            assert lp.status is LpStatus.OPTIMAL
            assert lp.objective <= milp_opt + 1e-7


def test_immutability():
    inst = generate_instance(InstanceFamilySpec("set-cover", n=8, m=4, seed=3))
    with pytest.raises(ValueError):
        inst.objective[0] = 99.0


def test_pickle_roundtrip_stays_read_only():
    """Evaluation workers receive instances by pickle; the copy is equal and
    as read-only as the original."""
    inst = generate_instance(InstanceFamilySpec("item-placement-like", n=8, m=4, seed=2))
    again = pickle.loads(pickle.dumps(inst))
    assert again == inst and again.name == inst.name
    for name in ("objective", "row_idx", "col_idx", "coef", "rhs", "lower", "upper"):
        assert not getattr(again, name).flags.writeable, name
        assert getattr(again, name).dtype == getattr(inst, name).dtype, name


def test_every_field_takes_part_in_equality():
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=6, m=2, seed=1))
    assert replace(inst) == inst
    for f in fields(inst):
        value = getattr(inst, f.name)
        if isinstance(value, str):
            changed = value + "x"
        else:
            changed = value + 1         # int fields and every array's entries
        assert replace(inst, **{f.name: changed}) != inst, f.name
