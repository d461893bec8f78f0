"""File format: canonical round trips and input validation."""

import pytest

import gradedlts as g
from gradedlts.errors import InputError
from gradedlts.systemfile import dumps_system, loads_system


def test_round_trip_is_identity_on_all_builtins(builtins):
    for name, system in builtins.items():
        text = dumps_system(system)
        reparsed = loads_system(text)
        assert reparsed.structure_constants() == system.structure_constants(), name
        assert reparsed.degrees == system.degrees, name
        assert reparsed.group == system.group, name
        assert reparsed.field == system.field, name
        assert dumps_system(reparsed) == text, name


def test_prime_field_round_trip():
    system = g.from_leibniz_algebra(g.sl2_algebra(field=g.PrimeField(5)))
    text = dumps_system(system)
    reparsed = loads_system(text)
    assert reparsed.field == g.PrimeField(5)
    assert reparsed.structure_constants() == system.structure_constants()


def minimal(**overrides):
    doc = {
        "group": {"moduli": [0]},
        "field": {"kind": "rational"},
        "dimension": 2,
        "degrees": [[0], [0]],
        "triple": [],
    }
    doc.update(overrides)
    return doc


def loads_data(doc):
    import json

    return loads_system(json.dumps(doc))


def test_duplicate_args_rejected():
    doc = minimal(
        triple=[
            {"args": [0, 0, 0], "out": [{"idx": 0, "val": "1"}]},
            {"args": [0, 0, 0], "out": [{"idx": 1, "val": "1"}]},
        ]
    )
    with pytest.raises(InputError, match="duplicate"):
        loads_data(doc)


def test_duplicate_output_index_rejected():
    doc = minimal(
        triple=[{"args": [0, 0, 0], "out": [{"idx": 0, "val": "1"}, {"idx": 0, "val": "2"}]}]
    )
    with pytest.raises(InputError, match="duplicate"):
        loads_data(doc)


def test_out_of_range_indices_rejected():
    with pytest.raises(InputError, match="out of range"):
        loads_data(minimal(triple=[{"args": [0, 0, 2], "out": []}]))
    with pytest.raises(InputError, match="out of range"):
        loads_data(minimal(triple=[{"args": [0, 0, 0], "out": [{"idx": 5, "val": "1"}]}]))


def test_zero_denominator_rejected():
    doc = minimal(triple=[{"args": [0, 0, 0], "out": [{"idx": 0, "val": "1/0"}]}])
    with pytest.raises(InputError, match="denominator"):
        loads_data(doc)


def test_denominator_divisible_by_modulus_rejected():
    doc = minimal(
        field={"kind": "prime", "p": 5},
        triple=[{"args": [0, 0, 0], "out": [{"idx": 0, "val": "1/5"}]}],
    )
    with pytest.raises(InputError, match="divisible"):
        loads_data(doc)


def test_numeric_scalars_rejected():
    doc = minimal(triple=[{"args": [0, 0, 0], "out": [{"idx": 0, "val": 1}]}])
    with pytest.raises(InputError, match="string"):
        loads_data(doc)


def test_degree_count_must_match_dimension():
    with pytest.raises(InputError, match="degrees"):
        loads_data(minimal(degrees=[[0]]))


def test_json_errors_carry_position():
    with pytest.raises(InputError) as exc_info:
        loads_system('{"group": {"moduli": [0]\n')
    assert exc_info.value.line is not None
    assert exc_info.value.column is not None


def test_integer_past_the_digit_limit_is_an_input_error():
    # the JSON parser raises a plain ValueError for an integer literal past
    # the interpreter's 4,300-digit int/str limit
    text = '{"group": {"moduli": [0]}, "field": {"kind": "rational"}, "dimension": '
    with pytest.raises(InputError):
        loads_system(text + "9" * 5000 + ', "degrees": [], "triple": []}')


def test_explicit_zero_values_are_dropped():
    doc = minimal(triple=[{"args": [0, 0, 0], "out": [{"idx": 0, "val": "0"}]}])
    system = loads_data(doc)
    assert list(system.nonzero_triples()) == []


def test_nonprime_modulus_rejected():
    with pytest.raises(InputError, match="prime"):
        loads_data(minimal(field={"kind": "prime", "p": 9}))


def test_rational_scalars_parse_and_reduce():
    doc = minimal(triple=[{"args": [0, 0, 0], "out": [{"idx": 0, "val": "4/6"}]}])
    system = loads_data(doc)
    ((_, entry),) = system.structure_constants()
    assert system.field.format(entry[0][1]) == "2/3"


# JSON true/false load as bool, a subclass of int; the grammar wants integers.


def test_boolean_dimension_rejected():
    with pytest.raises(InputError, match="dimension"):
        loads_data(minimal(dimension=True, degrees=[[0]]))


def test_boolean_group_modulus_rejected():
    with pytest.raises(InputError, match="moduli"):
        loads_data(minimal(group={"moduli": [False]}))


def test_boolean_degree_coordinate_rejected():
    with pytest.raises(InputError, match="degree"):
        loads_data(minimal(degrees=[[True], [0]]))


def test_boolean_args_rejected():
    with pytest.raises(InputError, match="args"):
        loads_data(minimal(triple=[{"args": [0, False, 0], "out": []}]))


def test_boolean_output_index_rejected():
    doc = minimal(triple=[{"args": [0, 0, 0], "out": [{"idx": False, "val": "1"}]}])
    with pytest.raises(InputError, match="output index"):
        loads_data(doc)
