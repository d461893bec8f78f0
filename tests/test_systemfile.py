"""File format: canonical round trips and input validation."""

import hashlib

import pytest

import gradedlts as g
from gradedlts.errors import InputError
from gradedlts.systemfile import dumps_system, loads_system

from conftest import coordinate_sum, sl2_power

# SHA-256 of the canonical serialization, frozen when it was read off the
# sorted structure constants; any change to the byte layout shows here
SERIALIZED_SHA256 = {
    "zero_3": "15fe51e378220ef72badd90aaa7f4f86bf9846331003b1d484e574aa6e3c86ed",
    "sl2_Z": "d90fcc0c4229a6e2da7d046d8a8abef1cf4adda6565e19740755402f0e5ccf5e",
    "disjoint_sum": "bf8189127f4f1c06e160d4edcac19b312059376a098c941a129a927be5d3b48e",
    "nonlie_J": "a8baca6b1e4b28aae7841afc65f1cd2811c8137e668c597cc88ec5feed100c57",
    "trivial_grading_sl2": "8517f8cafd9fee60da5552885d0f2bb395b540c520edf2d19ae8fd764446fe95",
    "sl2_power_3_Q": "47774a9edac752fef671027c1b8bc032ad1981c89a0b110e4c8b5b5489f50236",
    "sl2_power_3_F7_Z2": "3533ce8c3a1b20038d85bdf1fd6a0ad5263dba10554ddfd046cdd5c7dae6c675",
}


def test_serialization_bytes_are_frozen(builtins):
    systems = dict(builtins)
    systems["sl2_power_3_Q"] = sl2_power(3, g.RationalField())
    systems["sl2_power_3_F7_Z2"] = coordinate_sum(sl2_power(3, g.PrimeField(7)), 2)
    digests = {
        name: hashlib.sha256(dumps_system(system).encode("utf-8")).hexdigest()
        for name, system in systems.items()
    }
    assert digests == SERIALIZED_SHA256


def test_round_trip_is_identity_on_all_builtins(builtins):
    for name, system in builtins.items():
        text = dumps_system(system)
        reparsed = loads_system(text)
        assert list(reparsed.nonzero_triples()) == list(system.nonzero_triples()), name
        assert reparsed.degrees == system.degrees, name
        assert reparsed.group == system.group, name
        assert reparsed.field == system.field, name
        assert dumps_system(reparsed) == text, name


def test_prime_field_round_trip():
    system = g.from_leibniz_algebra(g.sl2_algebra(field=g.PrimeField(5)))
    text = dumps_system(system)
    reparsed = loads_system(text)
    assert reparsed.field == g.PrimeField(5)
    assert list(reparsed.nonzero_triples()) == list(system.nonzero_triples())


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
    ((_, entry),) = system.nonzero_triples()
    assert system.field.format(entry[0]) == "2/3"


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
