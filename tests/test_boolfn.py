"""Truth tables, the formula grammar, and composition plumbing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from advbound import boolfn
from advbound.boolfn import (
    And,
    BooleanFunction,
    CompositionSpec,
    MAX_ARITY,
    MAX_NESTING,
    FormulaError,
    Leaf,
    Not,
    Or,
    compose_functions,
    eval_formula,
    formula_to_function,
    function_from_dict,
    function_to_dict,
    is_read_once,
    iterate_function,
    leaf_indices,
    make_family,
    parse_formula,
)
from conftest import (
    composition_cases,
    loop_check_function,
    loop_composition,
    random_function,
    random_read_once_ast,
    split_input,
)

COMPOSITION_CASES = composition_cases()


def test_family_truth_tables():
    assert make_family("and", 2).values == (0, 0, 0, 1)
    assert make_family("or", 2).values == (0, 1, 1, 1)
    assert make_family("parity", 2).values == (0, 1, 1, 0)
    assert make_family("nand", 2).values == (1, 1, 1, 0)
    assert make_family("id", 1).values == (0, 1)
    assert make_family("AND", 3).domain[0] == "000"
    assert make_family("parity", 3)("101") == 0


def test_family_rejects_bad_names_and_arities():
    with pytest.raises(ValueError):
        make_family("xor", 2)
    with pytest.raises(ValueError):
        make_family("id", 2)
    with pytest.raises(ValueError):
        make_family("and", 0)
    with pytest.raises(ValueError, match="exceeds the cap"):
        make_family("or", MAX_ARITY + 1)


def test_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, ("00", "00"), (0, 1))  # duplicate row
    with pytest.raises(ValueError):
        BooleanFunction(2, ("00", "0x"), (0, 1))  # bad character
    with pytest.raises(ValueError):
        BooleanFunction(2, ("00", "01"), (0, 2))  # bad output
    with pytest.raises(ValueError):
        BooleanFunction(2, ("00",), (0, 1))  # length mismatch
    with pytest.raises(ValueError):
        BooleanFunction(2, ("00", "010"), (0, 1))  # wrong width
    with pytest.raises(ValueError, match="arity must be at least 1"):
        BooleanFunction(0, (), ())


def test_partial_function_lookup():
    f = BooleanFunction(2, ("00", "11"), (0, 1))
    assert f("11") == 1
    assert not f.is_total
    with pytest.raises(ValueError):
        f("01")


def test_classes_and_bits_are_built_once_and_read_only():
    f = BooleanFunction(3, ("110", "000", "011", "101"), (1, 0, 0, 1))
    zeros, ones = f.classes
    assert zeros.tolist() == [1, 2] and ones.tolist() == [0, 3]
    assert f.bits.tolist() == [[c == "1" for c in x] for x in f.domain]
    assert f.bits.dtype == bool
    assert f.classes is f.classes and f.bits is f.bits
    for a in (zeros, ones, f.bits):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    empty = BooleanFunction(2, (), ())
    assert [c.size for c in empty.classes] == [0, 0]
    assert empty.bits.shape == (0, 2)
    assert f == BooleanFunction(3, f.domain, f.values)
    assert hash(f) == hash(BooleanFunction(3, f.domain, f.values))


def test_parse_structure():
    assert parse_formula("x1 & x2") == And(Leaf(1), Leaf(2))
    assert parse_formula("(x1 & x2) | ~x3") == Or(And(Leaf(1), Leaf(2)), Not(Leaf(3)))
    # precedence: ~ over & over |
    assert parse_formula("x1 | x2 & x3") == Or(Leaf(1), And(Leaf(2), Leaf(3)))
    assert parse_formula("~x1 & x2") == And(Not(Leaf(1)), Leaf(2))
    assert parse_formula("~~x1") == Not(Not(Leaf(1)))
    # chains associate left
    assert parse_formula("x1 & x2 & x3") == And(And(Leaf(1), Leaf(2)), Leaf(3))
    assert parse_formula("x1 | x2 | x3") == Or(Or(Leaf(1), Leaf(2)), Leaf(3))


def test_read_once_flag():
    assert is_read_once(parse_formula("x1 & x2"))
    assert not is_read_once(parse_formula("x1 | x1"))
    assert leaf_indices(parse_formula("x2 & (x1 | x2)")) == [2, 1, 2]


@pytest.mark.parametrize(
    "text,position",
    [
        ("x0", 1),
        ("x1 && x2", 5),
        ("x1 |", 5),
        ("(x1 & x2", 9),
        ("x1 x2", 4),
        ("(x1 x2)", 5),
        ("y1", 1),
        ("x", 1),
        # nesting past MAX_NESTING = 100: the 101st '~' or '(' is rejected
        pytest.param("~" * 101 + "x1", 101, id="deep-not"),
        pytest.param("(" * 101 + "x1" + ")" * 101, 101, id="deep-parens"),
        pytest.param("~(" * 60 + "x1" + ")" * 60, 101, id="deep-mixed"),
        # a 102-operand chain is 101 levels high; its 101st '&' is at 303
        pytest.param("&".join(["x1"] * 102), 303, id="long-chain"),
        pytest.param("~(" + "|".join(["x1"] * 101) + ")", 1, id="not-over-chain"),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert err.value.position == position


def test_parse_accepts_nesting_at_the_cap():
    deep = parse_formula("~" * MAX_NESTING + "x1")
    for _ in range(MAX_NESTING):
        deep = deep.child
    assert deep == Leaf(1)
    assert parse_formula("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING) == Leaf(1)
    chain = ["x1"] * (MAX_NESTING + 1)
    assert leaf_indices(parse_formula("&".join(chain))) == [1] * len(chain)


def test_formula_truth_table_matches_direct_evaluation():
    ast = parse_formula("(x1 & x2) | ~x3")
    f = formula_to_function(ast)
    assert f.arity == 3
    for x in f.domain:
        expected = (int(x[0]) and int(x[1])) or (1 - int(x[2]))
        assert f(x) == int(expected)


def test_formula_arity_override():
    f = formula_to_function(parse_formula("x1"), n=2)
    assert f.arity == 2 and f("10") == 1 and f("01") == 0
    with pytest.raises(ValueError):
        formula_to_function(parse_formula("x3"), n=2)
    with pytest.raises(ValueError):
        formula_to_function(parse_formula("x1"), n=13)
    with pytest.raises(ValueError, match="leaf x3 out of range for 2 bits"):
        eval_formula(Leaf(3), "01")


def test_split_input():
    spec = CompositionSpec(make_family("and", 2), (make_family("or", 2), make_family("id", 1)))
    blocks, tilde = split_input("011", spec)
    assert blocks == ("01", "1") and tilde == "11"
    assert spec.offsets == (1, 3)
    with pytest.raises(ValueError, match="outer arity 2 but 1 inner functions"):
        CompositionSpec(make_family("and", 2), (make_family("or", 2),))


def test_split_input_outside_inner_domain():
    g = BooleanFunction(2, ("00", "11"), (0, 1))
    spec = CompositionSpec(make_family("id", 1), (g,))
    assert split_input("11", spec) == (("11",), "1")
    with pytest.raises(ValueError):
        split_input("01", spec)


def test_compose_and_of_ands_is_and4():
    and2 = make_family("and", 2)
    h = compose_functions(CompositionSpec(and2, (and2, and2)))
    assert h == make_family("and", 4)


def test_compose_or_of_ids_is_or2():
    spec = CompositionSpec(make_family("or", 2), (make_family("id", 1),) * 2)
    assert compose_functions(spec) == make_family("or", 2)


def test_compose_and_of_ors_rows():
    spec = CompositionSpec(make_family("and", 2), (make_family("or", 2),) * 2)
    h = compose_functions(spec)
    assert h("0101") == 1
    assert h("0100") == 0
    for x in h.domain:  # brute-force oracle
        assert h(x) == int(("1" in x[:2]) and ("1" in x[2:]))


def test_compose_restricts_to_inner_domains():
    g = BooleanFunction(2, ("00", "11"), (0, 1))  # partial inner block
    spec = CompositionSpec(make_family("or", 2), (g, make_family("id", 1)))
    h = compose_functions(spec)
    assert h.domain == ("000", "001", "110", "111")
    assert h("110") == 1


def test_compose_restricts_to_outer_domain():
    outer = BooleanFunction(2, ("00", "11"), (0, 1))  # partial outer
    spec = CompositionSpec(outer, (make_family("id", 1),) * 2)
    h = compose_functions(spec)
    assert h.domain == ("00", "11")
    assert h.values == (0, 1)


def test_compose_arity_cap():
    and2 = make_family("and", 2)
    inner = (make_family("and", 4),) * 2
    assert compose_functions(CompositionSpec(and2, inner)).arity == 8
    with pytest.raises(ValueError):
        compose_functions(CompositionSpec(and2, (make_family("and", 7),) * 2))


@pytest.mark.parametrize("name", sorted(COMPOSITION_CASES))
def test_composed_index_matches_row_loop(name):
    spec = COMPOSITION_CASES[name]
    h, outer_row, inner_row, inner_value = loop_composition(spec)
    rows = spec.composed
    assert rows.function == h
    assert compose_functions(spec) is rows.function
    for got, want in ((rows.outer_row, outer_row), (rows.inner_row, inner_row)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # Each inner row's output is the loop's inner value: what compose_eigenvector
    # relies on when it reads each factor from the whole inner vector.
    for g, idx, want in zip(spec.inner, rows.inner_row, inner_value):
        assert np.array_equal(np.array(g.values, dtype=int)[idx], want)


def test_composed_index_cases_cover_their_shapes():
    assert not COMPOSITION_CASES["no_row"].composed.function.domain
    for name in ("total_unsorted", "partial_unsorted"):
        spec = COMPOSITION_CASES[name]
        for f in (spec.outer, *spec.inner):
            assert list(f.domain) != sorted(f.domain)
    assert not COMPOSITION_CASES["partial_unsorted"].outer.is_total
    assert COMPOSITION_CASES["constant_inner"].inner[0].is_constant


def test_composed_index_is_built_once_and_read_only():
    spec = CompositionSpec(make_family("and", 2), (make_family("or", 2),) * 2)
    rows = spec.composed
    assert spec.composed is rows
    assert [f.name for f in dataclasses.fields(rows)] == ["function", "outer_row", "inner_row"]
    for a in (rows.outer_row, rows.inner_row):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert compose_functions(spec) == BooleanFunction.total(
        4, lambda x: "1" in x[:2] and "1" in x[2:]
    )


def test_composed_index_keeps_spec_equality_and_hash():
    def make():
        return CompositionSpec(make_family("and", 2), (make_family("or", 2),) * 2)

    built, fresh = make(), make()
    before = hash(built)
    built.composed
    assert built == fresh and fresh == built
    assert hash(built) == before == hash(fresh)
    assert {fresh: "x"}[built] == "x"
    assert built != CompositionSpec(make_family("or", 2), (make_family("or", 2),) * 2)


def test_composed_arity_cap_checked_before_any_array(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the arity cap must hold before any array is built")

    monkeypatch.setattr(np, "indices", no_work)
    spec = CompositionSpec(make_family("and", 2), (make_family("and", 7),) * 2)
    with pytest.raises(ValueError, match="composed arity 14 exceeds the cap 12"):
        spec.composed
    with pytest.raises(ValueError, match="composed arity 14 exceeds the cap 12"):
        compose_functions(spec)


def test_iterate_and_is_and4():
    assert iterate_function(make_family("and", 2), 2) == make_family("and", 4)


def test_iterate_nand_rows():
    f = iterate_function(make_family("nand", 2), 2)
    assert f("1111") == 1
    nand = make_family("nand", 2)
    for x in f.domain:  # two-level oracle
        assert f(x) == nand(f"{nand(x[:2])}{nand(x[2:])}")


def test_iterate_validation():
    with pytest.raises(ValueError):
        iterate_function(make_family("nand", 2), 4)  # 16 bits
    with pytest.raises(ValueError):
        iterate_function(make_family("and", 2), 0)
    with pytest.raises(ValueError):
        iterate_function(BooleanFunction(2, ("00",), (1,)), 2)  # partial


def test_iterate_depth_checked_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the depth cap must hold before any composition")

    monkeypatch.setattr(boolfn, "compose_functions", no_work)
    with pytest.raises(ValueError, match="depth 13 exceeds the cap 12"):
        iterate_function(make_family("id", 1), 13)
    with pytest.raises(ValueError, match="depth 100000 exceeds the cap 12"):
        iterate_function(make_family("nand", 2), 100000)


def test_iterate_agrees_with_explicit_composition():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_function(rng, 2)
        lhs = iterate_function(f, 2)
        rhs = compose_functions(CompositionSpec(f, (f, f)))
        assert lhs == rhs


def test_compose_with_identity_blocks_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        f = random_function(rng, n, nonconstant=False)
        spec = CompositionSpec(f, (make_family("id", 1),) * n)
        assert compose_functions(spec) == f


def _ast_function(ast, negate=False):
    # independent route: build the table by composing at each gate
    if isinstance(ast, Not):
        return _ast_function(ast.child, not negate)
    if isinstance(ast, Leaf):
        f = make_family("id", 1)
    else:
        gate = make_family("and" if isinstance(ast, And) else "or", 2)
        spec = CompositionSpec(gate, (_ast_function(ast.left), _ast_function(ast.right)))
        f = compose_functions(spec)
    if negate:
        f = BooleanFunction(f.arity, f.domain, tuple(1 - v for v in f.values))
    return f


def test_read_once_formula_equals_gatewise_composition():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        ast = random_read_once_ast(rng, n, ordered=True)
        assert formula_to_function(ast, n) == _ast_function(ast)


def test_truth_table_json_roundtrip():
    f = make_family("parity", 3)
    assert function_from_dict(function_to_dict(f)) == f
    partial = BooleanFunction(2, ("01", "10"), (1, 0))
    data = json.loads(json.dumps(function_to_dict(partial)))
    assert function_from_dict(data) == partial
    integral = {"n": 2.0, "rows": [{"x": "01", "f": 1.0}, {"x": "10", "f": 0}]}
    assert function_from_dict(integral) == partial


def test_truth_table_json_malformed():
    with pytest.raises(ValueError):
        function_from_dict({"rows": []})
    with pytest.raises(ValueError):
        function_from_dict({"n": 2, "rows": [{"x": "00"}]})
    with pytest.raises(ValueError):
        function_from_dict({"n": 2, "rows": [{"x": "00", "f": 3}]})
    for n, f in ((2, 0.7), (2, 1.9), (2, math.inf), (math.inf, 0), (2.5, 0), (2, True), ("2", 0)):
        with pytest.raises(ValueError, match="must be an integral number"):
            function_from_dict({"n": n, "rows": [{"x": "00", "f": f}]})


@pytest.mark.parametrize("x", [11, None, ["1", "1"]], ids=["integer", "null", "list"])
def test_truth_table_json_rows_must_be_strings(x):
    # str() read the row 11 as "11", so the table was accepted.
    with pytest.raises(ValueError, match="^not a bit string: "):
        function_from_dict({"n": 2, "rows": [{"x": x, "f": 1}, {"x": "10", "f": 0}]})


def test_truth_table_arity_cap():
    assert function_from_dict({"n": MAX_ARITY, "rows": []}).arity == MAX_ARITY
    for n in (MAX_ARITY + 1, 10**9):
        with pytest.raises(ValueError, match=f"arity {n} exceeds the cap 12"):
            function_from_dict({"n": n, "rows": []})


# Inputs the row checks reject, each with its bad row placed after good ones.
FUNCTION_FAILURES = {
    "duplicate": (2, ("00", "00"), (0, 1)),
    "bad_character": (2, ("00", "0x"), (0, 1)),
    "bad_output": (2, ("00", "01"), (0, 2)),
    "wrong_width": (2, ("00", "010"), (0, 1)),
    "short_row": (2, ("00", "1"), (0, 1)),
    "empty_row": (1, ("0", ""), (0, 1)),
    "bytes_row": (2, ("00", b"01"), (0, 1)),
    "non_ascii_row": (2, ("00", "0é"), (0, 1)),
    "nan_output": (1, ("0", "1"), (0, float("nan"))),
    "unhashable_output": (1, ("0", "1"), (0, [1])),
    "first_of_several": (2, ("00", "11", "1x", "11"), (0, 1, 1, 5)),
}


@pytest.mark.parametrize("name", sorted(FUNCTION_FAILURES))
def test_function_array_check_names_the_first_bad_row(name):
    args = FUNCTION_FAILURES[name]
    with pytest.raises(ValueError) as want:
        loop_check_function(*args)
    with pytest.raises(ValueError) as got:
        BooleanFunction(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "values", [(0, 1), (False, True), (0.0, 1.0), (np.int64(0), np.int64(1))], ids=repr
)
def test_function_array_check_accepts_what_the_loop_accepts(values):
    loop_check_function(2, ("10", "01"), values)
    assert BooleanFunction(2, ("10", "01"), values).values == values
