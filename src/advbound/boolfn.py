"""Boolean functions on bit strings: truth tables, formulas, composition.

Inputs are strings over ``{'0','1'}``; bit positions are 1-based with
position 1 the leftmost character.  Functions may be partial: the domain is
an explicit ordered tuple of bit strings.  Every bound works on the
f^-1(0) x f^-1(1) block, read from a function's ``classes`` and ``bits``.
"""

from __future__ import annotations

import bisect
import itertools
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Union

import numpy as np

#: Cap on total arity; dense downstream kernels stop at 4096 rows.
MAX_ARITY = 12

#: Deepest formula the parser accepts: the cap bounds both the nesting of '~'
#: and parentheses and the height of the AST (a chain x1&x2&...&xk is k-1
#: levels high).  The parser recurses per nesting level and the AST walkers
#: per level of height, so the cap keeps both well inside Python's recursion
#: limit.
MAX_NESTING = 100

FAMILY_NAMES = ("AND", "OR", "PARITY", "NAND", "ID")


class FormulaError(ValueError):
    """Formula text rejected; ``position`` is the 1-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def validate_bits(x: str, n: int) -> None:
    if not isinstance(x, str) or any(c not in "01" for c in x) or not x:
        raise ValueError(f"not a bit string: {x!r}")
    if len(x) != n:
        raise ValueError(f"expected {n} bits, got {len(x)}: {x!r}")


@dataclass(frozen=True)
class BooleanFunction:
    """A possibly partial map from n-bit strings to {0, 1}.

    ``domain`` is an ordered tuple of distinct n-bit strings and
    ``values[i]`` is the output on ``domain[i]``.  Construction checks all
    rows at once, and walks them one by one only to name the first bad row.
    """

    arity: int
    domain: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        if len(self.values) != len(self.domain):
            raise ValueError("domain and values must have equal length")
        if self._rows_valid():
            return
        # Some row is bad: walk the rows to name the first one.
        seen = set()
        for x in self.domain:
            validate_bits(x, self.arity)
            if x in seen:
                raise ValueError(f"duplicate domain entry {x!r}")
            seen.add(x)
        for v in self.values:
            if v not in (0, 1):
                raise ValueError(f"outputs must be 0 or 1, got {v!r}")

    def _rows_valid(self) -> bool:
        """All rows at once: distinct n-character strings over {'0', '1'}
        and outputs equal to 0 or 1.  False for any bad row, and for input
        that is not strings or not hashable."""
        try:
            chars = np.frombuffer("".join(self.domain).encode("ascii"), dtype=np.uint8)
            outputs_ok = set(self.values) <= {0, 1}
        except (TypeError, UnicodeEncodeError):
            return False
        return (
            outputs_ok
            and set(map(len, self.domain)) <= {self.arity}
            and len(set(self.domain)) == len(self.domain)
            and bool(np.all((chars == ord("0")) | (chars == ord("1"))))
        )

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.domain)}

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only row indices of f^-1(0) and of f^-1(1), built once."""
        values = np.array(self.values)
        classes = tuple(np.flatnonzero(values == b) for b in (0, 1))
        for idx in classes:
            idx.flags.writeable = False
        return classes

    @cached_property
    def bits(self) -> np.ndarray:
        """Read-only bool (rows, arity) array, built once: [r, i] is bit i+1 of row r."""
        chars = np.frombuffer("".join(self.domain).encode("ascii"), dtype=np.uint8)
        bits = chars.reshape(len(self.domain), self.arity) == ord("1")
        bits.flags.writeable = False
        return bits

    def __call__(self, x: str) -> int:
        try:
            return self.values[self._index[x]]
        except KeyError:
            raise ValueError(f"{x!r} is outside the domain") from None

    @property
    def is_total(self) -> bool:
        return len(self.domain) == 2**self.arity

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) <= 1

    @classmethod
    def total(cls, n: int, predicate) -> "BooleanFunction":
        dom = tuple("".join(bits) for bits in itertools.product("01", repeat=n))
        return cls(n, dom, tuple(int(bool(predicate(x))) for x in dom))


def make_family(name: str, n: int) -> BooleanFunction:
    """Named total functions: AND, OR, PARITY, NAND on n bits; ID on one bit."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    if n > MAX_ARITY:
        raise ValueError(f"arity {n} exceeds the cap {MAX_ARITY}")
    key = name.strip().upper()
    if key == "AND":
        return BooleanFunction.total(n, lambda x: "0" not in x)
    if key == "OR":
        return BooleanFunction.total(n, lambda x: "1" in x)
    if key == "PARITY":
        return BooleanFunction.total(n, lambda x: x.count("1") % 2 == 1)
    if key == "NAND":
        return BooleanFunction.total(n, lambda x: "0" in x)
    if key == "ID":
        if n != 1:
            raise ValueError("ID is a one-bit function; got n=%d" % n)
        return BooleanFunction.total(1, lambda x: x == "1")
    raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")


# --------------------------------------------------------------------------
# Formula ASTs
#
# Grammar:  var := 'x' digits (1-based);  '~' binds tightest, then '&',
# then '|'; parentheses group; same-operator chains associate left.


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Not:
    child: "FormulaAst"


@dataclass(frozen=True)
class And:
    left: "FormulaAst"
    right: "FormulaAst"


@dataclass(frozen=True)
class Or:
    left: "FormulaAst"
    right: "FormulaAst"


FormulaAst = Union[Leaf, Not, And, Or]


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    # (kind, value-or-0, position): kinds VAR ~ & | ( )
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "~&|()":
            tokens.append((c, 0, i + 1))
            i += 1
            continue
        if c == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise FormulaError("expected digits after 'x'", i + 1)
            k = int(text[i + 1 : j])
            if k < 1:
                raise FormulaError(f"variable index must be at least 1, got x{k}", i + 1)
            tokens.append(("VAR", k, i + 1))
            i = j
            continue
        raise FormulaError(f"unexpected character {c!r}", i + 1)
    return tokens


class _Parser:
    """Recursive descent; each parse method returns (node, height of node)."""

    def __init__(self, tokens: list[tuple[str, int, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.end = length + 1
        self.depth = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _take(self) -> tuple[str, int, int]:
        if self.pos >= len(self.tokens):
            raise FormulaError("unexpected end of formula", self.end)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _nested(self, parse, pos: int) -> tuple[FormulaAst, int]:
        """Run ``parse`` one nesting level deeper; ``pos`` opened the level."""
        if self.depth >= MAX_NESTING:
            raise FormulaError(f"formula nests deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        parsed = parse()
        self.depth -= 1
        return parsed

    @staticmethod
    def _node(node: FormulaAst, height: int, pos: int) -> tuple[FormulaAst, int]:
        """Accept an operator node of the given height; ``pos`` is its operator."""
        if height > MAX_NESTING:
            raise FormulaError(f"formula nests deeper than {MAX_NESTING} levels", pos)
        return node, height

    def parse_or(self) -> tuple[FormulaAst, int]:
        node, height = self.parse_and()
        while self._peek() == "|":
            _, _, pos = self._take()
            right, h = self.parse_and()
            node, height = self._node(Or(node, right), 1 + max(height, h), pos)
        return node, height

    def parse_and(self) -> tuple[FormulaAst, int]:
        node, height = self.parse_unary()
        while self._peek() == "&":
            _, _, pos = self._take()
            right, h = self.parse_unary()
            node, height = self._node(And(node, right), 1 + max(height, h), pos)
        return node, height

    def parse_unary(self) -> tuple[FormulaAst, int]:
        if self._peek() == "~":
            _, _, pos = self._take()
            child, h = self._nested(self.parse_unary, pos)
            return self._node(Not(child), 1 + h, pos)
        return self.parse_atom()

    def parse_atom(self) -> tuple[FormulaAst, int]:
        kind, value, pos = self._take()
        if kind == "VAR":
            return Leaf(value), 0
        if kind == "(":
            parsed = self._nested(self.parse_or, pos)
            kind2, _, pos2 = self._take()
            if kind2 != ")":
                raise FormulaError("expected ')'", pos2)
            return parsed
        raise FormulaError(f"unexpected token {kind!r}", pos)


def parse_formula(text: str) -> FormulaAst:
    """Parse formula text into an AST, with 1-based error positions.

    Formulas deeper than ``MAX_NESTING`` are rejected at the token that
    passes the cap.
    """
    parser = _Parser(_tokenize(text), len(text))
    node, _ = parser.parse_or()
    if parser.pos != len(parser.tokens):
        kind, _, pos = parser.tokens[parser.pos]
        raise FormulaError(f"unexpected token {kind!r} after formula", pos)
    return node


def leaf_indices(ast: FormulaAst) -> list[int]:
    """Variable indices at the leaves, left to right (with repeats)."""
    if isinstance(ast, Leaf):
        return [ast.index]
    if isinstance(ast, Not):
        return leaf_indices(ast.child)
    return leaf_indices(ast.left) + leaf_indices(ast.right)


def is_read_once(ast: FormulaAst) -> bool:
    seen = leaf_indices(ast)
    return len(seen) == len(set(seen))


def formula_arity(ast: FormulaAst) -> int:
    return max(leaf_indices(ast))


def eval_formula(ast: FormulaAst, x: str) -> int:
    if isinstance(ast, Leaf):
        if ast.index > len(x):
            raise ValueError(f"leaf x{ast.index} out of range for {len(x)} bits")
        return int(x[ast.index - 1])
    if isinstance(ast, Not):
        return 1 - eval_formula(ast.child, x)
    if isinstance(ast, And):
        return eval_formula(ast.left, x) & eval_formula(ast.right, x)
    return eval_formula(ast.left, x) | eval_formula(ast.right, x)


def formula_to_function(ast: FormulaAst, n: int | None = None) -> BooleanFunction:
    """Total truth table of a formula over n bits (default: highest leaf)."""
    needed = formula_arity(ast)
    if n is None:
        n = needed
    elif n < needed:
        raise ValueError(f"formula uses x{needed} but n={n}")
    if n > MAX_ARITY:
        raise ValueError(f"arity {n} exceeds the cap {MAX_ARITY}")
    return BooleanFunction.total(n, lambda x: eval_formula(ast, x))


def ast_to_dict(ast: FormulaAst) -> dict:
    if isinstance(ast, Leaf):
        return {"op": "var", "index": ast.index}
    if isinstance(ast, Not):
        return {"op": "not", "child": ast_to_dict(ast.child)}
    op = "and" if isinstance(ast, And) else "or"
    return {"op": op, "left": ast_to_dict(ast.left), "right": ast_to_dict(ast.right)}


# --------------------------------------------------------------------------
# Composition on disjoint blocks
#
# A composed row is one choice of a row from each inner domain, kept when the
# inner outputs form an input in the outer domain.  Rows are ordered by the
# product of the inner domain orders (the last block varies fastest), which is
# the order of ``itertools.product`` over the inner domains.
# ``CompositionSpec.composed`` builds the composed function and, per composed
# row, its outer row and inner rows, once per spec, as numpy index arrays;
# every composition builder reads them from there.


@dataclass(frozen=True, eq=False)
class ComposedRows:
    """The composed function of a spec and where each of its rows comes from.

    Row r of ``function.domain`` concatenates row ``inner_row[i, r]`` of each
    inner domain i, and ``outer_row[r]`` is the row of the outer domain that
    the inner functions' outputs there spell.
    The arrays are read-only, so one instance can be shared by every caller.
    """

    function: BooleanFunction
    outer_row: np.ndarray  # (N,)
    inner_row: np.ndarray  # (k, N)


@dataclass(frozen=True)
class CompositionSpec:
    """Outer function on k bits fed by k inner functions on disjoint blocks.

    The composed input is the concatenation of the inner blocks, in order;
    ``offsets[i]`` is the 1-based position where block i starts.
    """

    outer: BooleanFunction
    inner: tuple[BooleanFunction, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if len(self.inner) != self.outer.arity:
            raise ValueError(
                f"outer arity {self.outer.arity} but {len(self.inner)} inner functions"
            )
        offs = []
        start = 1
        for g in self.inner:
            offs.append(start)
            start += g.arity
        object.__setattr__(self, "offsets", tuple(offs))

    @property
    def total_arity(self) -> int:
        return sum(g.arity for g in self.inner)

    def block_of(self, ell: int) -> tuple[int, int]:
        """Map a 1-based position of the composed input to (block, position)."""
        if not 1 <= ell <= self.total_arity:
            raise ValueError(f"position {ell} out of range 1..{self.total_arity}")
        p = bisect.bisect_right(self.offsets, ell)
        return p, ell - self.offsets[p - 1] + 1

    @cached_property
    def composed(self) -> ComposedRows:
        """The composed function and its row index arrays, built once.

        Raises ``ValueError`` above ``MAX_ARITY``, before any array is built.
        """
        n = self.total_arity
        if n > MAX_ARITY:
            raise ValueError(f"composed arity {n} exceeds the cap {MAX_ARITY}")
        k = len(self.inner)
        inner_row = np.indices([len(g.domain) for g in self.inner]).reshape(k, -1)
        outputs = np.stack(
            [np.array(g.values, dtype=np.int64)[r] for g, r in zip(self.inner, inner_row)]
        )
        # Inner outputs, read as a k-bit number, index a table of outer rows;
        # -1 marks outputs outside the outer domain.
        lookup = np.full(2**k, -1, dtype=np.int64)
        lookup[[int(x, 2) for x in self.outer.domain]] = np.arange(len(self.outer.domain))
        outer_row = lookup[(outputs << np.arange(k - 1, -1, -1)[:, None]).sum(axis=0)]
        keep = outer_row >= 0
        outer_row, inner_row = outer_row[keep], inner_row[:, keep]
        # One n-byte string per row: the inner domains' characters, side by side.
        bits = np.hstack([g.bits[r] for g, r in zip(self.inner, inner_row)])
        chars = bits.astype(np.uint8) + ord("0")
        domain = chars.view(f"S{n}").ravel().astype(str).tolist()
        values = np.array(self.outer.values, dtype=np.int64)[outer_row].tolist()
        for a in (outer_row, inner_row):
            a.flags.writeable = False
        h = BooleanFunction(n, tuple(domain), tuple(values))
        return ComposedRows(h, outer_row, inner_row)


def split_input(x: str, spec: CompositionSpec) -> tuple[tuple[str, ...], str]:
    """Split x into blocks and evaluate them: returns (blocks, inner outputs)."""
    validate_bits(x, spec.total_arity)
    blocks = []
    tilde = []
    for off, g in zip(spec.offsets, spec.inner):
        piece = x[off - 1 : off - 1 + g.arity]
        blocks.append(piece)
        tilde.append(str(g(piece)))
    return tuple(blocks), "".join(tilde)


def compose_functions(spec: CompositionSpec) -> BooleanFunction:
    """The composed function h(x) = f(g_1(x^1), ..., g_k(x^k)).

    The domain keeps exactly those concatenations whose blocks lie in the
    inner domains and whose inner outputs lie in the outer domain; rows are
    ordered by the product of the inner domain orders.  It is the function
    ``spec.composed`` builds once per spec, up to ``MAX_ARITY``.
    """
    return spec.composed.function


def iterate_function(f: BooleanFunction, d: int) -> BooleanFunction:
    """d-fold self-composition f(f(...), ..., f(...)) on n**d bits.

    The depth, totality and the arity cap are checked before any composition.
    """
    if d < 1:
        raise ValueError("depth must be at least 1")
    if d > MAX_ARITY:
        # Checked before any power or loop: n >= 2 already forces d <= 3, and n = 1
        # would pass the arity cap and compose d - 1 times.
        raise ValueError(f"depth {d} exceeds the cap {MAX_ARITY}")
    if not f.is_total:
        raise ValueError("iteration requires a total function")
    if f.arity**d > MAX_ARITY:
        raise ValueError(f"iterated arity {f.arity**d} exceeds the cap {MAX_ARITY}")
    g = f
    for _ in range(d - 1):
        g = compose_functions(CompositionSpec(f, (g,) * f.arity))
    return g


# --------------------------------------------------------------------------
# Truth-table JSON:  {"n": int, "rows": [{"x": "0101", "f": 0|1}, ...]}


def function_to_dict(f: BooleanFunction) -> dict:
    return {"n": f.arity, "rows": [{"x": x, "f": v} for x, v in zip(f.domain, f.values)]}


def _integral(value, name: str) -> int:
    """``value`` as an int if it is an integral number, 2 or 2.0.  ``int()``
    would truncate 0.7 and overflow on the inf that JSON reads for 1e400."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"malformed truth table: {name} must be an integral number, got {value!r}")


def function_from_dict(data: Mapping) -> BooleanFunction:
    try:
        n = _integral(data["n"], "n")
        if n > MAX_ARITY:
            raise ValueError(f"arity {n} exceeds the cap {MAX_ARITY}")
        rows = data["rows"]
        dom = tuple(r["x"] for r in rows)
        vals = tuple(_integral(r["f"], "f") for r in rows)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed truth table: {exc}") from None
    return BooleanFunction(n, dom, vals)
