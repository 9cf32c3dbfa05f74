"""A small expression language for eta-quotient and theta identities.

Registry items and CLI users state identities as text, e.g.

    5*f5^5/f1^6
    f1^3 - f3*a(q^3) + 3*q*f9^3
    B(q^7)/C(q^7) - q*A(q^7)/B(q^7) - q^2 + q^5*C(q^7)/A(q^7)

Grammar (EBNF), whitespace-insensitive::

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , [ "-" ] , integer ] ;
    atom    = integer
            | "q"
            | "f" digits                           (* Euler product f_k *)
            | "a" "(" "q" [ "^" integer ] ")"      (* cubic theta a(q^k) *)
            | ("A" | "B" | "C") [ "(" "q" "^" integer ")" ]
            | "theta" "(" integer "," integer ")"
            | "(" expr ")" ;

Precedence is ^ above unary minus above * and / above + and -; the
multiplicative and additive operators associate to the left, and ^ binds
a single integer exponent.  "f18" always means f_18: the lexer consumes
maximal digit runs.  Bare "a" is a syntax error; the cubic theta is
always written with its argument.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple, Union

from . import qfunctions
from .series import (CoefficientRing, EXACT, Record, SeriesError,
                     TruncatedSeries)


class QSyntaxError(Exception):
    """Lexing or parsing failure, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(Exception):
    """Evaluation failure, naming the subexpression that raised it."""

    def __init__(self, message: str, fragment: str):
        super().__init__(f"{message} in '{fragment}'")
        self.fragment = fragment


# --------------------------------------------------------------------------
# Tokens
# --------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str   # INT, EULER, NAME, OP, END
    text: str
    value: int  # integer payload for INT/EULER, 0 otherwise
    pos: int


_NAMES = {"a", "A", "B", "C", "q", "theta"}
_OPS = set("+-*/^(),")
_DIGITS = frozenset("0123456789")  # str.isdigit is true for '²' and '٣' too


def tokenize(text: str) -> list[Token]:
    """Lex an expression into tokens; raises QSyntaxError on bad input."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("INT", text[i:j], int(text[i:j]), i))
            i = j
            continue
        if ch == "f" and i + 1 < n and text[i + 1] in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("EULER", text[i:j], int(text[i + 1:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name not in _NAMES:
                raise QSyntaxError(f"unknown identifier '{name}'", i)
            tokens.append(Token("NAME", name, 0, i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(Token("OP", ch, 0, i))
            i += 1
            continue
        raise QSyntaxError(f"illegal character {ch!r}", i)
    tokens.append(Token("END", "", 0, n))
    return tokens


# --------------------------------------------------------------------------
# Syntax tree
# --------------------------------------------------------------------------

class _Node(Record):
    """A syntax-tree node.  Its hash is computed once, at construction,
    from its type and its fields, whose own hashes are stored, so hashing
    a tree of any depth never walks it; ``==`` and ``repr`` walk it on a
    stack, so they take a tree of any depth too."""

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self.__slots__):
            args = self._bind(args, kwargs)
        super().__init__(*args)
        object.__setattr__(self, "_hash", hash((type(self), *args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(a._values(), b._values()):
                if isinstance(x, _Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        # Record's repr, with the nodes among the fields expanded in
        # place: the stack holds text, and nodes still to be written
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts: list = [f"{type(item).__name__}("]
            for i, (name, value) in enumerate(zip(item.__slots__,
                                                  item._values())):
                parts.append(f"{', ' if i else ''}{name}=")
                parts.append(value if isinstance(value, _Node) else repr(value))
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)


class IntLit(_Node):
    __slots__ = ("value",)


class QVar(_Node):
    __slots__ = ()


class Euler(_Node):
    __slots__ = ("k",)


class CubicA(_Node):
    """The cubic theta a(q^k)."""

    __slots__ = ("k",)
    _defaults = {"k": 1}


class Septic(_Node):
    """The septic quotient A, B or C at argument q^k."""

    __slots__ = ("letter", "k")
    _defaults = {"k": 1}


class Theta(_Node):
    __slots__ = ("a", "b")


class Neg(_Node):
    __slots__ = ("child",)


class Add(_Node):
    __slots__ = ("left", "right")


class Sub(_Node):
    __slots__ = ("left", "right")


class Mul(_Node):
    __slots__ = ("left", "right")


class Div(_Node):
    __slots__ = ("left", "right")


class Pow(_Node):
    __slots__ = ("base", "exponent")


QExpr = Union[IntLit, QVar, Euler, CubicA, Septic, Theta, Neg, Add, Sub,
              Mul, Div, Pow]


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    MAX_NESTING = 100  # levels of "(" and prefix "-" a text may nest

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.levels: list[int | None] = []  # open "(" positions; None: "-"

    def nest(self, pos: int | None) -> None:
        """Open one nesting level, a "(" at pos or a prefix "-" (None)."""
        self.levels.append(pos)
        if len(self.levels) > self.MAX_NESTING:
            raise self.too_deep()

    def too_deep(self) -> QSyntaxError:
        """The error naming the outermost "(" still open (0 if none)."""
        pos = next((p for p in self.levels if p is not None), 0)
        return QSyntaxError("expression nested too deeply", pos)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise QSyntaxError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}",
                tok.pos)
        return self.advance()

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in texts

    def parse_expr(self) -> QExpr:
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> QExpr:
        node = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self) -> QExpr:
        if self.at_op("-"):
            self.nest(None)
            self.advance()
            node = Neg(self.parse_unary())
            self.levels.pop()
            return node
        return self.parse_power()

    def parse_power(self) -> QExpr:
        base = self.parse_atom()
        if self.at_op("^"):
            self.advance()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        tok = self.expect("INT")
        return sign * tok.value

    def parse_atom(self) -> QExpr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return IntLit(tok.value)
        if tok.kind == "EULER":
            self.advance()
            if tok.value < 1:
                raise QSyntaxError("Euler product index must be >= 1", tok.pos)
            return Euler(tok.value)
        if tok.kind == "NAME":
            if tok.text == "q":
                self.advance()
                return QVar()
            if tok.text == "a":
                self.advance()
                return CubicA(self.parse_q_argument(required=True))
            if tok.text in ("A", "B", "C"):
                self.advance()
                return Septic(tok.text, self.parse_q_argument(required=False))
            if tok.text == "theta":
                self.advance()
                self.expect("OP", "(")
                a = self.expect("INT").value
                self.expect("OP", ",")
                b = self.expect("INT").value
                self.expect("OP", ")")
                return Theta(a, b)
        if self.at_op("("):
            self.nest(self.advance().pos)
            node = self.parse_expr()
            self.expect("OP", ")")
            self.levels.pop()
            return node
        raise QSyntaxError(
            "expected an integer, 'q', 'f<k>', 'a(q^k)', 'A', 'B', 'C', "
            f"'theta(a,b)' or '(', found {tok.text or 'end of input'!r}",
            tok.pos)

    def parse_q_argument(self, required: bool) -> int:
        """Parse an optional '(q^k)' suffix; returns k (1 when absent)."""
        if not self.at_op("("):
            if required:
                tok = self.peek()
                raise QSyntaxError(
                    "the cubic theta needs an argument: write 'a(q)' or "
                    "'a(q^k)'", tok.pos)
            return 1
        self.advance()
        self.expect("NAME", "q")
        k = 1
        if self.at_op("^"):
            self.advance()
            k = self.expect("INT").value
            if k < 1:
                raise QSyntaxError("substitution power must be >= 1",
                                   self.tokens[self.i - 1].pos)
        self.expect("OP", ")")
        return k


def parse(tokens: list[Token]) -> QExpr:
    """Parse a token stream into a syntax tree; past MAX_NESTING levels,
    or the interpreter's recursion limit, raise :meth:`_Parser.too_deep`."""
    parser = _Parser(tokens)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise parser.too_deep() from None
    tok = parser.peek()
    if tok.kind != "END":
        raise QSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node


def parse_expr(text: str) -> QExpr:
    """Convenience: tokenize and parse in one call."""
    return parse(tokenize(text))


# --------------------------------------------------------------------------
# Printer (canonical; parse(to_text(e)) reproduces e structurally)
# --------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: QExpr) -> int:
    if isinstance(e, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(e, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(e, Neg):
        return _LEVEL_NEG
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


_INFIX = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


def _wrap(child: QExpr, strict: bool, parent_level: int) -> tuple:
    lv = _level(child)
    if lv < parent_level or (strict and lv == parent_level):
        return ("(", child, ")")
    return (child,)


def _parts(e: QExpr) -> list:
    """The text of e in order: strings, and children still to render."""
    if isinstance(e, IntLit):
        return [str(e.value)]
    if isinstance(e, QVar):
        return ["q"]
    if isinstance(e, Euler):
        return [f"f{e.k}"]
    if isinstance(e, CubicA):
        return ["a(q)" if e.k == 1 else f"a(q^{e.k})"]
    if isinstance(e, Septic):
        return [e.letter if e.k == 1 else f"{e.letter}(q^{e.k})"]
    if isinstance(e, Theta):
        return [f"theta({e.a},{e.b})"]
    if isinstance(e, Neg):
        return ["-", *_wrap(e.child, False, _LEVEL_NEG)]
    if isinstance(e, Pow):
        return [*_wrap(e.base, True, _LEVEL_POW), f"^{e.exponent}"]
    if not isinstance(e, (Add, Sub, Mul, Div)):
        raise TypeError(f"not a QExpr node: {e!r}")
    # a chain of one level is listed along its left spine
    level = _level(e)
    spine = []
    while _level(e) == level:
        spine.append(e)
        e = e.left
    parts = list(_wrap(e, False, level))
    for node in reversed(spine):
        parts += (_INFIX[type(node)], *_wrap(node.right, True, level))
    return parts


def to_text(e: QExpr) -> str:
    """Render a syntax tree back to expression text, on a stack, so a
    tree of any depth is rendered."""
    out: list[str] = []
    stack: list = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack += reversed(_parts(item))
    return "".join(out)


# --------------------------------------------------------------------------
# Evaluator
# --------------------------------------------------------------------------

class EvalContext(Record):
    """Target truncation order and coefficient ring for evaluation, and
    the class of coefficients kept: residue, residue + step, ... below
    the order (by default all of them).

    ``records`` is the memo of planned records, owned by the caller (a
    verification run), or None: each :func:`evaluate` call then makes
    its own, for as long as the call lasts.  A record with no sum among
    its factors is planned once per exponent map, order, ring and class,
    and the septic A, B, C once per order and ring.  Every context
    derived during the evaluation shares it.  It is neither compared,
    hashed nor shown.
    """

    __slots__ = ("order", "ring", "step", "residue", "records")

    # Written out: every record and class evaluation derives a context.
    def __init__(self, order: int, ring: CoefficientRing = EXACT,
                 step: int = 1, residue: int = 0,
                 records: dict | None = None) -> None:
        if order < 1:
            raise ValueError("evaluation order must be positive")
        if step < 1:
            raise ValueError(f"step must be positive, got {step}")
        if not 0 <= residue < step:
            raise ValueError(f"residue must lie in [0, {step}), "
                             f"got {residue}")
        init = object.__setattr__
        init(self, "order", order)
        init(self, "ring", ring)
        init(self, "step", step)
        init(self, "residue", residue)
        init(self, "records", records)

    def _values(self) -> tuple:
        return (self.order, self.ring, self.step, self.residue)


class _EmptyClass(Exception):
    """A class evaluation whose class has no coefficient below the order."""


def _atom(node: QExpr) -> int | tuple[int, int] | QExpr:
    """The record key of f_k (k), theta(a,b) ((a, b)), a(q^k) or a
    septic quotient (its node); TypeError for a non-node.  A malformed
    atom raises its builder's ValueError (:func:`qfunctions.check_key`)
    here, where the walk meets it, whatever its exponent."""
    if isinstance(node, Euler):
        qfunctions.check_key(node.k)
        return node.k
    if isinstance(node, Theta):
        qfunctions.check_key((node.a, node.b))
        return (node.a, node.b)
    if not isinstance(node, (CubicA, Septic)):
        raise TypeError(f"not a QExpr node: {node!r}")
    qfunctions.check_key(node.k, "argument power")
    if isinstance(node, Septic) and (
            node.letter not in qfunctions.SEPTIC_THETA):
        raise ValueError(f"unknown septic quotient {node.letter!r}")
    return node


class _Quotient(Record):
    """The record c * q^a * prod(rest) * prod atom^e, known to an order.

    ``atoms`` maps the key of each Euler product, theta, cubic theta
    a(q^k) and septic quotient to its signed exponent; ``rest`` holds
    the value of each sum among the factors.  Each atom has constant
    term 1, so the value has the valuation and lowest coefficient of its
    plain part c * q^a * prod(rest): dividing by it, or inverting it,
    fails or shortens the order exactly as for the plain part.  c may be
    any representative of its residue.
    """

    __slots__ = ("c", "a", "order", "rest", "atoms")

    # Written out: an evaluation builds one per node of each record.
    def __init__(self, c: int, a: int, order: int,
                 rest: tuple[TruncatedSeries, ...] = (),
                 atoms: dict | None = None) -> None:
        init = object.__setattr__
        init(self, "c", c)
        init(self, "a", a)
        init(self, "order", order)
        init(self, "rest", rest)
        init(self, "atoms", {} if atoms is None else atoms)

    def unit(self, ring: CoefficientRing) -> bool:
        """Whether the plain part is a unit, so dividing by it can fail
        no check and keeps the order."""
        return not self.rest and not self.a and ring.is_unit(self.c)

    def times(self, other: _Quotient) -> _Quotient:
        atoms = Counter(self.atoms)
        atoms.update(other.atoms)
        return _Quotient(self.c * other.c, self.a + other.a,
                         min(self.order, other.order),
                         self.rest + other.rest, atoms)

    def over(self, other: _Quotient, ring: CoefficientRing) -> _Quotient:
        if other.unit(ring):
            return self.times(other.power(-1, ring))
        rest = self.plain(ring).divide(other.plain(ring))
        atoms = Counter(self.atoms)
        atoms.subtract(other.atoms)
        return _Quotient(1, 0, rest.order, (rest,), atoms)

    def power(self, p: int, ring: CoefficientRing) -> _Quotient:
        atoms = {key: e * p for key, e in self.atoms.items()}
        if p < 0 and not self.unit(ring):
            rest = self.plain(ring) ** p
            return _Quotient(1, 0, self.order, (rest,), atoms)
        c = pow(self.c if p >= 0 else ring.inverse(self.c), abs(p),
                ring.modulus or None)
        return _Quotient(c, self.a * p, self.order,
                         tuple(f ** p for f in self.rest), atoms)

    def plain(self, ring: CoefficientRing) -> TruncatedSeries:
        """The plain part c * q^a * prod(rest) as a series."""
        return self.replace(atoms={}).series(ring, {})  # nothing to keep

    def series(self, ring: CoefficientRing, records: dict, step: int = 1,
               residue: int = 0) -> TruncatedSeries:
        """The value, or its coefficients residue, residue + step, ...,
        by the planner :func:`qfunctions.eta_quotient`.  Past q^a the
        class is the planner's class residue - a (mod step), after the
        -d zeros the class has below q^a.  With no rest, the planned
        series is kept in, or read from, the memo ``records`` (see
        :class:`EvalContext`)."""
        size = (self.order - residue + step - 1) // step
        if size < 1:
            raise _EmptyClass
        d, r = divmod(residue - self.a, step)
        n = self.order - self.a
        if n <= r:
            return TruncatedSeries.zero(ring, size)
        if self.rest:
            result = self._plan(n, ring, step, r, records)
        else:
            key = (frozenset((k, e) for k, e in self.atoms.items() if e),
                   n, ring, step, r)
            result = records.get(key)
            if result is None:
                result = records[key] = self._plan(n, ring, step, r, records)
        if self.c != 1:
            result = result.scalar_mul(self.c)
        return result.shift(-d) if d else result

    def _plan(self, n: int, ring: CoefficientRing, step: int, r: int,
              records: dict) -> TruncatedSeries:
        """prod(rest) * prod atom^e to order n, on the class (step, r)."""
        factors = list(self.rest)
        exponents: Counter = Counter()
        for key, e in self.atoms.items():
            if isinstance(key, (int, tuple)):
                exponents[key] += e
            elif isinstance(key, CubicA):  # a numerator factor, e any sign
                factors.append(qfunctions.borwein_a(key.k, self.order,
                                                    ring) ** e)
            elif e > 0:  # a septic quotient keeps its own value: the
                # letter's at order ceil(order / k), with q^k for q, from
                # the triple the memo keeps under that order and the ring
                inner = (-(-self.order // key.k), ring)
                if inner not in records:
                    records[inner] = qfunctions.septic_ABC(*inner)
                septic = records[inner]["ABC".index(key.letter)]
                factors.append(septic.substitute_power(
                    key.k, cap=self.order) ** e)
            elif e:  # and in the denominator is theta(ka, kb) / f_2k
                a, b = qfunctions.SEPTIC_THETA[key.letter]
                exponents[key.k * a, key.k * b] += e
                exponents[2 * key.k] -= e
        return qfunctions.eta_quotient(exponents, n, ring, factors, step, r)


def _product(root: QExpr, ctx: EvalContext) -> TruncatedSeries:
    """Evaluate a Mul/Div/Pow/Neg tree, or a lone atom, as one record,
    without recursion, on the context's class.

    Euler products, thetas, a(q^k), septic quotients, integers and q
    are read into the record, and the sign of a negated factor into c; a
    sum is evaluated whole into rest.  Nodes combine in the order a
    bottom-up evaluation visits them, so the series, its order and any
    error, with the node it names, are those of evaluating every node
    whole, in Z and in every Z/m.
    """
    n, ring = ctx.order, ctx.ring
    whole = ctx.replace(step=1, residue=0)
    values: list[_Quotient] = []
    stack: list[tuple[QExpr, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            x = values.pop()
            try:
                if isinstance(node, Neg):
                    x = x.replace(c=-x.c)
                elif isinstance(node, Pow):
                    x = x.power(node.exponent, ring)
                elif isinstance(node, Mul):
                    x = values.pop().times(x)
                else:
                    x = values.pop().over(x, ring)
            except SeriesError as exc:
                raise EvalError(str(exc), to_text(node)) from exc
            values.append(x)
        elif isinstance(node, (Mul, Div)):
            stack += ((node, True), (node.right, False), (node.left, False))
        elif isinstance(node, (Pow, Neg)):
            child = node.base if isinstance(node, Pow) else node.child
            stack += ((node, True), (child, False))
        elif isinstance(node, (IntLit, QVar)):
            values.append(_Quotient(1, 1, n) if isinstance(node, QVar)
                          else _Quotient(node.value, 0, n))
        elif isinstance(node, (Add, Sub)):
            value = evaluate(node, whole)  # at the order it reached
            values.append(_Quotient(1, 0, value.order, (value,)))
        else:
            values.append(_Quotient(1, 0, n, atoms={_atom(node): 1}))
    return values[0].series(ring, ctx.records, ctx.step, ctx.residue)


def evaluate(e: QExpr, ctx: EvalContext) -> TruncatedSeries:
    """Evaluate a syntax tree at the context's order and ring.

    A sum adds up its terms, walked left to right (:func:`_terms`), and
    each term is read as one record (:func:`_product`).  The result's
    order can fall below ctx.order when a division cancels a common
    q-valuation; callers compare series only on the order actually
    achieved.  With a step above 1 the result is the context's class:
    the same coefficients, order and errors as evaluate(e, whole
    context).extract(step, residue), computing only that class where it
    can.  With no memo in the context, the call makes its own.
    """
    if ctx.records is None:
        ctx = ctx.replace(records={})
    total = None
    try:
        for term, minus in _terms(e):
            try:
                value = _product(term, ctx)
            except SeriesError as exc:
                raise EvalError(str(exc), to_text(term)) from exc
            total = (value if total is None else total - value if minus
                     else total + value)
    except _EmptyClass:
        # the whole evaluation raises what it would, then extract
        whole = evaluate(e, ctx.replace(step=1, residue=0))
        return whole.extract(ctx.step, ctx.residue)
    return total


def _terms(e: QExpr) -> Iterator[tuple[QExpr, bool]]:
    """The terms of a sum, left to right, each with whether it is
    subtracted; any other node is its own one term.  A stack stands in
    for recursion, so a sum of any depth is walked."""
    stack = [(e, False)]
    while stack:
        node, minus = stack.pop()
        if isinstance(node, (Add, Sub)):
            stack += ((node.right, minus != isinstance(node, Sub)),
                      (node.left, minus))
        else:
            yield node, minus


def evaluate_text(text: str, order: int,
                  ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """Parse and evaluate expression text in one call."""
    return evaluate(parse_expr(text), EvalContext(order, ring))
