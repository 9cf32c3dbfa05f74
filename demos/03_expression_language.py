"""The identity DSL: stating series identities as plain text.

Run as: python demos/03_expression_language.py
"""

from qseries import (
    EvalContext,
    EvalError,
    QSyntaxError,
    evaluate,
    evaluate_text,
    mod_ring,
    parse_expr,
    to_text,
    tokenize,
)

# The lexer understands f<k>, a(q^k), A/B/C (septic quotients), theta(a,b),
# q, integers and + - * / ^ ( ).
print([t.text for t in tokenize("5*f5^5/f1^6")][:-1])

# Parsing builds a small tree; printing it round-trips.
tree = parse_expr("f1^3 - f3*a(q^3) + 3*q*f9^3")
print("parsed ->", to_text(tree))

# Evaluation happens at an explicit order, in an explicit ring.
print("B_{2,15} prefix:", evaluate_text("f2*f15/f1^2", 6).coeffs)

# An identity check is just: evaluate both sides, compare.
lhs = evaluate_text("f2^2/f1", 40)
rhs = evaluate_text("f6*f9^2/(f3*f18) + q*f18^2/f9", 40)
print("f2^2/f1 3-dissection holds to order 40:", lhs == rhs)

# Modular evaluation, e.g. everything mod 11:
print("f1^9 mod 11:", evaluate_text("f1^9", 8, mod_ring(11)).coeffs)

# A substituted atom X(q^k) is X at the smaller inner order ceil(N/k),
# with q^k put for q, which gives every coefficient below N:
print("A(q^7) prefix:", evaluate_text("A(q^7)", 12).coeffs)

# Errors carry positions (syntax) or the offending fragment (evaluation).
for bad in ["(1+q", "a + 1", "f1 + $"]:
    try:
        parse_expr(bad)
    except QSyntaxError as exc:
        print(f"syntax error for {bad!r}: {exc}")

try:
    evaluate(parse_expr("1/(f1 - f1)"), EvalContext(10))
except EvalError as exc:
    print("evaluation error:", exc)
