"""Independent re-check of primitivity certificates.

A certificate lists the k x k minors of the Jacobi matrix and cofactors h_i
as printed polynomials.  This module reads them back without metlie and
checks sum h_i * minor_i = 1 in Z[x1..xn].  It ties the minors to the input
through their constant parts: the derivatives of a bracket have no constant
term, so the constant part of each minor is the matching k x k minor of the
integer matrix of the system's linear parts, which `linear_part` reads from
the input text.  The higher-degree parts of the minors are taken from the
certificate as printed.
"""

from __future__ import annotations

import itertools
import re

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def read_poly(text: str, n: int) -> dict[tuple[int, ...], int]:
    """Polynomial over Z from text such as '-3*x1^2*x2 + x2 - 1'."""
    out: dict[tuple[int, ...], int] = {}
    text = text.strip()
    pos = 0
    while pos < len(text):
        mt = _TERM.match(text, pos)
        if not mt or mt.end() == pos:
            raise ValueError(f"cannot read polynomial {text!r}")
        pos = mt.end()
        sign = -1 if mt.group(1) == "-" else 1
        coeff = 1
        mono = [0] * n
        for k, factor in enumerate(mt.group(2).strip().split("*")):
            factor = factor.strip()
            if k == 0 and factor.isdigit():
                coeff = int(factor)
                continue
            fm = _FACTOR.match(factor)
            if not fm or not 1 <= int(fm.group(1)) <= n:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            mono[int(fm.group(1)) - 1] += int(fm.group(2) or 1)
        if coeff:
            key = tuple(mono)
            total = out.get(key, 0) + sign * coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


_TOKEN = re.compile(r"\s*(?:(\d+)|x(\d+)|([-+*(),\[\]]))")


def linear_part(text: str, n: int) -> list[int]:
    """Coefficients of x1..xn in the degree-one part of a Lie expression such
    as '2*(x1 - x2) + [x1,x2]': sums, integer multiples, parentheses and
    brackets, which have no degree-one part."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if not mt:
            raise ValueError(f"cannot read expression {text!r} at {pos}")
        pos = mt.end()
        if mt.group(1) is not None:
            tokens.append(("int", int(mt.group(1))))
        elif mt.group(2) is not None:
            i = int(mt.group(2))
            if not 1 <= i <= n:
                raise ValueError(f"generator x{i} outside x1..x{n} in {text!r}")
            tokens.append(("vec", [int(t == i) for t in range(1, n + 1)]))
        else:
            tokens.append(("op", mt.group(3)))
    tokens.append(("op", "end"))
    at = 0

    def take(op):
        nonlocal at
        if tokens[at] != ("op", op):
            raise ValueError(f"expected {op!r} in {text!r}, got {tokens[at][1]!r}")
        at += 1

    def expr():
        nonlocal at
        total = [0] * n
        sign = 1
        if tokens[at] == ("op", "-"):
            sign = -1
            at += 1
        while True:
            total = [a + sign * b for a, b in zip(total, product())]
            if tokens[at] not in (("op", "+"), ("op", "-")):
                return total
            sign = -1 if tokens[at][1] == "-" else 1
            at += 1

    def product():
        nonlocal at
        scale, vec = 1, None
        while True:
            kind, value = atom()
            if kind == "int":
                scale *= value
            elif vec is None:
                vec = value
            else:
                raise ValueError(f"product of two Lie elements in {text!r}")
            if tokens[at] != ("op", "*"):
                break
            at += 1
        if vec is None:
            if scale:
                raise ValueError(f"bare integer term in {text!r}")
            vec = [0] * n
        return [scale * a for a in vec]

    def atom():
        nonlocal at
        kind, value = tokens[at]
        at += 1
        if kind != "op":
            return kind, value
        if value == "(":
            vec = expr()
            take(")")
            return "vec", vec
        if value == "[":
            expr()
            take(",")
            expr()
            take("]")
            return "vec", [0] * n
        raise ValueError(f"unexpected {value!r} in {text!r}")

    out = expr()
    take("end")
    return out


def int_det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** r * row[0] * int_det([other[1:] for t, other in enumerate(m) if t != r])
               for r, row in enumerate(m) if row[0])


def mul_add(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            total = acc.get(key, 0) + ca * cb
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)


def verify_certificate(cert, texts: list[str], n: int) -> bool:
    """True when `cert` has one cofactor per k x k minor of the system
    `texts`, the minors' constant parts are those of the system's linear
    parts, and sum h_i * minor_i = 1."""
    if not cert:
        return False
    minors, cofactors = cert.get("minors"), cert.get("cofactors")
    if not minors or not cofactors or len(minors) != len(cofactors):
        return False
    rows = [linear_part(t, n) for t in texts]
    # Minors in the order metlie lists them: column sets in lexicographic order.
    expected = [int_det([[row[c] for c in cols] for row in rows])
                for cols in itertools.combinations(range(n), len(texts))]
    if len(minors) != len(expected):
        return False
    acc: dict = {}
    for m_text, h_text, constant in zip(minors, cofactors, expected):
        minor = read_poly(m_text, n)
        if minor.get((0,) * n, 0) != constant:
            return False
        mul_add(acc, read_poly(h_text, n), minor)
    return acc == {(0,) * n: 1}
