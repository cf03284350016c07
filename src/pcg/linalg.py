"""Small dense matrices over a Field.

Matrices are flat tuples of integer codes, row-major, with the dimension
passed alongside.  Everything here is for n <= 4, so plain loops are fine.
"""

from __future__ import annotations

from .gf import Field


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_mul(f: Field, n: int, a, b) -> tuple[int, ...]:
    mul, add = f.mul, f.add
    out = []
    for i in range(n):
        ai = a[i * n:(i + 1) * n]
        for j in range(n):
            s = 0
            for k in range(n):
                s = add(s, mul(ai[k], b[k * n + j]))
            out.append(s)
    return tuple(out)


def frobenius_mat(f: Field, a, times: int = 1) -> tuple[int, ...]:
    e = f.p**times
    return tuple(f.pow(x, e) for x in a)


def _rows(n, a):
    return [list(a[i * n:(i + 1) * n]) for i in range(n)]


def mat_inv(f: Field, n: int, a) -> tuple[int, ...]:
    """Gauss-Jordan inverse; raises ZeroDivisionError if singular."""
    m = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(_rows(n, a))]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        s = f.inv(m[col][col])
        m[col] = [f.mul(s, x) for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                c = m[r][col]
                m[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[r], m[col])]
    return tuple(m[i][n + j] for i in range(n) for j in range(n))


def det(f: Field, n: int, a) -> int:
    m = _rows(n, a)
    d = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = f.neg(d)
        d = f.mul(d, m[col][col])
        s = f.inv(m[col][col])
        for r in range(col + 1, n):
            if m[r][col]:
                c = f.mul(s, m[r][col])
                m[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[r], m[col])]
    return d
