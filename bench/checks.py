"""Output checks for the benchmark, computed apart from the program.

Nothing here imports qlens. Every expected value is derived from the
definitions (path counts in the lens graph, Euler's totient, the windowed
signature, the closed forms the paper proves) with plain integer
arithmetic, so a wrong answer from the program cannot also be the
expected answer. Each ``check_*`` function takes a command's stdout and
exit code and returns None when the output is right, or a one-line
description of the first problem found.
"""

from __future__ import annotations

import json
import math

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1


def prime_powers(r: int) -> list[tuple[int, int]]:
    """(p, k) for every prime p with p^k exactly dividing r, increasing p."""
    out = []
    p = 2
    while p * p <= r:
        if r % p == 0:
            k = 0
            while r % p == 0:
                r //= p
                k += 1
            out.append((p, k))
        p += 1
    if r > 1:
        out.append((r, 1))
    return out


def odd_primes(r: int) -> list[int]:
    return [p for p, _ in prime_powers(r) if p != 2]


def units(r: int) -> list[int]:
    return [u for u in range(1, r) if math.gcd(u, r) == 1]


def totient(r: int) -> int:
    out = r
    for p, _ in prime_powers(r):
        out = out // p * (p - 1)
    return out


def phitilde(r: int) -> int:
    """Least n with more than one class: p + 1 for the least odd prime p of
    r when 4 does not divide r, min(6, p + 1) when it does, 6 for powers
    of two."""
    primes = odd_primes(r)
    if not primes:
        return 6
    if r % 4 == 0:
        return min(6, primes[0] + 1)
    return primes[0] + 1


def lower_bound(r: int, n: int) -> int:
    """Product of (p - 1)^(n - p) over the odd primes p of r with p < n."""
    out = 1
    for p in odd_primes(r):
        if n > p:
            out *= (p - 1) ** (n - p)
    return out


def signature(r: int, m: list[int]) -> list[list[int]]:
    """For each odd prime p of r: prod(m_{t+1} .. m_{t+p-1}) mod p, t = 1 .. n-p."""
    n = len(m)
    windows = []
    for p in odd_primes(r):
        row = []
        for t in range(1, n - p + 1):
            acc = 1
            for s in range(t + 1, t + p):  # 1-based positions
                acc = acc * m[s - 1] % p
            row.append(acc)
        windows.append(row)
    return windows


def path_matrix(r: int, m: list[int]) -> list[list[int]]:
    """Legal-path counts from (i, 0) to (j, 0), counted on the graph itself.

    Vertex (s, t) has a horizontal edge to (s, t + m_s) and a vertical edge
    to (s + 1, t). A legal path leaves (i, 0), walks through nonzero columns,
    steps into column 0 inside some subgraph s <= j, and then only descends
    vertically to (j, 0). ``walks[t]`` counts the zero-avoiding walks from
    (i, 0) that end at (s, t); within a subgraph they are accumulated along
    the cycle 0 -> m_s -> 2 m_s -> ..., which meets column 0 only at its ends.
    """
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        # In the starting subgraph each nonzero column is reached by one
        # walk, straight along the cycle from (i, 0).
        walks = [0] + [1] * (r - 1)
        closed = walks[-m[i] % r]
        out[i][i] = closed
        for s in range(i + 1, n):
            step = m[s] % r
            here = [0] * r
            t, prev = step, 0
            while t != 0:
                prev = here[t] = walks[t] + prev
                t = (t + step) % r
            walks = here
            closed += walks[-step % r]
            out[i][s] = closed
    return out


def _matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _unipotent_upper(u: list[list[int]], n: int) -> bool:
    if len(u) != n or any(len(row) != n for row in u):
        return False
    return all(u[i][i] == 1 and not any(u[i][:i]) for i in range(n))


def witness_problem(a: list[list[int]], b: list[list[int]], u: list[list[int]], v: list[list[int]]) -> str | None:
    """None when U, V are unipotent upper triangular and U(A - I) = (B - I)V."""
    n = len(a)
    if not _unipotent_upper(u, n) or not _unipotent_upper(v, n):
        return "witness U or V is not unipotent upper triangular"
    a_minus = [[a[i][j] - (i == j) for j in range(n)] for i in range(n)]
    b_minus = [[b[i][j] - (i == j) for j in range(n)] for i in range(n)]
    if _matmul(u, a_minus) != _matmul(b_minus, v):
        return "witness fails U(A - I) = (B - I)V"
    return None


def obstruction_problem(a: list[list[int]], b: list[list[int]], obs: dict) -> str | None:
    """None when k divides every non-corner strictly-upper entry of both
    matrices and the corners differ modulo k, which proves non-equivalence."""
    n = len(a)
    k = int(obs["k"])
    if k < 2 or list(obs["position"]) != [1, n]:
        return f"obstruction has modulus {k} at {obs['position']}, not a corner certificate"
    for mat in (a, b):
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) != (0, n - 1) and mat[i][j] % k:
                    return f"obstruction modulus {k} does not divide entry ({i + 1}, {j + 1})"
    if (a[0][n - 1] - b[0][n - 1]) % k == 0:
        return f"corners agree modulo {k}"
    return None


def _load(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _normalized(r: int, n: int, m: list[int]) -> bool:
    return (
        len(m) == n
        and all(0 < v < r and math.gcd(v, r) == 1 for v in m)
        and all(m[i] == 1 for i in {0, min(1, n - 1), n - 1})
    )


def check_classes(stdout: str, code: int, r: int, n: int, reference_phi: int | None) -> str | None:
    """``classes --format json``: sizes sum to phi(r)^(n-3), representatives
    are normalized and carry their own signatures, and phi matches the
    proven product (4 not dividing r) or the reference count (4 | r)."""
    if code != EXIT_OK:
        return f"exit code {code}"
    part, err = _load(stdout)
    if err:
        return err
    classes = part["classes"]
    if part["phi"] != len(classes):
        return f"phi {part['phi']} but {len(classes)} classes listed"
    expected_vectors = totient(r) ** max(n - 3, 0)
    total = sum(c["size"] for c in classes)
    if total != expected_vectors:
        return f"class sizes sum to {total}, expected {expected_vectors}"
    primes = odd_primes(r)
    for c in classes:
        m = c["representative_m"]
        if not _normalized(r, n, m):
            return f"representative {m} is not normalized"
        sig = c["signature"]
        if sig["primes"] != primes or sig["windows"] != signature(r, m):
            return f"signature of {m} is {sig}, expected {primes} {signature(r, m)}"
    bound = lower_bound(r, n)
    if part["phi"] < bound:
        return f"phi {part['phi']} below the proven bound {bound}"
    if r % 4:
        if part["phi"] != bound:
            return f"phi {part['phi']} differs from the product {bound}"
    elif reference_phi is None:
        return f"no reference count for 4 | r cell ({r}, {n})"
    elif part["phi"] != reference_phi:
        return f"phi {part['phi']} differs from the reference {reference_phi}"
    return None


def check_verify(stdout: str, code: int, rs: list[int], n_max: int, reference: dict) -> str | None:
    """``verify --suite conjectures --format json``: one passing report per
    (r, n), each with the right phi."""
    if code != EXIT_OK:
        return f"exit code {code}"
    reports, err = _load(stdout)
    if err:
        return err
    cells = [(r, n) for r in rs for n in range(1, n_max + 1)]
    if [(rep["r"], rep["n"]) for rep in reports] != cells:
        return "reports do not cover the requested grid in order"
    for rep in reports:
        r, n, phi = rep["r"], rep["n"], rep["phi"]
        bound = lower_bound(r, n)
        if phi < bound or rep["lower_bound"] != bound:
            return f"({r}, {n}): phi {phi}, bound {rep['lower_bound']}, expected bound {bound}"
        if r % 4:
            if phi != bound:
                return f"({r}, {n}): phi {phi} differs from the product {bound}"
            claims = (rep["signature_iff"], rep["counts_match"], rep["equal_sizes_vectors"])
            if claims != (True, True, True):
                return f"({r}, {n}): conjecture verdicts {claims}"
        elif phi != reference.get(f"{r},{n}"):
            return f"({r}, {n}): phi {phi} differs from the reference {reference.get(f'{r},{n}')}"
    return None


def check_phitilde(stdout: str, code: int, r: int) -> str | None:
    """``phitilde --format json``: the search finds phitilde(r)."""
    if code != EXIT_OK:
        return f"exit code {code}"
    payload, err = _load(stdout)
    if err:
        return err
    expected = phitilde(r)
    if payload["search"] != expected or payload["formula"] != expected or payload["match"] is not True:
        return f"phitilde({r}): search {payload['search']}, formula {payload['formula']}, expected {expected}"
    return None


def check_matrix(stdout: str, code: int, r: int, m: list[int]) -> str | None:
    """``matrix`` (plain): upper triangular with forced entries 1, r and
    r(r+1)/2; p^k divides entry (a, b) for 0 < b - a < p; the all-ones
    vector gives C(r - 1 + j - i, j - i)."""
    if code != EXIT_OK:
        return f"exit code {code}"
    rows, err = _load(stdout)
    if err:
        return err
    n = len(m)
    if len(rows) != n or any(len(row) != n for row in rows):
        return f"matrix is not {n}x{n}"
    forced = {0: 1, 1: r, 2: r * (r + 1) // 2}
    for i in range(n):
        for j in range(n):
            if j < i and rows[i][j] != 0:
                return f"entry ({i + 1}, {j + 1}) below the diagonal is {rows[i][j]}"
            if j - i in forced and rows[i][j] != forced[j - i]:
                return f"forced entry ({i + 1}, {j + 1}) is {rows[i][j]}, expected {forced[j - i]}"
    for p, k in prime_powers(r):
        if p == 2:
            continue
        for i in range(n):
            for j in range(i + 1, min(i + p, n)):
                if rows[i][j] % p**k:
                    return f"{p}^{k} does not divide entry ({i + 1}, {j + 1})"
    if all(v == 1 for v in m):
        for d in range(n):
            expected = math.comb(r - 1 + d, d)
            for i in range(n - d):
                if rows[i][i + d] != expected:
                    return f"entry ({i + 1}, {i + d + 1}) differs from C({r - 1 + d}, {d})"
    return None


def check_equiv(stdout: str, code: int, r: int, m1: list[int], m2: list[int], expected: bool | None) -> str | None:
    """``equiv --format json``: the exit code agrees with the verdict, the
    verdict equals the theorem-backed one when ``expected`` is not None,
    and every witness or corner obstruction checks out."""
    if code not in (EXIT_OK, EXIT_NOT_EQUIVALENT):
        return f"exit code {code}"
    payload, err = _load(stdout)
    if err:
        return err
    verdict = payload["equivalent"]
    if verdict is not (code == EXIT_OK):
        return f"exit code {code} but equivalent is {verdict}"
    if expected is not None and verdict is not expected:
        return f"verdict {verdict}, theorem says {expected}"
    a = path_matrix(r, m1)
    b = path_matrix(r, m2)
    if verdict:
        w = payload["witness"]
        if w is None:
            return "Equivalent without a witness"
        u = [[int(x) for x in row] for row in w["U"]]
        v = [[int(x) for x in row] for row in w["V"]]
        return witness_problem(a, b, u, v)
    if payload["obstruction"] is not None:
        return obstruction_problem(a, b, payload["obstruction"])
    return None
