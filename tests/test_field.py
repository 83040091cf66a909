import pickle

import numpy as np
import pytest

from isogauss import cli, field, prime_context, legendre


def test_rejects_non_primes():
    for bad in (0, 1, 2, 4, 9, 15, -3):
        with pytest.raises(ValueError):
            prime_context(bad)


def test_epsilon_is_chi_of_minus_one():
    # epsilon = +1 exactly when p = 1 mod 4
    assert prime_context(3).epsilon == -1
    assert prime_context(5).epsilon == 1
    assert prime_context(7).epsilon == -1
    assert prime_context(11).epsilon == -1
    assert prime_context(13).epsilon == 1
    for p in (3, 5, 7, 11, 13, 17):
        ctx = prime_context(p)
        assert ctx.epsilon == legendre(ctx, p - 1)


def test_omega_is_least_nonsquare():
    assert prime_context(3).omega == 2
    assert prime_context(5).omega == 2
    assert prime_context(7).omega == 3
    assert prime_context(11).omega == 2
    for p in (3, 5, 7, 11):
        ctx = prime_context(p)
        assert legendre(ctx, ctx.omega) == -1
        # nothing smaller is a nonsquare
        for a in range(1, ctx.omega):
            assert legendre(ctx, a) == 1


def test_chi_table(ctx7):
    chi, _ = field.tables(ctx7)
    assert chi[0] == 0
    squares = {(x * x) % 7 for x in range(1, 7)}
    for a in range(1, 7):
        assert chi[a] == (1 if a in squares else -1)
    # multiplicativity
    for a in range(1, 7):
        for b in range(1, 7):
            assert chi[(a * b) % 7] == chi[a] * chi[b]


def test_inverse_table(ctx7):
    _, inv = field.tables(ctx7)
    for a in range(1, 7):
        assert (a * inv[a]) % 7 == 1


def test_contexts_are_built_once_per_prime():
    assert prime_context(100003) is prime_context(100003)
    assert prime_context(7) is not prime_context(11)
    assert field.tables(prime_context(101)) is field.tables(prime_context(101))
    # a failed build is not cached: a non-prime raises on every call
    for _ in range(3):
        with pytest.raises(ValueError):
            prime_context(4)


@pytest.mark.parametrize("p", (3, 5, 7, 181, 191, 46337, 46349, 100003))
def test_tables_match_the_scalar_definitions(p):
    ctx = prime_context(p)
    chi, inv = field.tables(ctx)
    assert (chi.dtype, inv.dtype) == (np.int8, np.int64)
    assert not chi.flags.writeable and not inv.flags.writeable
    squares = {(a * a) % p for a in range(1, p)}
    assert chi.tolist() == [
        0 if a == 0 else (1 if a in squares else -1) for a in range(p)
    ]
    assert [legendre(ctx, a) for a in range(p)] == chi.tolist()
    assert inv.tolist() == [0 if a == 0 else pow(a, p - 2, p) for a in range(p)]
    assert ctx.omega == next(a for a in range(2, p) if a not in squares)
    assert ctx.epsilon == (1 if p - 1 in squares else -1)


class _NoTables:
    def __getattr__(self, name):
        raise AssertionError(f"built a table with np.{name}")


def test_refuses_p_past_the_int64_products(monkeypatch):
    # (p-1)^2 <= 2^63-1 holds up to p = 3037000500; no table is built
    # on the way to the refusal, so a huge p fails at once
    monkeypatch.setattr(field, "np", _NoTables())
    for p in (3037000501, 3037000507, 2**61 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match=r"2\^63-1"):
            prime_context(p)
    # the largest p inside the limit gets as far as the primality test
    with pytest.raises(ValueError, match="odd prime"):
        prime_context(3037000500)


def test_table_at_a_huge_prime_builds_no_table(monkeypatch, capsys):
    # the closed forms read only p, omega and epsilon, so table runs at
    # any accepted p without an O(p) table
    monkeypatch.setattr(field, "np", _NoTables())
    argv = ["table", "--p", "1000000007", "--max-n", "6", "--format", "csv"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "1000000007,1,1,sq,1,0,1" in rows
    assert "1000000007,1,1,nonsq,1,0,-1" in rows
    # a context is three small ints, cheap to pickle into pool tasks
    assert len(pickle.dumps(prime_context(100003))) < 200


def test_eval_refuses_an_oversized_embedding(monkeypatch, capsys):
    # 10^9 + 6 coefficients are refused before any O(p) table is built
    monkeypatch.setattr(field, "np", _NoTables())
    assert cli.main(["eval", "--p", "1000000007", "--n", "1", "--rank", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and str(cli.MAX_EMBEDDING_DIGITS) in out.err
    monkeypatch.undo()
    # the benchmark's largest request, p - 1 times 306 digits, is served
    assert cli.main(["eval", "--p", "100003", "--n", "12", "--rank", "3"]) == 0
    assert len(capsys.readouterr().out) > 100002
