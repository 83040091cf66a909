import pickle
import tracemalloc

import numpy as np
import pytest

from isogauss import cli, field, prime_context, legendre
from isogauss.quadform import int_dtype


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
    chi = field.chi_table(ctx7)
    assert chi[0] == 0
    squares = {(x * x) % 7 for x in range(1, 7)}
    for a in range(1, 7):
        assert chi[a] == (1 if a in squares else -1)
    # multiplicativity
    for a in range(1, 7):
        for b in range(1, 7):
            assert chi[(a * b) % 7] == chi[a] * chi[b]


def test_contexts_are_built_once_per_prime():
    assert prime_context(100003) is prime_context(100003)
    assert prime_context(7) is not prime_context(11)
    assert field.chi_table(prime_context(101)) is field.chi_table(prime_context(101))
    # a failed build is not cached: a non-prime raises on every call
    for _ in range(3):
        with pytest.raises(ValueError):
            prime_context(4)


@pytest.mark.parametrize("p", (3, 5, 7, 181, 191, 46337, 46349, 100003))
def test_tables_match_the_scalar_definitions(p):
    ctx = prime_context(p)
    chi = field.chi_table(ctx)
    assert chi.dtype == np.int8 and not chi.flags.writeable
    squares = {(a * a) % p for a in range(1, p)}
    assert chi.tolist() == [
        0 if a == 0 else (1 if a in squares else -1) for a in range(p)
    ]
    assert [legendre(ctx, a) for a in range(p)] == chi.tolist()
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


def _check_tables(p, sample):
    # chi_table against Euler's criterion
    ctx = prime_context(p)
    chi = field.chi_table(ctx)
    assert not chi.flags.writeable and chi[0] == 0
    sample = np.array(sample, int_dtype(p))
    assert chi[sample].tolist() == [field._euler(p, a) for a in sample.tolist()], p


def test_tables_agree_with_euler_and_pow_below_2000():
    for p in range(3, 2000, 2):
        if field._is_prime(p):
            _check_tables(p, range(1, p))


@pytest.mark.parametrize("p", (2039, 10007, 46337, 46349, 65537, 100003, 1000003))
def test_tables_agree_with_euler_and_pow_at_sampled_points(p):
    # 65537: p - 1 = 2^16; 2039: a safe prime, p - 1 = 2 * 1019;
    # 46337 and 46349 straddle (p-1)^2 = 2^31
    rng = np.random.default_rng(p)
    sample = {1, 2, p - 2, p - 1}
    sample.update(rng.integers(1, p, 2000).tolist())
    _check_tables(p, sorted(sample))


def test_chi_table_stays_within_a_few_bytes_per_residue():
    # the squares are taken in place: one int64 per square and one int8
    # per residue, about 5 MB at p = 1000003
    ctx = prime_context(1000003)
    field.clear_caches()
    tracemalloc.start()
    try:
        field.chi_table(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


def test_prime_cache_counts_a_scripted_sequence(monkeypatch):
    # a cache of the test's own, registered apart from the package's
    monkeypatch.setattr(field, "_CACHES", [])
    built = []

    @field.prime_cache(entries=4, keep=lambda p, k: k >= 0)
    def residues(p, k):
        built.append((p, k))
        return np.arange(k, dtype=np.int64) % p

    assert field._CACHES == [residues] and residues.__wrapped__(3, 2).flags.writeable
    assert residues(3, 4).tolist() == [0, 1, 2, 0]  # miss
    assert residues(3, 4) is residues(3, 4)  # two hits
    assert not residues(3, 4).flags.writeable  # a hit
    residues(3, 2)  # miss
    residues(5, 1)  # miss, a second prime
    residues(3, 2)  # hit
    residues(3, -1), residues(3, -1)  # two misses, not kept
    with pytest.raises(TypeError) as plain:
        residues.__wrapped__(3, [1])
    with pytest.raises(TypeError) as cached:
        residues(3, [1])  # a miss, on the function's own error
    assert str(cached.value) == str(plain.value) and cached.value.__context__ is None
    assert residues(3, k=4).flags.writeable  # keyword arguments: a miss, not kept
    assert residues.cache_info() == (4, 7, 2, 3)
    assert residues.cache_keys() == [(3, 4), (3, 2), (5, 1)]
    assert built[1:] == [(3, 4), (3, 2), (5, 1), (3, -1), (3, -1), (3, [1]), (3, [1]), (3, 4)]
    # the fifth entry drops the oldest one of the oldest prime, and the
    # last one of a prime drops the prime
    residues(7, 1), residues(7, 2)
    assert residues.cache_keys() == [(3, 2), (5, 1), (7, 1), (7, 2)]
    residues(7, 3), residues(7, 4)
    assert residues.cache_keys() == [(7, 1), (7, 2), (7, 3), (7, 4)]
    assert residues.cache_info() == (4, 11, 1, 4)

    # at most CACHED_PRIMES primes, the oldest going first
    @field.prime_cache
    def square(p):
        return p * p

    primes = [p for p in range(3, 400) if field._is_prime(p)][:40]
    for p in primes:
        square(p), square(p)
    assert [key[0] for key in square.cache_keys()] == primes[-field.CACHED_PRIMES :]
    assert square.cache_info() == (40, 40, field.CACHED_PRIMES, field.CACHED_PRIMES)
    field.clear_caches()
    for cache in (residues, square):
        assert cache.cache_info() == (0, 0, 0, 0) and cache.cache_keys() == []


def test_package_caches_count_a_scripted_sequence():
    # from cold caches: one context and one g* per prime, whatever
    # the number of calls, and clear_caches starts the counts again
    from isogauss.cyclotomic import g_star_one

    field.clear_caches()
    for _ in range(3):
        g_star_one(prime_context(7))
    prime_context(11)
    counts = {c.__name__: tuple(c.cache_info()) for c in field._CACHES if c.cache_info().misses}
    assert counts == {
        "prime_context": (2, 2, 2, 2),
        "chi_table": (0, 1, 1, 1),
        "g_star_shape": (0, 1, 1, 1),
        "g_star_one": (2, 1, 1, 1),
    }
    field.clear_caches()
    assert all(c.cache_info() == (0, 0, 0, 0) for c in field._CACHES)
