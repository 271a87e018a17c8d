from __future__ import annotations

import functools
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proximity_sim.crypto import (
    Envelope,
    KeyMismatch,
    KeyPair,
    KeygenFailure,
    MILLER_RABIN_ROUNDS,
    PRIME_COUNT,
    MalformedNumber,
    PlaintextTooLarge,
    _is_probable_prime,
    _random_prime,
    decode_contact,
    decrypt,
    derive_seed,
    encode_contact,
    encrypt,
    generate_keypair,
    keyed_digest,
    keypair_from_primes,
)


def slow_modexp(base: int, exponent: int, modulus: int) -> int:
    """Independent oracle: bit-by-bit square and multiply."""
    result = 1
    base %= modulus
    for bit in bin(exponent)[2:]:
        result = (result * result) % modulus
        if bit == "1":
            result = (result * base) % modulus
    return result


def primes_below(bound: int) -> list[int]:
    """Sieve of Eratosthenes, independent of the package's sieve."""
    flags = [True] * bound
    flags[:2] = [False, False]
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            for j in range(i * i, bound, i):
                flags[j] = False
    return [i for i, prime in enumerate(flags) if prime]


PRIMES_BELOW_2_16 = primes_below(1 << 16)


def plain_miller_rabin(n: int, rand: random.Random, rounds: int) -> bool:
    """Reference for candidates above 2^16: trial division by every prime
    below 2^16, then `rounds` Miller-Rabin rounds on the same witness
    stream.  A composite with a factor below 2^16 draws no witness."""
    for p in PRIMES_BELOW_2_16:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for _ in range(rounds):
        x = pow(rand.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def log2_dlp_bound(k: int, t: int) -> float:
    """log2 of the Damgard-Landrock-Pomerance bound on p_{k,t}, the chance
    that a random odd k-bit integer passing t Miller-Rabin rounds with
    random witnesses is composite (HAC Fact 4.48); the least of the parts
    that apply, and 0 (no bound) when none does."""
    parts = []
    if t == 1 and k >= 2:  # (i)
        parts.append(2 * math.log2(k) + 2 * (2 - math.sqrt(k)))
    if (t == 2 and k >= 88) or (3 <= t <= k / 9 and k >= 21):  # (ii)
        parts.append(1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k)))
    if k / 9 <= t <= k / 4 and k >= 21:  # (iii)
        parts.append(math.log2(7 / 20 * k * 2 ** (-5 * t)
                               + 1 / 7 * k ** 3.75 * 2 ** (-k / 2 - 2 * t)
                               + 12 * k * 2 ** (-k / 4 - 3 * t)))
    if t >= k / 4 and k >= 21:  # (iv)
        parts.append(math.log2(1 / 7) + 3.75 * math.log2(k) - k / 2 - 2 * t)
    return min(parts, default=0.0)


def prime_sizes(bits: int) -> set[int]:
    count = PRIME_COUNT[bits]
    return {bits // count + (i < bits % count) for i in range(count)}


@functools.cache
def big_keypair(seed: int, bits: int) -> KeyPair:
    """generate_keypair at 2048 or 4096 bits, searched once per module."""
    return generate_keypair(seed, bits)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = extended_gcd(b, a % b)
    return g, y, x - (a // b) * y


class TestKeygen:
    def test_toy_keypair_matches_extended_euclid(self):
        for primes, n, d in (((61, 53), 3233, 2753), ((61, 53, 59), 190747, 74513)):
            pair = keypair_from_primes(*primes, e=17)
            assert pair.public.modulus == n
            assert pair.public.exponent == 17
            # oracle: d from the extended Euclidean algorithm mod phi
            phi = math.prod(p - 1 for p in primes)
            _, x, _ = extended_gcd(17, phi)
            assert pair.secret.exponent == x % phi == d

    def test_32_bit_keys_unchanged(self):
        # sha256 of (n, e, d) for seeds 0-23, pinned from the two-prime
        # key search: 32-bit keys, and every world that uses them, keep
        # their stream whatever the prime count at larger sizes
        pairs = [generate_keypair(seed, 32) for seed in range(24)]
        material = "".join(
            f"{p.public.modulus},{p.public.exponent},{p.secret.exponent};" for p in pairs
        )
        assert hashlib.sha256(material.encode()).hexdigest() == (
            "05867257cf398f985665f18a6003b9149ba10412e761aab9681ec6c94e33d2d5"
        )

    def test_same_seed_same_keypair(self):
        assert generate_keypair(1234, 32) == generate_keypair(1234, 32)

    def test_distinct_seeds_distinct_moduli(self):
        moduli = {generate_keypair(seed, 32).public.modulus for seed in range(24)}
        assert len(moduli) == 24

    def test_unsupported_bit_length_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(1, 64)

    def test_prime_sizes_give_full_modulus(self):
        pair = generate_keypair(99, 32)
        assert 30 <= pair.public.modulus.bit_length() <= 32

    @pytest.mark.slow
    def test_2048_bit_accepted_and_round_trips(self):
        pair = generate_keypair(5, 2048)
        assert pair.public.modulus.bit_length() >= 2046
        message = encode_contact("+393331234567")
        assert decrypt(pair, encrypt(pair.public, message)) == message

    @pytest.mark.parametrize("bits", [20, 48, 64, 128])
    def test_sieve_shortcut_keeps_prime_and_stream(self, bits):
        # the key search must draw the same primes from the same stream
        # position as trial division below 2^16 then plain Miller-Rabin
        rounds = MILLER_RABIN_ROUNDS[2048]
        for seed in range(150):
            ours, plain = random.Random(seed), random.Random(seed)
            prime = _random_prime(bits, ours, rounds)
            while True:
                candidate = plain.getrandbits(bits) | (1 << (bits - 1)) | 1
                if plain_miller_rabin(candidate, plain, rounds):
                    break
            assert prime == candidate
            assert ours.getstate() == plain.getstate()

    def test_sieve_shortcut_on_carmichael_number(self):
        # 601 * 1201 * 1801: a^(n-1) = 1 for every a coprime to n, but each
        # factor is below 2^16, so the sieve rejects it before any witness
        n = 601 * 1201 * 1801
        for seed in range(200):
            ours, plain = random.Random(seed), random.Random(seed)
            assert not _is_probable_prime(n, ours, MILLER_RABIN_ROUNDS[2048])
            assert not plain_miller_rabin(n, plain, MILLER_RABIN_ROUNDS[2048])
            assert ours.getstate() == plain.getstate() == random.Random(seed).getstate()

    @pytest.mark.parametrize("bits", [2048, 4096])
    def test_rounds_meet_a_2_to_the_minus_128_bound(self, bits):
        # the fewest rounds whose bound is 2^-128 or less, for every prime size
        rounds = MILLER_RABIN_ROUNDS[bits]
        for k in prime_sizes(bits):
            assert log2_dlp_bound(k, rounds) <= -128
        assert max(log2_dlp_bound(k, rounds - 1) for k in prime_sizes(bits)) > -128

    def test_dlp_bound_matches_quoted_values(self):
        # the values HAC Fact 4.48 gives at the rounds just short of the table's
        assert log2_dlp_bound(683, 8) == pytest.approx(-123.2, abs=0.05)
        assert log2_dlp_bound(1024, 5) == pytest.approx(-120.3, abs=0.05)
        assert log2_dlp_bound(16, 40) == 0.0  # no bound below k = 21

    @pytest.mark.slow
    @pytest.mark.parametrize("seed, bits", [(0, 2048), (5, 2048), (11, 2048), (0, 4096)])
    def test_big_key_primes_pass_forty_independent_rounds(self, seed, bits):
        pair = big_keypair(seed, bits)
        check = random.Random(f"independent witnesses {seed}")
        for r in pair.secret.primes:
            assert plain_miller_rabin(r, check, 40)
        for number in ("+393331234567", "12345", "987654321012345"):
            message = encode_contact(number)
            assert decrypt(pair, encrypt(pair.public, message)) == message

    def test_shared_factor_exponent_rejected(self):
        # phi(7*29) = 168 = 8*21; e=21 shares a factor
        with pytest.raises(KeygenFailure):
            keypair_from_primes(7, 29, e=21)
        # n = 61**2 is not a product of distinct primes; (p-1)**2 is not its phi
        with pytest.raises(KeygenFailure):
            keypair_from_primes(61, 61, e=17)
        with pytest.raises(KeygenFailure):
            keypair_from_primes(61, 53, 61, e=17)
        with pytest.raises(KeygenFailure):
            keypair_from_primes(61, e=17)


def assert_big_key_matches_modexp_oracle(seed: int, bits: int, sizes: tuple[int, ...]) -> None:
    """A generated key has distinct primes of the given sizes, and CRT
    decrypt equals c^d mod n at the edges, at multiples of the primes
    and at random ciphertexts."""
    pair = big_keypair(seed, bits)
    n, d, primes = pair.public.modulus, pair.secret.exponent, pair.secret.primes
    assert len(set(primes)) == len(sizes) and math.prod(primes) == n
    assert tuple(r.bit_length() for r in primes) == sizes
    # each prime's top bit is set: the product loses at most a bit per extra prime
    assert bits - len(sizes) + 1 <= n.bit_length() <= bits
    rand = random.Random(seed)
    products = [a * b for i, a in enumerate(primes) for b in primes[i + 1 :]]
    randoms = [rand.randrange(n) for _ in range(4)]
    for c in [0, 1, n - 1, *primes, *products, *randoms]:
        envelope = Envelope(ciphertext=c, key_tag=pair.key_tag)
        assert decrypt(pair, envelope) == pow(c, d, n)


class TestEnvelope:
    def test_toy_vector(self):
        pair = keypair_from_primes(61, 53, e=17)
        envelope = encrypt(pair.public, 65)
        assert envelope.ciphertext == 2790 == slow_modexp(65, 17, 3233)
        assert decrypt(pair, envelope) == 65 == slow_modexp(2790, 2753, 3233)

    def test_fixed_points_zero_and_one(self):
        pair = keypair_from_primes(61, 53, e=17)
        assert encrypt(pair.public, 0).ciphertext == 0
        assert encrypt(pair.public, 1).ciphertext == 1

    def test_plaintext_at_modulus_rejected(self):
        pair = keypair_from_primes(61, 53, e=17)
        with pytest.raises(PlaintextTooLarge):
            encrypt(pair.public, 3233)
        with pytest.raises(PlaintextTooLarge):
            encrypt(pair.public, -1)

    def test_key_mismatch_detected(self):
        pair_a = generate_keypair(1, 32)
        pair_b = generate_keypair(2, 32)
        envelope = encrypt(pair_a.public, 42)
        with pytest.raises(KeyMismatch):
            decrypt(pair_b, envelope)

    def test_round_trip_thousand_plaintexts(self):
        pair = generate_keypair(77, 32)
        modulus = pair.public.modulus
        for m in range(0, 1000):
            plaintext = (m * 2654435761) % modulus
            assert decrypt(pair, encrypt(pair.public, plaintext)) == plaintext

    def test_matches_modexp_oracle_on_generated_keys(self):
        for seed in range(4):
            pair = generate_keypair(seed, 32)
            for plaintext in (2, 65, 9999, pair.public.modulus - 2):
                envelope = encrypt(pair.public, plaintext)
                assert envelope.ciphertext == slow_modexp(
                    plaintext, pair.public.exponent, pair.public.modulus
                )
            # decrypt, including ciphertexts that share a factor with n
            n, secret = pair.public.modulus, pair.secret
            randoms = [(c * 2654435761 + seed) % n for c in range(1, 9)]
            p, q = secret.primes
            for c in [0, 1, p, q, 2 * q, n - 1, *randoms]:
                envelope = Envelope(ciphertext=c, key_tag=pair.key_tag)
                assert decrypt(pair, envelope) == slow_modexp(c, secret.exponent, n)
        toy = keypair_from_primes(61, 53, e=17)
        for c in range(3233):
            envelope = Envelope(ciphertext=c, key_tag=toy.key_tag)
            assert decrypt(toy, envelope) == slow_modexp(c, 2753, 3233)
        # at u = 3 the recombination runs a step that two primes never
        # reach, with a coefficient against the product of two primes
        trio = keypair_from_primes(61, 53, 59, e=17)
        for c in range(190747):
            envelope = Envelope(ciphertext=c, key_tag=trio.key_tag)
            assert decrypt(trio, envelope) == pow(c, 74513, 190747)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_2048_bit_keys_match_modexp_oracle(self, seed):
        assert_big_key_matches_modexp_oracle(seed, 2048, (683, 683, 682))

    @pytest.mark.slow
    def test_4096_bit_key_matches_modexp_oracle(self):
        assert_big_key_matches_modexp_oracle(0, 4096, (1024,) * 4)

    def test_contact_ciphertext_differs_from_plaintext(self, test_keypair):
        # sanity, not a security claim: packed contacts are not fixed points
        for number in ("+393331234567", "12345", "0012345"):
            packed = encode_contact(number)
            assert encrypt(test_keypair.public, packed).ciphertext != packed


@given(st.integers(min_value=0, max_value=3232))
@settings(max_examples=200, deadline=None)
def test_round_trip_is_identity_property(m):
    pair = keypair_from_primes(61, 53, e=17)
    assert decrypt(pair, encrypt(pair.public, m)) == m


class TestContactPacking:
    @pytest.mark.parametrize(
        "number", ["+393331234567", "12345", "00000", "987654321012345", "+55555"]
    )
    def test_round_trip(self, number):
        assert decode_contact(encode_contact(number)) == number

    def test_leading_zeros_are_significant(self):
        assert encode_contact("12345") != encode_contact("012345")

    def test_plus_is_significant(self):
        assert encode_contact("12345") != encode_contact("+12345")

    @pytest.mark.parametrize(
        "bad", ["1234", "1234567890123456", "", "+", "12a45", "+39 333", "123456789012345678"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(MalformedNumber):
            encode_contact(bad)

    def test_garbage_decode_rejected(self):
        for value in (-5, 0, 123, 99912345):
            with pytest.raises(MalformedNumber):
                decode_contact(value)


@given(
    st.booleans(),
    st.text(alphabet="0123456789", min_size=5, max_size=15),
)
@settings(max_examples=300, deadline=None)
def test_contact_packing_bijective_property(plus, digits):
    number = ("+" if plus else "") + digits
    assert decode_contact(encode_contact(number)) == number


class TestKeyedDigest:
    def test_deterministic(self):
        assert keyed_digest(b"k", b"m") == keyed_digest(b"k", b"m")
        assert keyed_digest(b"k", b"m") != keyed_digest(b"k2", b"m")

    def test_empty_message_accepted(self):
        token = keyed_digest(b"k", b"")
        assert len(token) == 32

    def test_avalanche(self):
        # flipping one message bit flips about half the output bits
        total = 0
        trials = 1000
        for i in range(trials):
            message = i.to_bytes(8, "big")
            flipped = (i ^ (1 << (i % 64))).to_bytes(8, "big")
            a = int.from_bytes(keyed_digest(b"avalanche", message), "big")
            b = int.from_bytes(keyed_digest(b"avalanche", flipped), "big")
            total += bin(a ^ b).count("1")
        mean_distance = total / trials
        assert 96 <= mean_distance <= 160

    def test_seed_derivation_spreads(self):
        seeds = {derive_seed(42, r) for r in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_int_and_str_inputs(self):
        assert keyed_digest(42, "x") == keyed_digest(42, "x")
        assert keyed_digest(42, 7) != keyed_digest(42, 8)


def test_slow_modexp_oracle_agrees_with_builtin():
    # the oracle itself is checked against naive repeated multiplication
    for base, exponent, modulus in ((3, 13, 97), (65, 17, 3233), (2, 60, 101)):
        naive = 1
        for _ in range(exponent):
            naive = (naive * base) % modulus
        assert slow_modexp(base, exponent, modulus) == naive == pow(base, exponent, modulus)
