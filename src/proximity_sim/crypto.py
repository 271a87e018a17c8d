"""Asymmetric envelope encryption for contact ledgers.

Textbook RSA over Python's arbitrary-precision integers: enough to make
simulated ledgers opaque to their owners and to drive the key-escrow
protocol, deliberately without padding or other hardening.  Keys are
multi-prime in the sense of RFC 8017 section 3: the modulus is the
product of u distinct primes (two at 32 bits, three at 2048, four at
4096), and decryption goes through the Chinese Remainder Theorem (one
exponentiation mod each prime, recombined by Garner's formula), which
gives the same integer as c^d mod n at about a fifth of the cost for a
three-prime 2048-bit key.  Each prime comes from a seeded search:
trial division, then Miller-Rabin with MILLER_RABIN_ROUNDS[bit_length]
random witnesses, 9 rounds for the 682/683-bit primes of a 2048-bit key
and 6 for the 1024-bit primes of a 4096-bit one.  Those are the fewest
rounds for which the Damgard-Landrock-Pomerance bound on random
candidates (Math. Comp. 61, 177, 1993; HAC Fact 4.48) puts the chance
that a composite is accepted below 2^-128.  32-bit keys keep their 40
rounds, and with them their stream.  Security is still not a claim here: no
padding, no blinding and no check against faulty partial results.  The
contract that matters is decrypt(encrypt(m)) == m for every plaintext
below the modulus, deterministically per seed.

Also provides the reversible phone-number <-> integer packing used as
envelope plaintext, and a keyed digest used for one-time activation
tokens and for splitting replicate seeds.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import random
from dataclasses import dataclass
from functools import cache, cached_property

__all__ = [
    "KeyPair",
    "PublicKey",
    "SecretKey",
    "Envelope",
    "KeygenFailure",
    "PlaintextTooLarge",
    "KeyMismatch",
    "MalformedNumber",
    "generate_keypair",
    "keypair_from_primes",
    "encrypt",
    "decrypt",
    "encode_contact",
    "decode_contact",
    "keyed_digest",
    "derive_seed",
]

# primes per modulus: OpenSSL's multi-prime cap (2 below 1024 bits, 3
# below 4096, 4 below 8192)
PRIME_COUNT = {32: 2, 2048: 3, 4096: 4}
SUPPORTED_KEY_BITS = tuple(PRIME_COUNT)

# Miller-Rabin rounds per key size (see the module docstring); one round
# fewer gives 2^-123.2 at k = 683 and 2^-120.3 at k = 1024.  The bound needs
# k >= 21, and trial division already decides a 16-bit candidate exactly,
# so 32 keeps 40 rounds and every 32-bit key its stream.
MILLER_RABIN_ROUNDS = {32: 40, 2048: 9, 4096: 6}

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
]

_SIEVE_BOUND = 1 << 16


class KeygenFailure(Exception):
    """No valid public exponent found after bounded retries."""


class PlaintextTooLarge(Exception):
    """Plaintext integer does not fit below the modulus."""


class KeyMismatch(Exception):
    """Envelope was produced under a different keypair."""


class MalformedNumber(Exception):
    """Contact string outside the 5-15 digit grammar."""


@dataclass(frozen=True)
class PublicKey:
    modulus: int
    exponent: int

    @cached_property
    def key_tag(self) -> str:
        """Short stable fingerprint of this public key, hashed on first read."""
        material = b"pub:%d:%d" % (self.modulus, self.exponent)
        return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class SecretKey:
    """Private exponent d plus its RFC 8017 CRT form over u >= 2 primes:
    the primes r_i, exponents d_i = d mod (r_i - 1) and coefficients
    t_i = (r_1 * ... * r_(i-1))^-1 mod r_i, so t_1 = 1.  The modulus n is
    read from the public key."""

    exponent: int
    primes: tuple[int, ...]
    exponents: tuple[int, ...]
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    secret: SecretKey

    @property
    def key_tag(self) -> str:
        return self.public.key_tag


@dataclass(frozen=True)
class Envelope:
    """One encrypted contact: ciphertext plus the fingerprint of the key used."""

    ciphertext: int
    key_tag: str


@cache
def _sieve_product() -> int:
    """Product of the primes above _SMALL_PRIMES and below _SIEVE_BOUND.

    Built on first use (a few ms), so importing the package stays cheap.
    """
    flags = bytearray([1]) * _SIEVE_BOUND
    for i in range(2, math.isqrt(_SIEVE_BOUND) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, _SIEVE_BOUND, i)))
    factors = [i for i in range(_SMALL_PRIMES[-1] + 1, _SIEVE_BOUND) if flags[i]]
    while len(factors) > 1:  # balanced pairs; a running product is quadratic
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def _is_probable_prime(n: int, rand: random.Random, rounds: int) -> bool:
    """Miller-Rabin over `rounds` witnesses from the seeded stream.

    Trial division comes first: by _SMALL_PRIMES, then, for n above
    _SIEVE_BOUND, by every prime below it through one gcd with
    _sieve_product().  A composite it finds draws no witness.  The key
    search passes MILLER_RABIN_ROUNDS: 9 rounds for a 682/683-bit
    candidate and 6 for a 1024-bit one keep the Damgard-Landrock-Pomerance
    bound (HAC Fact 4.48) on accepting a composite below 2^-128.  A 16-bit
    candidate is decided exactly by _SMALL_PRIMES, since every composite
    below 2^16 has a factor below 256, and keeps its 40 rounds, so 32-bit
    keys are unchanged.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n > _SIEVE_BOUND and math.gcd(n, _sieve_product()) > 1:
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rand.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rand: random.Random, rounds: int) -> int:
    while True:
        candidate = rand.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rand, rounds):
            return candidate


def generate_keypair(seed: int, bit_length: int) -> KeyPair:
    """Deterministic textbook RSA keypair from a seeded prime search.

    bit_length 32 is the fast test scale; 2048 and 4096 are the sizes
    meant for scenario setup.  The modulus is the product of
    PRIME_COUNT[bit_length] distinct primes whose sizes sum to
    bit_length (683, 683 and 682 bits at 2048), drawn in turn from one
    seeded stream.  Each prime passes MILLER_RABIN_ROUNDS[bit_length]
    Miller-Rabin rounds: 40 at 32 bits, 9 at 2048 and 6 at 4096, the
    fewest for which HAC Fact 4.48 bounds the chance of a composite
    below 2^-128 (see the module docstring).  The public exponent is
    65537, falling back to 17 and then to fresh primes when the
    coprimality constraint with lcm(r_i - 1) fails.
    """
    if bit_length not in SUPPORTED_KEY_BITS:
        raise ValueError(f"bit_length must be one of {SUPPORTED_KEY_BITS}, got {bit_length}")
    rand = random.Random(seed)
    count = PRIME_COUNT[bit_length]
    rounds = MILLER_RABIN_ROUNDS[bit_length]
    sizes = [bit_length // count + (i < bit_length % count) for i in range(count)]
    for _ in range(64):
        primes = tuple(_random_prime(bits, rand, rounds) for bits in sizes)
        if len(set(primes)) < count:
            continue
        lam = math.lcm(*(r - 1 for r in primes))
        for e in (65537, 17):
            if math.gcd(e, lam) == 1:
                return _keypair(primes, e, pow(e, -1, lam))
    raise KeygenFailure(f"no usable exponent after bounded retries (seed={seed})")


def keypair_from_primes(*primes: int, e: int = 17) -> KeyPair:
    """Build a keypair from two or more fixed primes (textbook phi-based d).

    Used for frozen test vectors, e.g. 61, 53 and e=17 give the classic
    (n=3233, d=2753).  The primes must differ: for n = p^2 the phi used
    here is wrong and most round trips would fail.
    """
    if len(primes) < 2 or len(set(primes)) < len(primes):
        raise KeygenFailure(f"need two or more distinct primes, got {primes}")
    phi = math.prod(r - 1 for r in primes)
    if math.gcd(e, phi) != 1:
        raise KeygenFailure(f"exponent {e} shares a factor with phi")
    return _keypair(primes, e, pow(e, -1, phi))


def _keypair(primes: tuple[int, ...], e: int, d: int) -> KeyPair:
    """Assemble a keypair from distinct primes and matching exponents."""
    coefficients, product = [], 1
    for r in primes:
        coefficients.append(pow(product, -1, r))
        product *= r
    secret = SecretKey(
        exponent=d,
        primes=primes,
        exponents=tuple(d % (r - 1) for r in primes),
        coefficients=tuple(coefficients),
    )
    return KeyPair(PublicKey(product, e), secret)


def encrypt(public_key: PublicKey, plaintext: int) -> Envelope:
    """One-way envelope: plaintext^e mod n."""
    if plaintext < 0:
        raise PlaintextTooLarge("plaintext must be nonnegative")
    if plaintext >= public_key.modulus:
        raise PlaintextTooLarge(
            f"plaintext {plaintext} >= modulus {public_key.modulus}"
        )
    ciphertext = pow(plaintext, public_key.exponent, public_key.modulus)
    return Envelope(ciphertext=ciphertext, key_tag=public_key.key_tag)


def decrypt(pair: KeyPair, envelope: Envelope) -> int:
    """Invert an envelope produced under this pair's public key.

    Computes c^d mod n through the Chinese Remainder Theorem, one loop
    over the primes for any u >= 2 (RFC 8017 section 5.1.2, step 2b):
    with m the result so far modulo R = r_1 * ... * r_(i-1), each step
    adds R * ((c^d_i mod r_i - m) * t_i mod r_i).  The result is exact
    for every c in [0, n), including ciphertexts that share a factor with
    n.  No padding, no blinding and no fault check: not a security claim.
    """
    if envelope.key_tag != pair.key_tag:
        raise KeyMismatch(
            f"envelope tagged {envelope.key_tag}, key is {pair.key_tag}"
        )
    secret = pair.secret
    c = envelope.ciphertext
    if not 0 <= c < pair.public.modulus:
        raise ValueError("ciphertext outside the modulus range")
    m, product = 0, 1
    for r, d, t in zip(secret.primes, secret.exponents, secret.coefficients):
        m += product * ((pow(c, d, r) - m) * t % r)
        product *= r
    return m


def encode_contact(phone_number: str) -> int:
    """Pack a phone number into an integer, injectively and reversibly.

    Layout in decimal digits: a plus-flag digit (1 with '+', 2 without),
    two length digits, then the number's digits.  The length prefix keeps
    leading zeros significant.
    """
    if not phone_number:
        raise MalformedNumber("empty contact string")
    plus = phone_number.startswith("+")
    digits = phone_number[1:] if plus else phone_number
    if not digits.isdigit():
        raise MalformedNumber(f"non-digit characters in {phone_number!r}")
    if not 5 <= len(digits) <= 15:
        raise MalformedNumber(
            f"expected 5-15 digits, got {len(digits)} in {phone_number!r}"
        )
    flag = "1" if plus else "2"
    return int(f"{flag}{len(digits):02d}{digits}")


def decode_contact(value: int) -> str:
    """Inverse of encode_contact."""
    if value < 0:
        raise MalformedNumber("negative encoding")
    text = str(value)
    if len(text) < 8 or text[0] not in "12":
        raise MalformedNumber(f"{value} is not a packed contact")
    length = int(text[1:3])
    digits = text[3:]
    if not 5 <= length <= 15 or len(digits) != length:
        raise MalformedNumber(f"{value} has an inconsistent length prefix")
    return ("+" if text[0] == "1" else "") + digits


def _as_bytes(value: bytes | str | int) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    return value.to_bytes((value.bit_length() + 63) // 64 * 8 or 8, "big")


def keyed_digest(key: bytes | str | int, message: bytes | str | int) -> bytes:
    """Deterministic 256-bit keyed hash (HMAC-SHA256)."""
    return hmac.new(_as_bytes(key), _as_bytes(message), hashlib.sha256).digest()


def derive_seed(base_seed: int, index: int) -> int:
    """Split one 64-bit seed into independent per-stream seeds.

    Replicate r of an ensemble gets derive_seed(base, r); streams are
    order-free, so replicates can run in any order or in parallel.
    """
    token = keyed_digest(base_seed & 0xFFFFFFFFFFFFFFFF, b"stream:" + _as_bytes(index))
    return int.from_bytes(token[:8], "big")
