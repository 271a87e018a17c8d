"""Asymmetric envelope encryption for contact ledgers.

Textbook RSA over Python's arbitrary-precision integers: enough to make
simulated ledgers opaque to their owners and to drive the key-escrow
protocol, deliberately without padding or other hardening.  Decryption
goes through the Chinese Remainder Theorem (two half-size
exponentiations mod p and mod q, recombined), which gives the same
integer as c^d mod n at about a third of the cost.  Security is still
not a claim here: no padding, no blinding and no check against faulty
half-results.  The contract that matters is decrypt(encrypt(m)) == m for
every plaintext below the modulus, deterministically per seed.

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

SUPPORTED_KEY_BITS = (32, 2048, 4096)

MILLER_RABIN_ROUNDS = 40

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
    """Private exponent d plus the CRT form of it: the primes p and q,
    dp = d mod (p-1), dq = d mod (q-1) and q_inv = q^-1 mod p."""

    modulus: int
    exponent: int
    p: int
    q: int
    dp: int
    dq: int
    q_inv: int


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    secret: SecretKey

    def __post_init__(self) -> None:
        if self.public.modulus != self.secret.modulus:
            raise ValueError("public and secret halves disagree on the modulus")

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


def _is_probable_prime(n: int, rand: random.Random, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin with witnesses drawn from the seeded stream.

    A round passes only if a^(n-1) = 1 mod n, hence mod every divisor of
    n.  So when n shares a factor g with the primes below _SIEVE_BOUND, a
    witness with a^(n-1) != 1 mod g fails its round without the full
    modular exponentiation; about half the composites that reach the
    rounds in a 2048-bit key search end there.  Every round still draws
    its witness, so the stream, and with it every key, is the same as
    without the shortcut.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    shared = math.gcd(n, _sieve_product()) if n > _SIEVE_BOUND else 1
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rand.randrange(2, n - 1)
        if shared > 1 and pow(a, n - 1, shared) != 1:
            return False
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


def _random_prime(bits: int, rand: random.Random) -> int:
    while True:
        candidate = rand.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rand):
            return candidate


def generate_keypair(seed: int, bit_length: int) -> KeyPair:
    """Deterministic textbook RSA keypair from a seeded prime search.

    bit_length 32 is the fast test scale; 2048 and 4096 are the sizes
    meant for scenario setup.  The public exponent is 65537, falling back
    to 17 and then to fresh primes when the coprimality constraint with
    lcm(p-1, q-1) fails.
    """
    if bit_length not in SUPPORTED_KEY_BITS:
        raise ValueError(f"bit_length must be one of {SUPPORTED_KEY_BITS}, got {bit_length}")
    rand = random.Random(seed)
    half = bit_length // 2
    for _ in range(64):
        p = _random_prime(half, rand)
        q = _random_prime(half, rand)
        if p == q:
            continue
        lam = math.lcm(p - 1, q - 1)
        for e in (65537, 17):
            if math.gcd(e, lam) == 1:
                return _keypair(p, q, e, pow(e, -1, lam))
    raise KeygenFailure(f"no usable exponent after bounded retries (seed={seed})")


def keypair_from_primes(p: int, q: int, e: int = 17) -> KeyPair:
    """Build a keypair from fixed primes (textbook phi-based construction).

    Used for frozen test vectors, e.g. p=61, q=53, e=17 gives the classic
    (n=3233, d=2753).  The primes must differ: for n = p^2 the phi used
    here is wrong and most round trips would fail.
    """
    if p == q:
        raise KeygenFailure(f"p and q must be distinct primes, got p = q = {p}")
    phi = (p - 1) * (q - 1)
    if math.gcd(e, phi) != 1:
        raise KeygenFailure(f"exponent {e} shares a factor with phi")
    return _keypair(p, q, e, pow(e, -1, phi))


def _keypair(p: int, q: int, e: int, d: int) -> KeyPair:
    """Assemble a keypair from distinct primes and matching exponents."""
    secret = SecretKey(
        modulus=p * q,
        exponent=d,
        p=p,
        q=q,
        dp=d % (p - 1),
        dq=d % (q - 1),
        q_inv=pow(q, -1, p),
    )
    return KeyPair(PublicKey(secret.modulus, e), secret)


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

    Computes c^d mod n through the Chinese Remainder Theorem (Garner's
    recombination of c^dp mod p and c^dq mod q).  The result is exact for
    every c in [0, n), including ciphertexts that share a factor with n.
    No padding, no blinding and no fault check: not a security claim.
    """
    if envelope.key_tag != pair.key_tag:
        raise KeyMismatch(
            f"envelope tagged {envelope.key_tag}, key is {pair.key_tag}"
        )
    secret = pair.secret
    c = envelope.ciphertext
    if not 0 <= c < secret.modulus:
        raise ValueError("ciphertext outside the modulus range")
    mp = pow(c, secret.dp, secret.p)
    mq = pow(c, secret.dq, secret.q)
    return mq + secret.q * ((mp - mq) * secret.q_inv % secret.p)


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
