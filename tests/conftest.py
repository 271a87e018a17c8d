from __future__ import annotations

import pytest

from proximity_sim import crypto
from proximity_sim.crypto import KeyPair, keypair_from_primes

# Mersenne primes 2^61-1 and 2^89-1: a fast 150-bit pair, large enough to
# hold any packed contact, small enough that decryption costs microseconds.
M61 = 2**61 - 1
M89 = 2**89 - 1


@pytest.fixture(scope="session")
def test_keypair() -> KeyPair:
    return keypair_from_primes(M61, M89, e=65537)


@pytest.fixture
def decrypts(monkeypatch) -> list:
    """The envelopes the dispatch server decrypts, in call order."""
    calls = []
    original = crypto.decrypt
    monkeypatch.setattr(
        "proximity_sim.authority.decrypt",
        lambda pair, env: calls.append(env) or original(pair, env),
    )
    return calls
