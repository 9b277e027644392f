"""Deterministic cryptographic and randomness substrate.

Everything downstream (witness selection, consensus, inspections, adversary
behavior) draws from these primitives, so two runs with the same seed must be
byte-identical. The RNG is SplitMix64, re-specified here with published test
vectors so any port can reproduce the exact draw sequence.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import InsufficientPopulation

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

# A Digest is exactly 32 bytes (SHA-256); serialized as lowercase hex.
Digest = bytes


def digest(data: bytes) -> Digest:
    """SHA-256 digest of the input. Pure, no hidden state."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 identity: 32-byte public key, 32-byte secret seed."""

    public_key: bytes
    secret_key: bytes


class Signature:
    """Ed25519 signature by ``signer`` (the producer's public key).

    ``sign`` returns one whose bytes are computed the first time ``sig`` is
    read, from the private key and message it captured at sign time; the
    key and message are dropped after that read. Ed25519 is deterministic
    (RFC 8032, 5.1.6), so the bytes are those an eager signature would have
    had, and no signature byte reaches any output file: a signature that
    only an audit could read costs no Ed25519 work until the audit runs.
    ``Signature(sig=..., signer=...)`` builds one from explicit bytes.
    Equality and hashing are on ``(sig, signer)``, as for any value.
    """

    __slots__ = ("_sig", "signer", "_key", "_message")

    def __init__(self, sig: bytes, signer: bytes):
        self._sig = sig
        self.signer = signer
        self._key = self._message = None  # set by sign until sig is read

    @property
    def sig(self) -> bytes:
        if self._sig is None:
            self._sig = self._key.sign(self._message)
            self._key = self._message = None
        return self._sig

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        return self.signer == other.signer and self.sig == other.sig

    def __hash__(self):
        return hash((self.sig, self.signer))

    def __repr__(self):
        return f"Signature(sig={self.sig!r}, signer={self.signer!r})"


# parsed key objects are cached; reparsing dominates signing time otherwise
_private_keys: dict = {}   # secret -> (parsed private key, raw public key)
_public_keys: dict = {}


def _private(secret: bytes) -> tuple[Ed25519PrivateKey, bytes]:
    entry = _private_keys.get(secret)
    if entry is None:
        key = Ed25519PrivateKey.from_private_bytes(secret)
        entry = _private_keys[secret] = (key, key.public_key().public_bytes_raw())
    return entry


def _public(public: bytes) -> Ed25519PublicKey:
    key = _public_keys.get(public)
    if key is None:
        key = _public_keys[public] = Ed25519PublicKey.from_public_bytes(public)
    return key


def generate_keypair(rng: "SeededRng") -> KeyPair:
    """Derive a keypair from the seeded stream (keeps worlds reproducible)."""
    secret = rng.bytes(32)
    _, public = _private(secret)
    return KeyPair(public_key=public, secret_key=secret)


def sign(secret: bytes, message: bytes) -> Signature:
    """Deterministic Ed25519 signature over the message, computed on first
    read of its ``sig`` (see ``Signature``). The parsed key is captured now,
    so a later change of the signer's keypair cannot alter the bytes."""
    private, public = _private(secret)
    signature = Signature(None, public)
    signature._key, signature._message = private, message
    return signature


def verify(public: bytes, message: bytes, signature: Signature) -> bool:
    """True iff signature was produced over message by the paired secret."""
    if signature.signer != public:
        return False
    try:
        _public(public).verify(signature.sig, message)
        return True
    except InvalidSignature:
        return False


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SeededRng:
    """SplitMix64 counter generator.

    Test vectors (seed -> first three outputs of next_u64):
      0       -> 16294208416658607535, 7960286522194355700, 487617019471545679
      1234567 -> 6457827717110365317, 3203168211198807973, 9817491932198370423
    The seed=1234567 sequence matches the published SplitMix64 reference
    outputs, so independent ports can be checked against this file.

    Instances are single-owner: never share one between concurrent actors.
    `derive` hashes key material into a fresh independent substream, which is
    how per-purpose and per-target draws stay decoupled from call order.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def derive(self, *key_parts) -> "SeededRng":
        """Independent substream keyed by (seed, *key_parts)."""
        h = hashlib.sha256()
        h.update(self.seed.to_bytes(8, "big"))
        for part in key_parts:
            if isinstance(part, bytes):
                h.update(b"b" + part)
            elif isinstance(part, int):
                h.update(b"i" + part.to_bytes(16, "big", signed=True))
            else:
                h.update(b"s" + str(part).encode())
        return SeededRng(int.from_bytes(h.digest()[:8], "big"))

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) / (1 << 53)

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    def bytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += self.next_u64().to_bytes(8, "big")
        return bytes(out[:n])

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One normal draw per call (Box-Muller, cosine branch)."""
        u1 = 1.0 - self.random()  # avoid log(0)
        u2 = self.random()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def choice(self, seq):
        if not seq:
            raise InsufficientPopulation("cannot choose from an empty sequence")
        return seq[self.below(len(seq))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def sample(self, population, k: int) -> list:
        """k distinct items, uniform, without replacement."""
        n = len(population)
        if k > n:
            raise InsufficientPopulation(f"sample of {k} from population of {n}")
        pool = list(population)
        out = []
        for i in range(k):
            j = self.below(n - i)
            out.append(pool[j])
            pool[j] = pool[n - 1 - i]
        return out


def weighted_index(rng: SeededRng, weights: list) -> int:
    """Index of one draw proportional to positive ``weights``.

    The draw is the first index whose running sum exceeds ``rng.random()``
    times the total, and the last index when rounding leaves none. The total
    is the last running sum, added in list order as a ``t += w`` loop would,
    so the pick does not depend on how a Python version's ``sum`` rounds.
    """
    acc = list(accumulate(weights))
    x = rng.random() * acc[-1]
    return min(bisect_right(acc, x), len(acc) - 1)


def sample_without_replacement(rng: SeededRng, population, weights, k: int) -> list:
    """Weighted sampling without replacement by successive draws.

    Inclusion probability is monotone in weight; items with zero weight are
    never selected. Raises InsufficientPopulation when fewer than k items
    carry positive weight.
    """
    if len(weights) != len(population):
        raise ValueError("population and weights must have equal length")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    items = [item for item, w in zip(population, weights) if w > 0]
    positive = [w for w in weights if w > 0]
    if k > len(items):
        raise InsufficientPopulation(
            f"need {k} positively weighted items, have {len(items)}"
        )
    out = []
    for _ in range(k):
        idx = weighted_index(rng, positive)
        out.append(items.pop(idx))
        positive.pop(idx)
    return out
