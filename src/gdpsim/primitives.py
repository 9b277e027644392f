"""Deterministic cryptographic and randomness substrate.

Everything downstream (witness selection, consensus, inspections, adversary
behavior) draws from these primitives, so two runs with the same seed must be
byte-identical. The RNG is SplitMix64, re-specified here with published test
vectors so any port can reproduce the exact draw sequence.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

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


def float_sum(values):
    """``values`` added left to right from the int 0, as ``sum`` did before
    Python 3.12 made float sums compensated, so a written total does not
    depend on the interpreter. Sums of ints need no such care."""
    total = 0
    for v in values:
        total += v
    return total


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
    had, and no signature byte reaches any output file. Until that read,
    ``signed_by_construction`` decides whether the signature verifies from
    the public key and message captured at sign time, so an audit of an
    unread signature costs no Ed25519 work at all.
    ``Signature(sig=..., signer=...)`` builds one from explicit bytes, which
    every audit checks with Ed25519.
    Equality and hashing are on ``(sig, signer)``, as for any value.
    """

    __slots__ = ("_sig", "signer", "_key", "_public", "_message")

    def __init__(self, sig: bytes, signer: bytes):
        self._sig = sig
        self.signer = signer
        # set by sign: the parsed key and message until sig is read, and the
        # key's public half, which audits trust where ``signer`` may be reset
        self._key = self._public = self._message = None

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
    signature._key, signature._public, signature._message = \
        private, public, message
    return signature


def signed_by_construction(public: bytes, message: bytes,
                           signature: Signature) -> bool:
    """True iff ``signature`` is still unread and ``sign`` made it over
    ``message`` with the secret whose public half is ``public``. Its bytes,
    once computed, would then verify (RFC 8032 signing is deterministic), so
    no Ed25519 work is needed to know it. False for explicit bytes, for a
    read signature and for any other key or message: those need Ed25519."""
    return (signature._sig is None and signature._public == public
            and signature._message == message)


def verify(public: bytes, message: bytes, signature: Signature) -> bool:
    """True iff signature was produced over message by the paired secret."""
    if signature.signer != public:
        return False
    if signed_by_construction(public, message, signature):
        return True
    try:
        _public(public).verify(signature.sig, message)
        return True
    except InvalidSignature:
        return False


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# ``SeededRng.bytes`` runs SplitMix64 on up to ``_LANES`` words at once. Word
# j of a draw lives in bits [128 j, 128 j + 64) of one int, and the bits above
# it in that 128-bit lane take the carries and shifted-in bits of each step,
# which a mask clears before any of them could reach word j or a lane above.
# ``_LANE_CONSTANTS[w]`` holds, for a w-word draw, R with a 1 in each lane
# (state * R puts the state in every lane), G * I with I holding j + 1 in
# lane j (the j + 1 gamma steps word j is ahead), and the mask of every
# lane's low 64 bits. The table is fixed: its size never depends on a draw.
_LANES = 32


def _lane_constants(words: int) -> tuple[int, int, int]:
    ones = sum(1 << 128 * j for j in range(words))
    steps = sum(j + 1 << 128 * j for j in range(words))
    return ones, steps * _GAMMA, ones * _MASK64


_LANE_CONSTANTS = [_lane_constants(words) for words in range(_LANES + 1)]


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
        h = hashlib.sha256(self.seed.to_bytes(8, "big"))
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
        """The next ceil(n / 8) ``next_u64`` words, big-endian, cut to n.

        Up to ``_LANES`` words are drawn at once, in lanes of one int: see
        ``_LANE_CONSTANTS``. Longer draws take ``_LANES`` words at a time."""
        words = -(-n // 8)
        if words > _LANES:
            chunks = [self.bytes(8 * _LANES)
                      for _ in range((words - 1) // _LANES)]
            chunks.append(self.bytes(n - 8 * _LANES * len(chunks)))
            return b"".join(chunks)
        state = self._state
        ones, steps, low = _LANE_CONSTANTS[words]
        z = (state * ones + steps) & low
        z = ((z ^ z >> 30) & low) * _MIX1 & low
        z = ((z ^ z >> 27) & low) * _MIX2 & low
        z ^= z >> 31
        self._state = (state + words * _GAMMA) & _MASK64
        # Big-endian, lane j's low 64 bits are 8-byte chunk 2 * (words - j)
        # - 1, counted from 0: every second chunk read from the end is the
        # words in order. The chunks are copied as bytes, never read as
        # numbers, so the host's byte order plays no part.
        return memoryview(z.to_bytes(16 * words, "big")).cast("Q")[::-2] \
            .tobytes()[:n]

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


class FenwickWeights:
    """Non-negative float weights with exact prefix sums, updated and drawn
    from in O(log N): a Fenwick tree (Fenwick, "A New Data Structure for
    Cumulative Frequency Tables", 1994) over integers.

    A weight is held as a count of ``2**-shift`` units, where ``shift`` is
    the finest binary exponent any weight so far has needed. Every float is
    then held exactly and every sum is exact, whatever the order of the
    updates. A weight that needs a finer unit rescales the tree once, in
    O(N). ``values`` holds each position's units.
    """

    __slots__ = ("values", "total", "shift", "_tree", "_top")

    def __init__(self, weights):
        ratios = [w.as_integer_ratio() if w > 0 else (0, 1) for w in weights]
        self.shift = max((den.bit_length() - 1 for _, den in ratios), default=0)
        self.values = [num << (self.shift + 1 - den.bit_length())
                       for num, den in ratios]
        self.total = sum(self.values)
        n = len(self.values)
        tree = self._tree = [0, *self.values]
        for i in range(1, n + 1):
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]
        self._top = 1 << (n.bit_length() - 1) if n else 0

    def set(self, i: int, weight: float) -> None:
        """Make position ``i`` weigh ``weight``, or 0 if it is not positive."""
        units = 0
        if weight > 0:
            num, den = weight.as_integer_ratio()
            finer = den.bit_length() - 1 - self.shift
            if finer > 0:
                self.shift += finer
                self.values = [v << finer for v in self.values]
                self._tree = [v << finer for v in self._tree]
                self.total <<= finer
            units = num << (self.shift + 1 - den.bit_length())
        self.add(i, units - self.values[i])

    def add(self, i: int, units: int) -> None:
        """Add ``units`` to position ``i``; the weight must stay >= 0."""
        if not units:
            return
        self.values[i] += units
        self.total += units
        tree, n = self._tree, len(self.values)
        i += 1
        while i <= n:
            tree[i] += units
            i += i & -i

    def prefix_sum(self, i: int) -> int:
        """Units held by the first ``i`` positions."""
        tree, s = self._tree, 0
        while i:
            s += tree[i]
            i &= i - 1
        return s

    def draw(self, rng: SeededRng) -> int:
        """Position of one draw proportional to the weights (total > 0).

        ``x`` is ``rng.random()`` times the total, rounded once to a float.
        The draw is the first position whose exact prefix sum exceeds ``x``,
        and the last positive position when none does. Every sum is exact,
        so the pick depends neither on the order of past updates nor on how
        a Python version rounds float sums.
        """
        total, unit = self.total, 1 << self.shift
        num, den = (rng.random() * (total / unit)).as_integer_ratio()
        rest = num * unit // den  # a sum P exceeds x iff P exceeds floor(x)
        if rest >= total:
            rest = total - 1
        tree, n = self._tree, len(self.values)
        pos, step = 0, self._top
        while step:
            nxt = pos + step
            if nxt <= n:
                units = tree[nxt]
                if units <= rest:
                    pos = nxt
                    rest -= units
            step >>= 1
        return pos


def sample_without_replacement(rng: SeededRng, population, weights, k: int) -> list:
    """Weighted sampling without replacement: each seat is one exact
    ``FenwickWeights.draw`` over the items not yet picked, in O(log N).

    Items with zero weight are never selected. Raises InsufficientPopulation,
    before any draw, when fewer than k items carry positive weight.
    """
    if len(weights) != len(population):
        raise ValueError("population and weights must have equal length")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    tree = FenwickWeights(weights)
    positive = len(weights) - tree.values.count(0)
    if k > positive:
        raise InsufficientPopulation(
            f"need {k} positively weighted items, have {positive}"
        )
    out = []
    for _ in range(k):
        i = tree.draw(rng)
        out.append(population[i])
        tree.set(i, 0.0)
    return out
