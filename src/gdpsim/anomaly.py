"""Streaming anomaly detection over protocol event streams.

Point outliers use a sliding-window z-test whose cut is calibrated through
the Student-t predictive interval, so the configured threshold means "flag at
the two-sided normal tail of that many sigma" even though window mean and
std are estimated from finitely many samples. Changepoints use a two-sided
CUSUM on standardized residuals. Detectors are pure given (state, sample);
the world loop wires alerts to investigation and quarantine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist
from typing import Optional

from .errors import AlreadyQuarantined, WrongStage
from .onboarding import DeviceStatus
from .primitives import float_sum


class AlertKind(Enum):
    POINT_OUTLIER = "PointOutlier"
    CHANGEPOINT = "Changepoint"


@dataclass(frozen=True)
class AnomalyAlert:
    stream_id: str
    tick: int
    value: float
    z_score: float
    kind: AlertKind
    subject: str


# the ring of every stream that has not yet held a non-zero sample: read as
# an empty window, and replaced by a ``deque`` on the stream's first one
_NO_RING = ()


class StreamBaseline:
    """Window of the last W samples with exact running sums.

    ``fed`` counts every sample pushed, and ``ring`` holds the window's
    non-zero samples, oldest first, as ``(feed index, sample)`` pairs: the
    window is the last ``min(fed, window)`` samples, and a zero in it costs
    nothing but the count. Until its first non-zero sample a stream's
    ``ring`` is the shared empty ``_NO_RING``, so a stream that only ever
    sees zeros holds no ``deque``. A push adds the sample to ``s1`` and ``s2``,
    exact integer sums of x and x*x over the window's integral samples
    (every in-world stream: counts, 0/1 flags, sizes), or counts it in
    ``n_fractional`` (fractions, inf, nan); the push that moves a sample out
    of the window takes it out the same way. So an integral window's mean
    and variance are correctly rounded, while it fills and once it rolls
    alike; a non-integral sample makes them a two-pass recomputation over
    the window, within 1e-9 of a direct one.
    """

    __slots__ = ("stream_id", "window", "fed", "ring", "s1", "s2",
                 "n_fractional", "cusum_pos", "cusum_neg")

    def __init__(self, stream_id: str, window: int):
        self.stream_id = stream_id
        self.window = window
        self.fed = 0
        self.ring = _NO_RING
        self.s1 = 0
        self.s2 = 0
        self.n_fractional = 0
        # two-sided CUSUM accumulators over standardized residuals
        self.cusum_pos = 0.0
        self.cusum_neg = 0.0

    def push(self, sample: float) -> None:
        i = self.fed
        self.fed = i + 1
        ring = self.ring
        if ring and ring[0][0] == i - self.window:
            self._evict(ring.popleft()[1])
        if sample != 0:
            if ring is _NO_RING:
                ring = self.ring = deque()
            ring.append((i, sample))
            if float(sample).is_integer():
                k = int(sample)
                self.s1 += k
                self.s2 += k * k
            else:
                self.n_fractional += 1

    def push_zeros(self, count: int) -> None:
        """Push ``count`` zero samples, in O(non-zero samples they evict)."""
        self.fed += count
        cut = self.fed - self.window
        ring = self.ring
        while ring and ring[0][0] < cut:
            self._evict(ring.popleft()[1])

    def _evict(self, old: float) -> None:
        if float(old).is_integer():
            k = int(old)
            self.s1 -= k
            self.s2 -= k * k
        else:
            self.n_fractional -= 1

    def feed(self, sample: float, tick: int, subject: str = "",
             z_threshold: float = 3.0, drift: float = 0.5,
             limit: float = 5.0) -> tuple:
        """Run both detectors on one sample, then push it into the window.

        Returns ``(changepoint, point)`` alerts, each None when quiet. Both
        residuals are taken against the window as it stood before the
        sample entered; the first ``window`` samples build it silently.
        """
        cp = po = None
        if self.fed >= self.window:
            changepoint, self.cusum_pos, self.cusum_neg, point = self._judge(
                sample, z_threshold, drift, limit, self.cusum_pos,
                self.cusum_neg)
            if changepoint is not None:
                cp = AnomalyAlert(self.stream_id, tick, sample, changepoint,
                                  AlertKind.CHANGEPOINT, subject)
            if point is not None:
                po = AnomalyAlert(self.stream_id, tick, sample, point,
                                  AlertKind.POINT_OUTLIER, subject)
        self.push(sample)
        return cp, po

    def _judge(self, sample: float, z_threshold: float, drift: float,
               limit: float, pos: float, neg: float) -> tuple:
        """``(changepoint, pos, neg, point)`` for ``sample`` against the full
        window from CUSUMs ``pos`` and ``neg``, changing no state: each
        alert's z-score or None, and the CUSUMs after the sample.

        The changepoint test is a two-sided CUSUM over standardized
        residuals; an alarm scores the larger CUSUM, signed by the residual,
        and resets both. The point test compares ``|z|`` with the calibrated
        cut; a zero-std window treats any deviation as infinitely anomalous.
        """
        n = self.window
        mean, m2 = self._moments(n)
        var = m2 / (n - 1)
        std = math.sqrt(var) if var > 0 else 0.0
        z = 0.0 if std == 0.0 else (sample - mean) / std
        pos = max(0.0, pos + z - drift)
        neg = max(0.0, neg - z - drift)
        changepoint = point = None
        if pos > limit or neg > limit:
            stat = max(pos, neg)
            changepoint = stat if z >= 0 else -stat
            pos = neg = 0.0
        if std == 0.0:
            if sample != mean:
                point = math.inf
        elif abs(z) > calibrated_cut(z_threshold, n):
            point = z
        return changepoint, pos, neg, point

    def quiet_span(self, z_threshold: float = 3.0, drift: float = 0.5,
                   limit: float = 5.0) -> float:
        """How many zero samples ``push_zeros`` may take in ``feed``'s place
        before the stream's next sample must go through ``feed`` again.

        The stream is quiet when its window is integral, both CUSUMs are 0,
        and a 0 fed into the full window would raise no alert and leave
        both CUSUMs at 0, as ``_judge`` finds for ``feed``. Zeros then
        change nothing but the ring until one evicts a non-zero sample.
        That zero is still judged against the window it evicts from, so it
        is quiet too; the zero after it meets the changed sums and is due
        through ``feed``. A 0 into a warming window runs no detector and
        leaves the sums as they are, so the window that zeros would fill is
        judged now: if it is not quiet, the zero that fills it is due. 0
        when the full window is not quiet; inf when no zero can wake the
        stream.
        """
        if self.n_fractional or self.cusum_pos or self.cusum_neg:
            return 0
        n, fed, ring = self.window, self.fed, self.ring
        quiet = (None, 0.0, 0.0, None)
        if self._judge(0.0, z_threshold, drift, limit, 0.0, 0.0) != quiet:
            return max(0, n - 1 - fed)
        return ring[0][0] + n - fed + 1 if ring else math.inf

    def stats(self) -> tuple:
        """``(mean, sum of squared deviations)`` of a non-empty window."""
        return self._moments(min(self.fed, self.window))

    def _moments(self, n: int) -> tuple:
        """``stats`` of the last ``n`` samples, counting as zeros those that
        a window not yet full lacks."""
        if self.n_fractional == 0:
            s1 = self.s1
            return s1 / n, (n * self.s2 - s1 * s1) / n
        window = [0.0] * n  # oldest first
        start = self.fed - n
        for i, x in self.ring:
            window[i - start] = x
        mean = float_sum(window) / n
        return mean, float_sum((x - mean) ** 2 for x in window)

    def std(self) -> float:
        n = min(self.fed, self.window)
        if n < 2:
            return 0.0
        var = self.stats()[1] / (n - 1)
        return math.sqrt(var) if var > 0 else 0.0

    def warmed_up(self) -> bool:
        return self.fed >= self.window


def _t_quantile(p: float, df: int) -> float:
    """Upper-p t quantile via the Cornish-Fisher expansion (fine for df>=8)."""
    z = NormalDist().inv_cdf(p)
    g1 = (z ** 3 + z) / 4.0
    g2 = (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96.0
    g3 = (3 * z ** 7 + 19 * z ** 5 + 17 * z ** 3 - 15 * z) / 384.0
    g4 = (79 * z ** 9 + 776 * z ** 7 + 1482 * z ** 5 - 1920 * z ** 3 - 945 * z) / 92160.0
    return z + g1 / df + g2 / df ** 2 + g3 / df ** 3 + g4 / df ** 4


_cut_cache: dict = {}


def calibrated_cut(threshold: float, n: int) -> float:
    """z-statistic cut whose exceedance rate equals the normal threshold tail."""
    key = (threshold, n)
    cut = _cut_cache.get(key)
    if cut is None:
        tail = NormalDist().cdf(-threshold)
        cut = _t_quantile(1.0 - tail, n - 1) * math.sqrt(1.0 + 1.0 / n)
        _cut_cache[key] = cut
    return cut


def quarantine(world, subject: bytes, reason_ref) -> None:
    """Isolate a suspect active device from every protocol role until its
    review period ends."""
    status = world.devices[subject].status
    if status is DeviceStatus.QUARANTINED:
        raise AlreadyQuarantined(subject.hex())
    if status is not DeviceStatus.ACTIVE:
        raise WrongStage(f"device status is {status.value}")
    world.set_status(subject, DeviceStatus.QUARANTINED)
    world.quarantines[subject] = world.tick + world.cfg.anomaly.review_period
    world.log.append(world.tick, "quarantine", subject=world.hexes[subject],
                     reason=str(reason_ref))


def release_quarantine(world, subject: bytes) -> None:
    """End the subject's open quarantine, if it has one; the device turns
    active again."""
    if world.quarantines.pop(subject, None) is None:
        return
    if world.devices[subject].status is DeviceStatus.QUARANTINED:
        world.set_status(subject, DeviceStatus.ACTIVE)
    world.log.append(world.tick, "quarantine_release", subject=world.hexes[subject])


def release_due_quarantines(world) -> list[bytes]:
    """Auto-release after the review period."""
    released = [subject for subject, until in world.quarantines.items()
                if world.tick >= until]
    for subject in released:
        release_quarantine(world, subject)
    return released


def is_violation(kind: str, detail: dict) -> bool:
    """Whether an event of this kind and detail is a logged protocol
    violation: a commit mismatch, a rejected sync, or a failed revalidation
    or inspection."""
    if kind in ("commit_mismatch", "sync_rejected"):
        return True
    return (kind in ("revalidation", "inspection")
            and not detail.get("passed", True))


@dataclass
class InvestigationReport:
    """What ``investigate`` found; its ``investigation`` event logs the
    subject and the alert."""
    violations: list
    dispute_id: Optional[str] = None


def investigate(world, alert_ref: int) -> InvestigationReport:
    """Pull the subject's event-log slice around the alert and look for
    protocol violations; conclusive violations open an arbitration dispute.
    The slice is read by ref: only a violation is built as an ``Event``."""
    ticks, kinds, _, subjects, details = world.log.columns()
    subject = subjects[alert_ref]
    violations = [ref for ref in world.log.slice_around(
        ticks[alert_ref], world.cfg.anomaly.investigate_radius,
        subject=subject)
        if is_violation(kinds[ref], details[ref])]
    dispute_id = None
    if violations:
        from .arbitration import can_be_party, open_dispute
        subject_key = bytes.fromhex(subject)
        if can_be_party(world, subject_key):
            claim = {"category": "anomaly", "accused": subject,
                     "event_refs": violations}
            dispute_id = open_dispute(world, [subject_key], claim).id
    world.log.append(world.tick, "investigation", subject=subject,
                     alert_ref=alert_ref, violations=len(violations),
                     dispute=dispute_id or "")
    return InvestigationReport([world.log[ref] for ref in violations],
                               dispute_id)
