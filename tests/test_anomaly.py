import math
import statistics
from fractions import Fraction

import pytest

from gdpsim import anomaly, transmission
from gdpsim.anomaly import (
    AlertKind,
    StreamBaseline,
    calibrated_cut,
    investigate,
    quarantine,
    release_due_quarantines,
)
from gdpsim.errors import AlreadyQuarantined
from gdpsim.onboarding import DeviceStatus
from gdpsim.primitives import SeededRng, digest
from gdpsim.scenarios import get_scenario
from gdpsim.world import run_world



W = 100


def test_a_stream_of_zeros_holds_no_ring():
    """Until its first non-zero sample a stream's ring is the one shared
    empty sentinel, read as an empty window; a stream keeps no
    ``__dict__``."""
    b = StreamBaseline("s", 4)
    for tick in range(10):
        b.feed(0.0, tick)
    b.push_zeros(5)
    assert b.ring is anomaly._NO_RING
    assert StreamBaseline("t", 4).ring is anomaly._NO_RING
    assert not hasattr(b, "__dict__")
    assert b.stats() == (0.0, 0.0)
    assert b.quiet_span() == math.inf
    b.push(2.0)
    assert list(b.ring) == [(15, 2.0)]


def feed(baseline, samples, z_threshold=3.0, drift=0.5, limit=5.0):
    """Stream samples through both detectors in the production order."""
    alerts = []
    for i, x in enumerate(samples):
        alerts.extend(a for a in baseline.feed(x, i, z_threshold=z_threshold,
                                               drift=drift, limit=limit)
                      if a is not None)
    return alerts


def test_constant_stream_never_alerts():
    b = StreamBaseline("s", W)
    alerts = feed(b, [5.0] * 500)
    assert alerts == []


def test_zero_std_any_deviation_alerts():
    b = StreamBaseline("s", W)
    feed(b, [5.0] * 200)
    _, alert = b.feed(5.0001, 200)
    assert alert is not None
    assert alert.kind is AlertKind.POINT_OUTLIER
    assert math.isinf(alert.z_score)


def test_warmup_silence_despite_wild_values():
    b = StreamBaseline("s", W)
    rng = SeededRng(50)
    wild = [rng.gauss(0, 1) * 1000 for _ in range(W - 1)]
    alerts = feed(b, wild)
    assert alerts == []
    assert not b.warmed_up()


def test_welford_matches_batch_recompute():
    b = StreamBaseline("s", W)
    rng = SeededRng(51)
    stream = [rng.gauss(3.0, 2.5) for _ in range(1000)]
    for i, x in enumerate(stream):
        b.push(x)
        window = stream[max(0, i + 1 - W):i + 1]
        direct_mean = statistics.fmean(window)
        assert abs(b.stats()[0] - direct_mean) <= 1e-9 * max(1.0, abs(direct_mean))
        if len(window) >= 2:
            direct_std = statistics.stdev(window)
            assert abs(b.std() - direct_std) <= 1e-9 * max(1.0, direct_std)


def _assert_exact(b, window):
    ints = [int(x) for x in window]
    n, s1, s2 = len(ints), sum(ints), sum(v * v for v in ints)
    assert b.stats() == (float(Fraction(s1, n)),
                         float(Fraction(n * s2 - s1 * s1, n)))


def test_fractional_sample_falls_back_then_exact_again():
    w = 10
    b = StreamBaseline("s", w)
    rng = SeededRng(56)
    # a large offset makes a two-pass m2 miss correct rounding often enough
    # that a window stuck on the fallback path fails the exact check
    base = 10 ** 6
    stream = [float(base + rng.below(20)) for _ in range(4 * w)]
    enters = 2 * w
    stream[enters] = base + 7.25  # joins after the roll, leaves w pushes later
    for i, x in enumerate(stream):
        b.push(x)
        window = stream[max(0, i + 1 - w):i + 1]
        mean = statistics.fmean(window)
        assert abs(b.stats()[0] - mean) <= 1e-9 * max(1.0, abs(mean))
        if len(window) >= 2:
            std = statistics.stdev(window)
            assert abs(b.std() - std) <= 1e-9 * max(1.0, std)
        if i >= enters + w:
            _assert_exact(b, window)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_samples_do_not_raise(bad):
    w = 5
    b = StreamBaseline("s", w)
    stream = [1.0] * (w + 2) + [bad] + [2.0, 3.0] * w
    feed(b, stream)
    _assert_exact(b, stream[-w:])


def test_point_alert_rate_calibrated():
    # stationary unit Gaussian: alert rate should sit at the two-sided
    # 3-sigma normal tail, 0.27% +- 0.1%
    b = StreamBaseline("s", W)
    rng = SeededRng(52)
    n = 100_000
    alerts = 0
    for i in range(n):
        if b.feed(rng.gauss(), i)[1] is not None:
            alerts += 1
    rate = alerts / (n - W)
    expected = 2 * statistics.NormalDist().cdf(-3.0)
    assert abs(rate - expected) < 0.001


def test_calibrated_cut_exceeds_raw_threshold():
    assert calibrated_cut(3.0, 100) > 3.0
    assert calibrated_cut(3.0, 1000) < calibrated_cut(3.0, 100)


def test_point_alert_z_exceeds_threshold():
    # the alert invariant: |z_score| > configured threshold
    b = StreamBaseline("s", W)
    rng = SeededRng(53)
    for i in range(W):
        b.push(rng.gauss())
    _, alert = b.feed(25.0, W)
    assert alert is not None and abs(alert.z_score) > 3.0


def test_cusum_detects_5sigma_shift_quickly():
    # offline oracle: the shift is injected at a known index, so detection
    # delay is measured directly against it
    delays = []
    for seed in range(200):
        b = StreamBaseline("s", W)
        rng = SeededRng(1000 + seed)
        shift_at = 150
        detected = None
        for i in range(400):
            x = rng.gauss() + (5.0 if i >= shift_at else 0.0)
            cp, _ = b.feed(x, i)
            if cp is not None and i >= shift_at and detected is None:
                detected = i - shift_at + 1
                break
        assert detected is not None
        delays.append(detected)
    assert max(delays) <= 10


def test_cusum_no_alert_without_shift_on_constant():
    b = StreamBaseline("s", W)
    alerts = [b.feed(2.0, i)[0] for i in range(300)]
    assert all(a is None for a in alerts)


def test_cusum_false_alarm_rate_stationary():
    # Monte Carlo over a stationary stream. With the configured defaults
    # (drift 0.5 sigma, limit 5 sigma) two-sided CUSUM theory puts the rate
    # near 2/ARL0 ~ 0.21%; window re-estimation pushes it slightly above.
    b = StreamBaseline("s", W)
    rng = SeededRng(54)
    n = 100_000
    alarms = 0
    for i in range(n):
        x = rng.gauss()
        if b.feed(x, i)[0] is not None:
            alarms += 1
    rate = alarms / (n - W)
    assert 0.001 < rate < 0.0045


def test_alert_determinism():
    def run():
        b = StreamBaseline("s", W)
        rng = SeededRng(55)
        out = []
        for i in range(5000):
            x = rng.gauss() + (4.0 if 2000 <= i < 2050 else 0.0)
            cp, po = b.feed(x, i)
            out.extend((a.kind.value, a.tick, round(a.value, 12))
                       for a in (cp, po) if a)
        return out
    assert run() == run()


# --- quarantine and investigation ---


def test_quarantine_excludes_from_panels(world):
    senders = world.sender_pool()
    target = next(p for p in world.active_devices() if p not in senders[:2])
    quarantine(world, target, reason_ref="test")
    assert world.devices[target].status is DeviceStatus.QUARANTINED
    txn = transmission.submit_transaction(world, senders[0], senders[1],
                                          digest(b"x"))
    for seed in range(1000):
        panel = transmission.select_witnesses(world, txn, SeededRng(seed))
        assert target not in panel


def test_quarantine_twice_rejected(world):
    target = world.active_devices()[0]
    quarantine(world, target, reason_ref="test")
    with pytest.raises(AlreadyQuarantined):
        quarantine(world, target, reason_ref="again")


def test_quarantine_auto_release(world):
    target = world.active_devices()[0]
    start = world.tick
    quarantine(world, target, reason_ref="test")
    world.tick = start + world.cfg.anomaly.review_period - 1
    assert release_due_quarantines(world) == []
    world.tick += 1
    released = release_due_quarantines(world)
    assert target in released
    assert world.devices[target].status is DeviceStatus.ACTIVE
    assert target not in world.quarantines


def test_investigate_equivocator_opens_dispute(world):
    witness = world.active_devices()[0]
    world.tick = 30
    world.log.append(30, "commit_mismatch", actor=witness.hex(),
                     subject=witness.hex())
    ref = world.log.append(30, "alert", subject=witness.hex(),
                           stream="wreject", alert_kind="PointOutlier",
                           z_score=4.0, value=1.0)
    report = investigate(world, ref)
    assert any(ev.kind == "commit_mismatch" for ev in report.violations)
    assert report.dispute_id is not None
    assert report.dispute_id in world.disputes


def test_investigate_benign_spike_no_dispute(world):
    subject = world.active_devices()[0]
    world.tick = 40
    ref = world.log.append(40, "alert", subject=subject.hex(),
                           stream="txrate", alert_kind="PointOutlier",
                           z_score=3.5, value=9.0)
    report = investigate(world, ref)
    assert report.violations == []
    assert report.dispute_id is None


def test_investigate_subjectless_alert_reads_the_empty_key(monkeypatch):
    # payload-size alerts carry no subject, so their investigation slices
    # the events that name "" as subject or actor
    world = run_world(get_scenario("equivocation"))
    radius = world.cfg.anomaly.investigate_radius
    expected = {}
    for ref, alert in enumerate(world.log):
        if alert.kind == "alert" and alert.subject == "":
            lo, hi = max(0, alert.tick - radius), alert.tick + radius
            expected[ref] = [ev for ev in world.log if lo <= ev.tick <= hi
                             and (ev.subject == "" or ev.actor == "")]
    assert expected
    read = []
    real_slice = world.log.slice_around

    def slice_read(center_tick, radius, subject=None):
        read.append(real_slice(center_tick, radius, subject))
        return read[-1]

    monkeypatch.setattr(world.log, "slice_around", slice_read)
    for ref, events in expected.items():
        assert any(ev.subject != "" for ev in events)  # actor-side matches
        report = investigate(world, ref)
        assert [world.log[ref] for ref in read.pop()] == events
        assert report.violations == [
            ev for ev in events if anomaly.is_violation(ev.kind, ev.detail)]
        logged = world.log[len(world.log) - 1]
        assert (logged.kind, logged.subject, logged.detail["alert_ref"]) == (
            "investigation", "", ref)
