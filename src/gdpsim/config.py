"""Scenario configuration: schema, defaults, validation, file IO, overrides.

Every tunable named in the protocol design lives here in one block so a
scenario file (YAML or JSON) plus ``--set dotted.path=value`` overrides fully
determine a run. ``schema_version`` is checked on load.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import InvalidConfig

SCHEMA_VERSION = 1

ADVERSARY_KINDS = (
    "tampering_sender",
    "colluding_witnesses",
    "sybil_flood",
    "lazy_witness",
    "equivocating_witness",
    "forged_sync_node",
    "key_compromise",
)


@dataclass
class OnboardingConfig:
    temp_credential_ttl: int = 50
    challenge_ttl: int = 10
    totp_window: int = 30
    totp_skew: int = 1           # accepted windows either side
    revalidation_period: int = 500
    min_stake: float = 100.0
    behavior_threshold: float = 0.5
    statements_per_challenge: int = 3
    # behavior checklist bounds (four equal-weight rules)
    max_action_gap: int = 20
    max_retries: int = 0
    max_challenge_latency: int = 5
    initial_reputation: float = 0.5


@dataclass
class PanelConfig:
    k: int = 5
    quorum: int = 0              # 0 means ceil(2k/3)
    diversity: int = 1           # max witnesses per operator group
    reveal_deadline: int = 20    # ticks after panel selection
    max_escalations: int = 2

    def effective_quorum(self) -> int:
        return self.quorum if self.quorum > 0 else math.ceil(2 * self.k / 3)


@dataclass
class ConsensusConfig:
    batch_cap: int = 32
    commit_threshold: float = 0.5     # strict-majority share of total weight
    contested_band: float = 0.1
    stake_weight: float = 0.5         # reputation gets 1 - stake_weight
    random_validators: int = 0        # 0 = every active non-proposer votes


@dataclass
class AnomalyConfig:
    window: int = 100
    z_threshold: float = 3.0
    cusum_drift: float = 0.5     # in sigma units
    cusum_limit: float = 5.0
    review_period: int = 100     # quarantine auto-release
    investigate_radius: int = 50


@dataclass
class IncentiveConfig:
    perf_reward: float = 1.0
    perf_rep_bonus: float = 0.01
    contribution_pool: float = 10.0
    epoch_ticks: int = 100
    longevity_period: int = 1000
    longevity_bonus: float = 5.0
    longevity_min_score: float = 0.8
    rep_penalty_factor: float = 0.8
    major_first_forfeit: float = 0.5
    ban_threshold: float = 0.2
    temp_ban_ticks: int = 200
    appeal_bond: float = 20.0


@dataclass
class ArbitrationConfig:
    panel_size: int = 5
    community_threshold: float = 2.0 / 3.0
    arbitrator_min_reputation: float = 0.8


@dataclass
class InspectionConfig:
    rate_txn: float = 0.05
    rate_witness_deep: float = 0.1
    rate_sync_verify: float = 0.02
    rate_device: float = 0.05
    rate_proposer_challenge: float = 0.1
    puzzle_difficulty: int = 8   # required leading zero bits
    max_commit_delay: int = 5
    puzzle_max_attempts: int = 65536


@dataclass
class AdversarySpec:
    kind: str = "tampering_sender"
    count: int = 1
    params: dict = field(default_factory=dict)


@dataclass
class OutageSpec:
    """Scheduled offline window for one honest device (drives sync traffic)."""

    device_index: int = 0
    start: int = 0
    duration: int = 0


@dataclass
class ScenarioConfig:
    schema_version: int = SCHEMA_VERSION
    name: str = "custom"
    seed: int = 0
    duration_ticks: int = 300
    txn_arrival_rate: float = 3.0
    drain_ticks: int = 60        # arrivals stop this many ticks before the end
    n_honest_devices: int = 4
    n_witness_pool: int = 8
    operator_groups: int = 0     # 0 = every device in its own group
    payload_min: int = 64
    payload_max: int = 256
    metrics_sample_every: int = 50
    blacklist: list = field(default_factory=list)
    adversaries: list = field(default_factory=list)
    outages: list = field(default_factory=list)
    onboarding: OnboardingConfig = field(default_factory=OnboardingConfig)
    panel: PanelConfig = field(default_factory=PanelConfig)
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    anomaly: AnomalyConfig = field(default_factory=AnomalyConfig)
    incentives: IncentiveConfig = field(default_factory=IncentiveConfig)
    arbitration: ArbitrationConfig = field(default_factory=ArbitrationConfig)
    inspection: InspectionConfig = field(default_factory=InspectionConfig)

    # -- structural helpers -------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise InvalidConfig("<root>", "config must be a mapping")
        return _build(cls, data, path="")

    def validate(self) -> None:
        v = _Validator()
        _check_numbers(v, self, "")
        for i, adv in enumerate(self.adversaries):
            _check_numbers(v, adv, f"adversaries[{i}].")
        for i, out in enumerate(self.outages):
            _check_numbers(v, out, f"outages[{i}].")
        v.check(self.schema_version == SCHEMA_VERSION, "schema_version",
                f"expected {SCHEMA_VERSION}, got {self.schema_version}")
        v.check(self.seed >= 0, "seed", "must be >= 0")
        v.check(self.duration_ticks > 0, "duration_ticks", "must be positive")
        v.check(self.txn_arrival_rate >= 0, "txn_arrival_rate", "must be >= 0")
        v.check(0 <= self.drain_ticks <= self.duration_ticks, "drain_ticks",
                "must be within [0, duration_ticks]")
        v.check(self.n_honest_devices >= 0, "n_honest_devices", "must be >= 0")
        v.check(self.n_witness_pool >= 0, "n_witness_pool", "must be >= 0")
        v.check(self.operator_groups >= 0, "operator_groups", "must be >= 0")
        v.check(0 < self.payload_min <= self.payload_max, "payload_min",
                "need 0 < payload_min <= payload_max")
        v.check(self.metrics_sample_every >= 1, "metrics_sample_every",
                "must be >= 1")

        p = self.panel
        v.check(p.k >= 1, "panel.k", "must be >= 1")
        v.check(0 <= p.quorum <= p.k, "panel.quorum", "must satisfy 0 <= quorum <= k")
        v.check(p.diversity >= 1, "panel.diversity", "must be >= 1")
        v.check(p.reveal_deadline >= 1, "panel.reveal_deadline", "must be >= 1")
        v.check(p.max_escalations >= 0, "panel.max_escalations", "must be >= 0")

        c = self.consensus
        v.check(c.batch_cap >= 1, "consensus.batch_cap", "must be >= 1")
        v.check(0 < c.commit_threshold < 1, "consensus.commit_threshold",
                "must be in (0, 1)")
        v.check(0 <= c.contested_band < 1, "consensus.contested_band",
                "must be in [0, 1)")
        v.check(0 <= c.stake_weight <= 1, "consensus.stake_weight",
                "must be in [0, 1]")
        v.check(c.random_validators >= 0, "consensus.random_validators",
                "must be >= 0")

        a = self.anomaly
        # the point test's t quantile is calibrated for df = window - 1 >= 8
        v.check(a.window >= 9, "anomaly.window", "must be >= 9")
        v.check(a.z_threshold > 0, "anomaly.z_threshold", "must be positive")
        v.check(a.cusum_drift >= 0, "anomaly.cusum_drift", "must be >= 0")
        v.check(a.cusum_limit > 0, "anomaly.cusum_limit", "must be positive")
        v.check(a.review_period >= 1, "anomaly.review_period", "must be >= 1")

        inc = self.incentives
        v.check(inc.perf_reward >= 0, "incentives.perf_reward", "must be >= 0")
        v.check(0 <= inc.rep_penalty_factor <= 1, "incentives.rep_penalty_factor",
                "must be in [0, 1]")
        v.check(0 <= inc.major_first_forfeit <= 1, "incentives.major_first_forfeit",
                "must be in [0, 1]")
        v.check(0 <= inc.ban_threshold <= 1, "incentives.ban_threshold",
                "must be in [0, 1]")
        v.check(inc.epoch_ticks >= 1, "incentives.epoch_ticks", "must be >= 1")

        arb = self.arbitration
        v.check(arb.panel_size >= 1, "arbitration.panel_size", "must be >= 1")
        v.check(0 < arb.community_threshold <= 1, "arbitration.community_threshold",
                "must be in (0, 1]")

        ins = self.inspection
        for rate_field in ("rate_txn", "rate_witness_deep", "rate_sync_verify",
                           "rate_device", "rate_proposer_challenge"):
            v.check(0 <= getattr(ins, rate_field) <= 1, f"inspection.{rate_field}",
                    "must be in [0, 1]")
        v.check(0 <= ins.puzzle_difficulty <= 32, "inspection.puzzle_difficulty",
                "must be in [0, 32]")
        v.check(ins.max_commit_delay >= 0, "inspection.max_commit_delay",
                "must be >= 0")

        ob = self.onboarding
        v.check(ob.temp_credential_ttl >= 1, "onboarding.temp_credential_ttl",
                "must be >= 1")
        v.check(ob.challenge_ttl >= 1, "onboarding.challenge_ttl", "must be >= 1")
        v.check(ob.totp_window >= 1, "onboarding.totp_window", "must be >= 1")
        v.check(ob.totp_skew >= 0, "onboarding.totp_skew", "must be >= 0")
        v.check(ob.min_stake >= 0, "onboarding.min_stake", "must be >= 0")
        v.check(0 <= ob.behavior_threshold <= 1, "onboarding.behavior_threshold",
                "must be in [0, 1]")
        v.check(0 <= ob.initial_reputation <= 1, "onboarding.initial_reputation",
                "must be in [0, 1]")

        for i, adv in enumerate(self.adversaries):
            v.check(adv.kind in ADVERSARY_KINDS, f"adversaries[{i}].kind",
                    f"unknown kind {adv.kind!r}, expected one of {ADVERSARY_KINDS}")
            v.check(adv.count >= 1, f"adversaries[{i}].count", "must be >= 1")

        for i, out in enumerate(self.outages):
            v.check(out.device_index >= 0, f"outages[{i}].device_index",
                    "must be >= 0")
            v.check(out.duration >= 1, f"outages[{i}].duration", "must be >= 1")

        # when traffic can occur, the population must support a full panel
        # with sender and receiver excluded
        senders = self.n_honest_devices + sum(
            adv.count for adv in self.adversaries
            if adv.kind == "tampering_sender")
        if self.txn_arrival_rate > 0 and senders > 0:
            witnesses_available = self._max_active_population() - 2
            v.check(witnesses_available >= p.k, "n_witness_pool",
                    f"population supports at most {witnesses_available} "
                    f"eligible witnesses per transaction; panel needs k={p.k}")

    def _max_active_population(self) -> int:
        extra = 0
        for adv in self.adversaries:
            if adv.kind in ("tampering_sender", "colluding_witnesses",
                            "lazy_witness", "equivocating_witness",
                            "forged_sync_node"):
                extra += adv.count
        return self.n_honest_devices + self.n_witness_pool + extra


class _Validator:
    def check(self, ok: bool, field_path: str, message: str) -> None:
        if not ok:
            raise InvalidConfig(field_path, message)


def _check_numbers(v: _Validator, section, prefix: str) -> None:
    """Refuse a non-number in a numeric field of ``section`` or of a section
    nested in it: an ``int`` field takes an int, a ``float`` field an int or
    a float, and neither takes a bool. Annotations are strings here, as
    ``from __future__ import annotations`` leaves them."""
    for f in fields(section):
        value = getattr(section, f.name)
        where = prefix + f.name
        if dataclasses.is_dataclass(value):
            _check_numbers(v, value, where + ".")
        elif f.type == "int":
            v.check(isinstance(value, int) and not isinstance(value, bool),
                    where, f"must be an integer, got {value!r}")
        elif f.type == "float":
            v.check(isinstance(value, (int, float))
                    and not isinstance(value, bool),
                    where, f"must be a number, got {value!r}")


_NESTED = {
    "onboarding": OnboardingConfig,
    "panel": PanelConfig,
    "consensus": ConsensusConfig,
    "anomaly": AnomalyConfig,
    "incentives": IncentiveConfig,
    "arbitration": ArbitrationConfig,
    "inspection": InspectionConfig,
}


def _build(cls, data: dict, path: str):
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise InvalidConfig(where, "unknown field")
        if key in _NESTED and cls is ScenarioConfig:
            if not isinstance(value, dict):
                raise InvalidConfig(where, "must be a mapping")
            kwargs[key] = _build(_NESTED[key], value, where)
        elif key == "adversaries" and cls is ScenarioConfig:
            kwargs[key] = [_build(AdversarySpec, item, f"{where}[{i}]")
                           for i, item in enumerate(value)]
        elif key == "outages" and cls is ScenarioConfig:
            kwargs[key] = [_build(OutageSpec, item, f"{where}[{i}]")
                           for i, item in enumerate(value)]
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise InvalidConfig(path or "<root>", str(exc)) from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Load a scenario file and validate it. A ``.json`` file is parsed as
    JSON, so ``dump_config``'s output loads back equal; any other file as
    YAML. ``yaml`` is imported here, the one place that reads it, so a run
    that loads no YAML file never loads it."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InvalidConfig(str(path), f"unreadable: {exc}") from exc
    if p.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(str(path), f"parse error: {exc}") from exc
    else:
        import yaml
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise InvalidConfig(str(path), f"parse error: {exc}") from exc
    cfg = ScenarioConfig.from_dict(data or {})
    cfg.validate()
    return cfg


def _coerce(current, raw: str):
    if isinstance(current, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    if isinstance(current, int) and not isinstance(current, bool):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, str):
        return raw
    # lists and dicts are supplied as JSON
    return json.loads(raw)


def apply_overrides(cfg: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply ``dotted.path=value`` overrides, coercing to the field's type."""
    for entry in overrides:
        if "=" not in entry:
            raise InvalidConfig(entry, "override must look like path=value")
        dotted, raw = entry.split("=", 1)
        parts = dotted.strip().split(".")
        target = cfg
        for part in parts[:-1]:
            if not hasattr(target, part):
                raise InvalidConfig(dotted, f"unknown section {part!r}")
            target = getattr(target, part)
        leaf = parts[-1]
        if not dataclasses.is_dataclass(target) or not hasattr(target, leaf):
            raise InvalidConfig(dotted, "unknown field")
        try:
            setattr(target, leaf, _coerce(getattr(target, leaf), raw))
        except (ValueError, json.JSONDecodeError) as exc:
            raise InvalidConfig(dotted, f"bad value {raw!r}: {exc}") from exc
    return cfg


def dump_config(cfg: ScenarioConfig) -> str:
    """Normalized JSON dump with defaults filled (stable key order)."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
