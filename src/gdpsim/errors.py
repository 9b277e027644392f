"""Exception hierarchy shared by all protocol modules."""


class GdpError(Exception):
    """Base class for every protocol-level error."""


class InvalidConfig(GdpError):
    """Scenario configuration failed validation; message names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# --- primitives ---

class InsufficientPopulation(GdpError):
    """Fewer eligible items than the requested sample size."""


# --- onboarding ---

class DuplicateDevice(GdpError):
    """Public key already registered."""


class MalformedRequest(GdpError):
    """Registration metadata incomplete or invalid."""


class BlacklistedDevice(GdpError):
    """Public key appears on the configured blacklist."""


class WrongStage(GdpError):
    """Operation not valid for the session/dispute's current stage."""


class CredentialExpired(GdpError):
    """Temporary credential past its expiry tick."""


class NoActiveChallenge(GdpError):
    """No challenge has been issued for this session."""


class ChallengeExpired(GdpError):
    """The outstanding challenge's ttl has elapsed."""


class InsufficientStake(GdpError):
    """Stake deposit below the configured minimum."""


class TooEarly(GdpError):
    """Periodic operation attempted before its period elapsed."""


# --- transmission ---

class NotAuthorized(GdpError):
    """Device lacks an Active profile; temporary credentials never
    authenticate post-onboarding operations."""


class InsufficientWitnesses(GdpError):
    """Not enough eligible witnesses to fill a panel.

    ``scores_read`` is False when the active devices' seat count refused
    the panel before any score was read: the same active set, ``k`` and
    diversity cap refuse it again, whatever the scores."""

    def __init__(self, message: str, scores_read: bool = True):
        super().__init__(message)
        self.scores_read = scores_read


class NotOnPanel(GdpError):
    """Attesting device is not on the transaction's witness panel."""


class AlreadyCommitted(GdpError):
    """Witness already submitted a commit for this transaction."""


class CommitMismatch(GdpError):
    """Revealed verdict/salt does not hash to the stored commit."""


class RevealTooEarly(GdpError):
    """Reveal attempted before all commits arrived or the deadline passed."""


# --- consensus ---

class NotProposer(GdpError):
    """Node does not hold the current proposal round."""


class EmptyMempool(GdpError):
    """No witnessed transactions available to propose."""


class UnknownParent(GdpError):
    """Proposal extends a block the validating node does not have."""


class ChainIntegrityViolation(GdpError):
    """Ledger digest chain, vote set, or threshold failed re-verification."""


# --- anomaly ---

class AlreadyQuarantined(GdpError):
    """Subject is already under quarantine."""


# --- incentives ---

class SubjectBanned(GdpError):
    """Account owner is banned; mutation refused."""


class InvalidProportion(GdpError):
    """Contribution proportion outside [0, total]."""


# --- arbitration ---

class EmptyClaim(GdpError):
    """Dispute claim cites no existing logged events."""


class UnknownParty(GdpError):
    """Dispute party is not a registered Active/Quarantined device."""


class InsufficientArbitrators(GdpError):
    """Vetted, conflict-free arbitrator pool smaller than the panel size."""


class AppealExhausted(GdpError):
    """The single permitted appeal has already been used."""


class InsufficientBond(GdpError):
    """Appellant cannot cover the appeal bond."""


# --- stochastic checks ---

class InsufficientNodes(GdpError):
    """Fewer eligible nodes than the requested validator subset."""
