"""Exception types shared across the workbench."""


class NutsearchError(Exception):
    """Base class for all workbench-specific failures."""


class ContractViolation(NutsearchError):
    """An argument or state broke a documented precondition."""


class NumericError(NutsearchError):
    """A non-finite value appeared where the math promises finite ones."""


class ConfigError(NutsearchError):
    """Bad config file, unknown key, or unparseable value."""


class ArtifactError(NutsearchError):
    """A selected.json or candidates.jsonl record is unreadable; the
    message names the path, the line and the field."""


class TrainingDiverged(NutsearchError):
    """A training loss went non-finite; message names the phase."""


class CheckpointError(NutsearchError):
    """Base class for checkpoint load failures."""


class CheckpointMagicError(CheckpointError):
    """File does not start with the checkpoint magic string."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointTruncatedError(CheckpointError):
    """File ended in the middle of a declared block."""


class CheckpointConsistencyError(CheckpointError):
    """Header and tensor blocks disagree (names, shapes, vocab size)."""
