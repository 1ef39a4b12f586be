"""Exception types shared across the workbench."""


class NutsearchError(Exception):
    """Base class for all workbench-specific failures."""


class ContractViolation(NutsearchError):
    """A caller broke a documented precondition of a function or class."""


class NumericError(NutsearchError):
    """A non-finite value appeared where the math promises finite ones."""


class ConfigError(NutsearchError):
    """Bad config file, unknown key, or unparseable value."""


class InputFileError(NutsearchError):
    """An input file (corpus split, meta.json, lexicon, checkpoint,
    selected.json or candidates.jsonl) is not UTF-8, breaks its format, or
    holds a value its reader rejects."""


class TrainingDiverged(NutsearchError):
    """A training loss went non-finite; message names the phase."""
