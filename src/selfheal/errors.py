"""Exception types shared across the package."""


class SelfHealError(Exception):
    """Base class for all package errors."""


class InputError(SelfHealError, ValueError):
    """A caller-supplied value violates an operation's preconditions."""


class ConfigurationError(SelfHealError, ValueError):
    """A structural problem: incompatible shapes, bad config keys, bad hyperparameters."""


class SchemaError(InputError):
    """A file or record is missing required columns/fields, or carries unknown ones."""


class RowError(InputError):
    """A data row could not be parsed.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line

    def __reduce__(self):
        return type(self), (self.message, self.line)


class GenerationError(SelfHealError, RuntimeError):
    """Synthetic data generation could not satisfy its postconditions."""


class TrainingError(SelfHealError, RuntimeError):
    """Training diverged or otherwise failed; carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"iteration {iteration}: {message}")
        self.message = message
        self.iteration = iteration

    def __reduce__(self):
        return type(self), (self.message, self.iteration)


class CapacityError(SelfHealError, ValueError):
    """A request exceeds a hard capacity bound of an exact algorithm."""


class StageError(SelfHealError, RuntimeError):
    """A pipeline stage failed; carries the stage name and original cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        return type(self), (self.stage, self.cause)
