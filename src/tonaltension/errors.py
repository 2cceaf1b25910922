"""Shared exception types."""


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


class ValidationError(ValueError):
    """Structurally parseable input that violates a data invariant."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss encountered during optimization at ``epoch``.

    ``index`` is the position of the offending sequence in the training
    dataset, so a caller that knows the pieces behind it can name one.
    """

    def __init__(self, message: str, epoch: int, index: int):
        super().__init__(message)
        self.epoch = epoch
        self.index = index
