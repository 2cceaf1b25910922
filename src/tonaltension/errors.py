"""Shared exception types."""


class SettingError(ValueError):
    """A run setting outside its valid range; ``name`` is the parameter."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"{name} {problem}")
        self.name = name
        self.problem = problem


class TrainingDiverged(RuntimeError):
    """Non-finite ``what`` ("loss" or "validation loss") at ``epoch``.

    ``index`` is the position of the offending sequence in its training
    dataset and ``model`` the position of its model among those trained
    together, so a caller that knows the pieces behind them can name one
    with ``located``.
    """

    def __init__(self, what: str, epoch: int, index: int, model: int = 0,
                 where: str | None = None):
        super().__init__(
            f"non-finite {what} at epoch {epoch}, {where or f'dataset item {index}'}")
        self.what = what
        self.epoch = epoch
        self.index = index
        self.model = model

    def located(self, where: str) -> "TrainingDiverged":
        """The same divergence, with ``where`` in place of the dataset item."""
        return TrainingDiverged(self.what, self.epoch, self.index, self.model, where)
