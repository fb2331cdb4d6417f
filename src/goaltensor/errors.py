"""Exception types shared across the package."""


class GoalTensorError(Exception):
    """Base class for all package errors."""


class ModelIncompleteError(GoalTensorError):
    """A cost table or dynamics table is missing entries or has bad shape."""


class ScenarioError(GoalTensorError):
    """Scenario file failed schema or stochasticity validation.

    ``field`` is a dotted/indexed address into the document, e.g.
    ``source_dynamics[1][0][3]``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class ErgodicityError(GoalTensorError):
    """Chain has no unique stationary distribution (multiple closed classes)."""

    def __init__(self, message, closed_classes=None, unreachable=None):
        self.closed_classes = closed_classes
        self.unreachable = unreachable
        super().__init__(message)


class NonConvergenceError(GoalTensorError):
    """An iterative solver hit its sweep cap before meeting its tolerance.

    ``candidate`` is the index of the failing member when a batch was solved."""

    def __init__(self, message, residual=None, iterations=None, candidate=None):
        self.residual = residual
        self.iterations = iterations
        self.candidate = candidate
        super().__init__(message)


class EnumerationBudgetError(GoalTensorError):
    """Policy enumeration would exceed the configured budget."""


class MemoryBudgetError(GoalTensorError):
    """Dense kernels would exceed the package's byte limit (``model.MAX_KERNEL_BYTES``);
    raised before anything of that size is allocated."""


class ParameterError(GoalTensorError):
    """A policy or tuning parameter is outside its valid range."""


class PolicyFileError(GoalTensorError):
    """A policy file (``policy.json`` from ``solve``) is unreadable or does not fit
    the scenario.  ``field`` addresses the entry, e.g. ``sampling.decisions[4]``."""

    def __init__(self, path, field, message):
        self.path = str(path)
        self.field = field
        super().__init__(f"policy file {path}: {field}: {message}")
