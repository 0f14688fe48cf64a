"""Exception hierarchy shared by all harness modules.

Every error raised on a defined failure path derives from ``HarnessError``
so callers (and the CLI) can distinguish harness failures from genuine
bugs. Parsing errors carry location info; adapter errors carry captured
process output.
"""

from __future__ import annotations


class HarnessError(Exception):
    """Base class for all errors raised by this package."""


# --- report ingestion -------------------------------------------------------


class UnknownAdapterError(HarnessError):
    """No adapter is registered under the requested name."""

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(f"unknown adapter {name!r}; registered: {', '.join(sorted(known))}")


class MalformedInputError(HarnessError):
    """Input stream could not be parsed; carries line/offset when known."""

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class MissingRequiredFieldError(MalformedInputError):
    """A raw issue lacks a field the normalized record requires."""

    def __init__(self, field: str, line: int | None = None):
        self.field = field
        super().__init__(f"missing required field {field!r}", line)


# --- matching / detection ---------------------------------------------------


class StateMismatchError(HarnessError):
    """Report state labels do not match the operation's pre/post contract."""


class SpanOutOfBoundsError(HarnessError):
    """A violation span exceeds its source file; report and source disagree."""

    def __init__(self, file_id: str, span: tuple[int, int], n_lines: int):
        self.file_id = file_id
        self.span = span
        self.n_lines = n_lines
        super().__init__(
            f"span {span[0]}-{span[1]} out of bounds for {file_id!r} ({n_lines} lines); "
            "the report is stale with respect to the sources"
        )


class MissingSourceError(HarnessError):
    """No source pair is available for a file referenced by a violation."""

    def __init__(self, file_id: str):
        self.file_id = file_id
        super().__init__(f"no source available for {file_id!r}")


# --- sampling / statistics --------------------------------------------------


class InvalidParameterError(HarnessError):
    """A statistical routine received an out-of-range parameter."""


class InfeasibleTargetError(HarnessError):
    """Sample target is smaller than the number of nonempty strata."""

    def __init__(self, target_n: int, n_strata: int):
        self.target_n = target_n
        self.n_strata = n_strata
        super().__init__(
            f"target sample size {target_n} cannot cover {n_strata} strata at one item each"
        )


class UnlabeledRowError(HarnessError):
    """A labeling-sheet row has no verdict where one is required."""


class ConflictingVerdictsError(HarnessError):
    """Evaluators disagree on a row and no adjudicated verdict is present."""


class SampleTooSmallError(HarnessError):
    """Sample is below the validity floor of the requested test."""

    def __init__(self, n: int, floor: int):
        self.n = n
        self.floor = floor
        super().__init__(f"sample size {n} is below the validity floor of {floor}")


class DegenerateSampleError(HarnessError):
    """Sample has zero variance; the test statistic is undefined."""


# --- pipeline / adapters ----------------------------------------------------


class ConfigError(HarnessError):
    """Configuration is invalid; carries the offending key path."""

    def __init__(self, key_path: str, message: str):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}")


class AdapterFailureError(HarnessError):
    """The adapter process itself failed (distinct from a tool rejection)."""


class AdapterTimeoutError(AdapterFailureError):
    """External tool exceeded its configured timeout."""

    def __init__(self, name: str, timeout: float):
        self.name = name
        self.timeout = timeout
        super().__init__(f"adapter {name!r} exceeded timeout of {timeout}s")


class NonZeroExitError(AdapterFailureError):
    """External tool exited non-zero; stderr is attached."""

    def __init__(self, name: str, returncode: int, stderr: str):
        self.name = name
        self.returncode = returncode
        self.stderr = stderr
        super().__init__(f"adapter {name!r} exited {returncode}; stderr:\n{stderr}")


class MissingArtifactError(AdapterFailureError):
    """External tool completed but a declared artifact was not produced."""

    def __init__(self, name: str, artifact: str):
        self.name = name
        self.artifact = artifact
        super().__init__(f"adapter {name!r} did not produce expected artifact {artifact!r}")


class StageFailureError(HarnessError):
    """A pipeline stage failed; earlier stage outputs remain usable."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {message}")


class MissingStageOutputError(HarnessError):
    """Report emission needs a stage output that is not in the workspace."""

    def __init__(self, stage: str, path: str):
        self.stage = stage
        self.path = path
        super().__init__(f"required output of stage {stage!r} not found: {path}")


class WorkspaceLockedError(HarnessError):
    """Another run holds the workspace lock."""

    def __init__(self, lock_path: str):
        self.lock_path = lock_path
        super().__init__(f"workspace is locked by another run ({lock_path})")
