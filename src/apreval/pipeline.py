"""End-to-end orchestration: corpus prep, tool adapters, cached stages.

The ``STAGES`` table declares each stage once: its inputs, config
fingerprint, adapter role, body, and the hand-offs its body reads. A run
is split as in "Build systems à la carte" (Mokhov, Mitchell and Peyton
Jones, ICFP 2018). The scheduler, :func:`schedule`, knows only tasks (a
name, upstream names, a tool flag and a generator that yields batches of
calls): it starts each task once its upstream tasks have ended, and runs
their calls on a :class:`CallRunner`. The rebuilder,
``PipelineRun._run_stage``, is the task of one stage: it skips the stage,
takes it as cached when its input digest is unchanged and the files it
copied still match, or rebuilds ``workspace/<stage>/``, and records which
in ``state.json``.

External tools are described by command templates and run as
subprocesses with timeout enforcement, artifact checks, and log capture;
scripted stub tools ship with the package, so the whole pipeline runs
without any external toolchain. Each axis stage makes the one call of
its axis module that its ``apreval <axis>`` command makes too, such as
``fixrate.score_fix_rate``. Each stage body imports the axis module it
needs, and the report parsing of ``violations`` too, so a run whose stages
are all cached loads no analysis code: what it reads of a config comes
from ``terms``, and no ``dataclasses`` or ``inspect`` either.
Parsed values pass between stages through one hand-off table, used only
while the files they came from are unchanged and dropped once the last
stage that reads them is done.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import shlex
import shutil
import signal
import string
import sys
import time
from contextlib import closing, suppress
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Collection, Generator, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    AdapterFailureError,
    AdapterTimeoutError,
    ConfigError,
    MissingArtifactError,
    MissingStageOutputError,
    NonZeroExitError,
    StageFailureError,
    WorkspaceLockedError,
)
from .terms import Z_TABLE, NormalizationPolicy, StateLabel, check_report_adapter, get_profile

if TYPE_CHECKING:
    import subprocess

    from .newviol import SourceTrees
    from .terms import RuleProfile
    from .violations import Violation, ViolationReport

#: each adapter role and the file its tool must leave, where the role fixes one (see :func:`_artifact`)
ROLES = {"analyzer": None, "repairer": None, "test_runner": "results.csv",
         "metric_extractor": "class_metrics.csv", "compiler": "compile_results.json"}

_ALLOWED_PLACEHOLDERS = {"input", "output", "workdir", "python", "rule"}

#: the logs :func:`run_tool_adapter` writes at the top of its output directory
_ADAPTER_LOGS = ("adapter_stdout.log", "adapter_stderr.log")


class _ToolAdapterFields(NamedTuple):
    name: str
    command_template: str
    timeout: float = 600.0
    expected_artifacts: tuple[str, ...] = ()


class ToolAdapter(_ToolAdapterFields):
    """External tool described by a command template.

    Templates may use {input}, {output}, {workdir}, {python} and, for
    repairers running one pass per rule, {rule}. A template is split into
    arguments as a POSIX shell would before they are filled in. Each
    expected artifact is a relative path under {output}.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ToolAdapter:
        self = super().__new__(cls, *args, **kwargs)
        if "{input}" not in self.command_template:
            raise ConfigError(f"adapters.{self.name}.command", "template must contain {input}")
        if self.timeout <= 0:
            raise ConfigError(f"adapters.{self.name}.timeout", "timeout must be > 0")
        try:
            shlex.split(self.command_template)
        except ValueError as exc:  # such as an unclosed quote
            raise ConfigError(f"adapters.{self.name}.command", f"cannot be split into arguments: {exc}") from None
        for _, fname, _, _ in string.Formatter().parse(self.command_template):
            if fname is not None and fname not in _ALLOWED_PLACEHOLDERS:
                raise ConfigError(
                    f"adapters.{self.name}.command",
                    f"unknown placeholder {{{fname}}}; allowed: {sorted(_ALLOWED_PLACEHOLDERS)}",
                )
        for artifact in self.expected_artifacts:
            # one outside the output directory is a file no digest of the stage covers
            if os.path.isabs(artifact) or ".." in Path(artifact).parts:
                raise ConfigError(f"adapters.{self.name}.expected_artifacts",
                                  f"{artifact!r} is not a relative path under {{output}}")
        return self


class SamplingParams(NamedTuple):
    confidence: float = 0.95
    margin: float = 0.05
    proportion: float = 0.5


class PipelineConfig(NamedTuple):
    corpus_dir: Path
    workspace_dir: Path
    adapters: Mapping[str, ToolAdapter | None]  # None means the role is skipped
    profile: str = "sorald-30"
    sampling: SamplingParams = SamplingParams()
    seed: int = 0
    jobs: int = 1
    normalization: NormalizationPolicy = NormalizationPolicy.EXACT
    report_adapter: str = "csv"
    report_adapter_options: Mapping = MappingProxyType({})


_TOP_KEYS = set(PipelineConfig._fields)
_ADAPTER_KEYS = {"command", "timeout", "expected_artifacts"}
_SAMPLING_KEYS = set(SamplingParams._fields)

#: what each kind of config value must be; an int is also a number, a bool neither
_KINDS = {str: "a string", int: "an integer", float: "a finite number", list: "a list of strings", dict: "an object"}


def _typed(doc: dict, key: str, kind: type, default: object, where: str = "") -> object:
    """``doc[key]``, or ``default`` if absent, refused unless it is of ``kind``."""
    value = doc.get(key, default)
    ok = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if ok and kind is float:
        ok = math.isfinite(value)  # JSON as Python reads it allows NaN and Infinity
    if ok and kind is list:
        ok = all(isinstance(item, str) for item in value)
    if not ok:
        raise ConfigError(where + key, f"must be {_KINDS[kind]}")
    return value


def load_config(path: str | Path) -> PipelineConfig:
    """Load and fully validate a JSON pipeline config; unknown keys and wrongly typed values reject."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(str(path), "config file does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "config root must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown configuration key")
    for required in ("corpus_dir", "workspace_dir", "adapters"):
        if required not in doc:
            raise ConfigError(required, "required key is missing")

    raw_adapters = doc["adapters"]
    if not isinstance(raw_adapters, dict):
        raise ConfigError("adapters", "must be an object mapping roles to adapters")
    unknown = set(raw_adapters) - set(ROLES)
    if unknown:
        raise ConfigError(f"adapters.{sorted(unknown)[0]}", "unknown adapter role")
    adapters: dict[str, ToolAdapter | None] = {}
    for role in ROLES:
        if role not in raw_adapters:
            raise ConfigError(f"adapters.{role}", "role must be bound or explicitly set to \"skip\"")
        raw = raw_adapters[role]
        if raw == "skip":
            adapters[role] = None
            continue
        if not isinstance(raw, dict):
            raise ConfigError(f"adapters.{role}", "must be an adapter object or \"skip\"")
        unknown = set(raw) - _ADAPTER_KEYS
        if unknown:
            raise ConfigError(f"adapters.{role}.{sorted(unknown)[0]}", "unknown adapter key")
        if "command" not in raw:
            raise ConfigError(f"adapters.{role}.command", "required key is missing")
        where = f"adapters.{role}."
        adapters[role] = ToolAdapter(
            name=role,
            command_template=_typed(raw, "command", str, None, where),
            timeout=float(_typed(raw, "timeout", float, 600.0, where)),
            expected_artifacts=tuple(_typed(raw, "expected_artifacts", list, [], where)),
        )

    raw_sampling = _typed(doc, "sampling", dict, {})
    unknown = set(raw_sampling) - _SAMPLING_KEYS
    if unknown:
        raise ConfigError(f"sampling.{sorted(unknown)[0]}", "unknown sampling key")
    sampling = SamplingParams(**{key: float(_typed(raw_sampling, key, float, None, "sampling."))
                                 for key in raw_sampling})
    if sampling.confidence not in Z_TABLE:  # the values sampling.cochran_sample_size takes
        raise ConfigError("sampling.confidence", f"must be one of {sorted(Z_TABLE)}")
    for key in ("margin", "proportion"):
        if not 0 < getattr(sampling, key) < 1:
            raise ConfigError(f"sampling.{key}", "must be in (0, 1)")

    try:
        normalization = NormalizationPolicy(doc.get("normalization", "exact"))
    except ValueError:
        raise ConfigError("normalization", f"must be one of {[p.value for p in NormalizationPolicy]}") from None

    jobs = _typed(doc, "jobs", int, 1)
    if jobs < 1:
        raise ConfigError("jobs", "must be at least 1")
    report_adapter = _typed(doc, "report_adapter", str, "csv")
    options = dict(_typed(doc, "report_adapter_options", dict, {}))
    check_report_adapter(report_adapter, options)
    base = path.parent
    return PipelineConfig(
        corpus_dir=(base / _typed(doc, "corpus_dir", str, None)).resolve(),
        workspace_dir=(base / _typed(doc, "workspace_dir", str, None)).resolve(),
        adapters=adapters,
        profile=_typed(doc, "profile", str, "sorald-30"),
        sampling=sampling,
        seed=_typed(doc, "seed", int, 0),
        jobs=jobs,
        normalization=normalization,
        report_adapter=report_adapter,
        report_adapter_options=options,
    )


# --- adapter execution --------------------------------------------------------

#: Directory holding the running ``apreval`` package, absolute so that
#: adapter children (which run with cwd=output_dir) can import it too.
_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)


def _adapter_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    return env


#: adapter processes now running, each the leader of its own process group;
#: process-wide, because an interrupt stops every run in the process
_running_adapters: set[subprocess.Popen] = set()


def _kill_process_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_tool_adapter(
    adapter: ToolAdapter,
    input_dir: Path,
    output_dir: Path,
    rule: str | None = None,
) -> None:
    """Spawn the adapter command and verify its declared artifacts.

    stdout/stderr are captured to log files beside the artifacts.
    """
    import subprocess

    if not input_dir.is_dir():
        raise StageFailureError(adapter.name, f"input directory does not exist: {input_dir}")
    output_dir.mkdir(parents=True, exist_ok=True)
    subst = {
        "input": str(input_dir),
        "output": str(output_dir),
        "workdir": str(output_dir),
        "python": sys.executable,
    }
    if rule is not None:
        subst["rule"] = rule
    # split before substitution, so that a path holding a space or a quote stays one argument
    command = [arg.format(**subst) for arg in shlex.split(adapter.command_template)]
    # the adapter leads its own session, so on timeout (or interrupt) its
    # whole process group goes down with it and no child outlives the call
    with subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=output_dir,
        env=_adapter_env(),
        start_new_session=True,
    ) as proc:
        _running_adapters.add(proc)
        try:
            stdout, stderr = proc.communicate(timeout=adapter.timeout)
        except subprocess.TimeoutExpired:
            raise AdapterTimeoutError(adapter.name, adapter.timeout) from None
        finally:
            _running_adapters.discard(proc)
            if proc.returncode is None:
                _kill_process_group(proc)
    for log, data in zip(_ADAPTER_LOGS, (stdout, stderr)):
        (output_dir / log).write_bytes(data)
    if proc.returncode != 0:
        raise NonZeroExitError(adapter.name, proc.returncode, stderr.decode("utf-8", "replace"))
    for artifact in adapter.expected_artifacts:
        if not (output_dir / artifact).exists():
            raise MissingArtifactError(adapter.name, artifact)


def _written(top: Path) -> list[str]:
    """The relative path of each file a tool wrote under ``top``: all but the
    adapter's own logs at its top."""
    return [rel for rel, _ in _walk_files(str(top)) if rel not in _ADAPTER_LOGS]


def _artifact(adapter: ToolAdapter, out_dir: Path) -> Path:
    """The file a call of ``adapter`` left in ``out_dir`` for its stage to read:
    its role's file in ``ROLES``, else its first declared artifact, else the
    first file it wrote by relative path; one missing raises :class:`MissingArtifactError`."""
    name = (ROLES.get(adapter.name) or next(iter(adapter.expected_artifacts), None)
            or min(_written(out_dir), default=None))
    if name is None or not (out_dir / name).is_file():
        raise MissingArtifactError(adapter.name, name or "<analysis report>")
    return out_dir / name


def prepare_corpus_violating(
    compilable: Iterable[str], report: ViolationReport, profile: RuleProfile
) -> list[str]:
    """Files carrying at least one in-profile violation; the repair input."""
    rules = set(profile.rules)
    violating = {v.file_id for v in report.entries if v.rule in rules}
    return sorted(set(compilable) & violating)


# --- digests and state --------------------------------------------------------


def _hash_bytes(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


#: absolute path -> sha256 of a file, or the ``_walk_files`` listing of a
#: directory; valid only while nothing writes under the digested paths
_DigestMemo = dict[str, bytes | tuple[tuple[str, str], ...]]


def _walk_files(top: str, rel: str = "") -> Iterator[tuple[str, str]]:
    """(relpath, path) of each file under ``top``, in ``Path`` order.

    Entries are sorted by name at each level, which is how ``Path``
    compares. Symlinks to files are included; symlinked directories are not
    entered.
    """
    with os.scandir(top) as it:
        entries = sorted(it, key=lambda e: e.name)
    for entry in entries:
        if entry.is_dir(follow_symlinks=False):
            yield from _walk_files(entry.path, f"{rel}{entry.name}/")
        elif entry.is_file():
            yield rel + entry.name, entry.path


def _file_sha256(path: str) -> bytes:
    # raw descriptor reads: about half the cost of open() for small files
    h = hashlib.sha256()
    fd = os.open(path, os.O_RDONLY)
    try:
        while chunk := os.read(fd, 1 << 16):
            h.update(chunk)
    finally:
        os.close(fd)
    return h.digest()


def _listing(top: str, memo: _DigestMemo) -> tuple[tuple[str, str], ...]:
    listing = memo.get(top)
    if listing is None:
        listing = memo[top] = tuple(_walk_files(top))
    return listing


def _memo_sha256(path: str, memo: _DigestMemo) -> bytes:
    sha = memo.get(path)
    if sha is None:
        sha = memo[path] = _file_sha256(path)
    return sha


def _digest_paths(paths: Sequence[Path], extra: str, memo: _DigestMemo) -> str:
    h = hashlib.sha256()
    for path in paths:
        key = os.path.abspath(path)
        if path.is_file():
            _hash_bytes(h, path.name.encode())
            h.update(_memo_sha256(key, memo))
        elif path.is_dir():
            for rel, file in _listing(key, memo):
                _hash_bytes(h, rel.encode())
                h.update(_memo_sha256(file, memo))
        else:
            raise FileNotFoundError(str(path))
    _hash_bytes(h, extra.encode())
    return h.hexdigest()


def digest_paths(paths: Sequence[Path], extra: str = "") -> str:
    """Content hash over files/trees plus a config fingerprint string.

    Each file contributes its length-prefixed name (a tree member its
    relative posix path) followed by the 32-byte sha256 of its bytes.
    """
    return _digest_paths(paths, extra, {})


def _adapter_fingerprint(adapter: ToolAdapter | None) -> str:
    if adapter is None:
        return "skip"
    return json.dumps(
        {
            "command": adapter.command_template,
            "timeout": adapter.timeout,
            "artifacts": list(adapter.expected_artifacts),
        },
        sort_keys=True,
    )


class _WorkspaceLock:
    """An flock on ``workspace/.lock``, which the kernel drops when its holder dies."""

    def __init__(self, workspace: Path):
        self.path = workspace / ".lock"

    def __enter__(self):
        # writable, so that an flock emulated with byte-range locks (NFS) holds too
        self.fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(self.fd)
            if isinstance(exc, BlockingIOError):
                raise WorkspaceLockedError(str(self.path)) from None
            raise
        return self

    def __exit__(self, *exc):
        os.close(self.fd)  # never unlinked, lest two runs each lock a file of that name
        return False


def load_sources(original_dir: Path, repaired_dir: Path, originals: bool = True) -> SourceTrees:
    """SourcePairs for every file present in the original tree, each read at
    lookup; with ``originals=False``, pairs of the repaired lines alone."""
    from .newviol import SourceTrees

    return SourceTrees(original_dir, repaired_dir, [rel for rel, _ in _walk_files(str(original_dir))], originals)


# --- the scheduler ------------------------------------------------------------

class CallRunner:
    """Runs the calls of :func:`schedule` on ``jobs`` worker threads, started
    at the first call put, which take the calls in the order put."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.threads: list = []
        self.closed = False

    @staticmethod
    def run(call: Callable[[], object]) -> tuple[object, BaseException | None, float]:
        """``call()``'s outcome: its (result, error, seconds)."""
        begun = time.perf_counter()
        try:
            return call(), None, time.perf_counter() - begun
        except BaseException as exc:  # raised again by the task the outcome goes to
            return None, exc, time.perf_counter() - begun

    def put(self, tag: object, call: Callable[[], object]) -> None:
        if not self.threads:
            import threading
            from queue import SimpleQueue

            self.todo, self.done = SimpleQueue(), SimpleQueue()
            for _ in range(self.jobs):
                self.threads.append(threading.Thread(target=self._work, daemon=True))
                self.threads[-1].start()
        self.todo.put((tag, call))

    def _work(self) -> None:
        while (item := self.todo.get()) is not None and not self.closed:
            self.done.put((item[0], self.run(item[1])))

    def ended(self, block: bool) -> tuple[object, tuple] | None:
        """The tag and outcome of a call put that has ended, or ``None`` if none has and ``block`` is false."""
        return self.done.get() if self.threads and (block or not self.done.empty()) else None

    def close(self) -> None:
        """Drop the calls put but not yet begun, and wait for the rest to end."""
        self.closed = True
        for _ in self.threads:
            self.todo.put(None)
        for thread in self.threads:
            thread.join(0.01)
            while thread.is_alive():
                # interrupted: adapters lead their own sessions, out of
                # reach of the terminal's SIGINT, so stop them
                for proc in list(_running_adapters):
                    _kill_process_group(proc)
                thread.join(0.01)


class Task(NamedTuple):
    """One unit of work for :func:`schedule`: ``start()`` gives its generator."""

    name: str
    upstream: set[str]
    tool: bool  # its generator yields calls; an in-process task's yields none
    start: Callable[[], Generator[list, list, None]]


def schedule(tasks: Sequence[Task], jobs: int, runner: Callable[[int], CallRunner] = CallRunner) -> None:
    """Start each task once its upstream tasks have ended, and run the calls it yields.

    A task's generator yields batches of calls, each a non-empty list, and
    is sent the outcomes of each batch: a (result, error, seconds) per call,
    in batch order. Task generators run on this thread, and every call on
    the ``jobs`` worker threads of ``runner(jobs)``, put there as soon as its
    batch is yielded. A ready tool task starts before an in-process one.
    With ``jobs`` 1 the tool tasks take the one worker in turn, in the order
    of ``tasks``, while the in-process tasks run here beside them, and each
    turn first takes the calls that have ended. Once a task raises no other
    starts; those running finish, then the first error is raised. However
    the loop ends, the calls not yet begun are dropped and every unfinished
    generator is closed.
    """
    tools = [task.name for task in tasks if task.tool]
    waiting, unfinished = list(tasks), {task.name for task in tasks}
    started: dict[Generator, str] = {}
    running: dict[Generator, list] = {}  # each batch put to the workers: its outcomes so far
    failure: Exception | None = None
    calls = runner(jobs)

    def startable(task: Task) -> bool:
        if failure is not None or task.upstream & unfinished:
            return False
        # under --jobs 1 a tool task waits for the tool tasks before it
        return jobs > 1 or not task.tool or not unfinished.intersection(tools[: tools.index(task.name)])

    def resume(gen: Generator, outcomes: list | None = None) -> None:
        nonlocal failure
        try:
            batch = gen.send(outcomes)
        except StopIteration:
            pass
        except Exception as exc:
            failure = failure or exc
        else:
            running[gen] = [None] * len(batch)
            for i, call in enumerate(batch):
                calls.put((gen, i), call)
            return
        unfinished.discard(started.pop(gen))

    def take(item: tuple) -> None:
        (gen, i), outcome = item
        running[gen][i] = outcome
        if all(running[gen]):
            resume(gen, running.pop(gen))

    try:
        while True:
            # under --jobs 1 ended calls come first, so that the next tool task
            # can start; above 1 the ready tasks start first
            while jobs == 1 and (item := calls.ended(block=False)) is not None:
                take(item)
            ready = [task for task in waiting if startable(task)]
            # a tool task first, so that its calls run while an in-process task does
            task = next((task for task in ready if task.tool), ready[0] if ready else None)
            if task is not None:
                waiting.remove(task)
                gen = task.start()
                started[gen] = task.name
                resume(gen)
            elif running:
                take(calls.ended(block=True))
            else:
                break
        if failure is not None:
            raise failure
    finally:
        calls.close()
        for gen in started:
            gen.close()


# --- the run itself -----------------------------------------------------------

#: hex digits of a file's key in the ``newviol`` record
_KEY_LEN = 16

#: workspace paths read by a stage other than the one that writes them
_SOURCES = "prepare/sources"
_COMPILABLE = "prepare/compilable.txt"
_PRE_CSV = "analyze_pre/pre_violations.csv"
_POST_CSV = "analyze_post/post_violations.csv"
_VIOLATING = "repair/violating_files.txt"
_REPAIR_OUT = "repair/output"
_TREES = ("repair/input", _REPAIR_OUT)
_MATCHED = (_PRE_CSV, _POST_CSV, _VIOLATING)
_NEW_CSV = "newviol/new_violations.csv"
_FIXRATE_JSON = "fixrate/fixrate.json"


class Handoff(NamedTuple):
    """A value that stages hand on to later ones: ``load`` of the workspace file ``path``."""

    path: str
    load: Callable[..., object]


def _load_new(path: Path) -> tuple[int, list[Violation]]:
    from .newviol import load_new

    return load_new(path)


def _read_report(state: StateLabel, path: Path, files: Collection[str] | None = None) -> ViolationReport:
    from .violations import read_report

    return read_report(path, state, files)


_PRE_REPORT = Handoff(_PRE_CSV, partial(_read_report, StateLabel.PRE_REPAIR))
_POST_REPORT = Handoff(_POST_CSV, partial(_read_report, StateLabel.POST_REPAIR))
_NEW = Handoff(_NEW_CSV, _load_new)  # its number of rows and NEW violations


#: the code flag of a generator function, ``inspect.CO_GENERATOR``
_CO_GENERATOR = 0x20


def _yields(body: Callable) -> bool:
    """Whether a stage body, a function or a ``partial`` of one, is a generator
    function: one that yields adapter calls."""
    return bool(getattr(body, "func", body).__code__.co_flags & _CO_GENERATOR)


class Stage(NamedTuple):
    """One stage: the inputs and config fingerprint it is cached on, and its body.

    The input digest covers ``inputs(run)``, which are the paths
    ``needs(run)`` lists and each workspace path in ``optional`` that exists,
    and ``extra(run)``. ``body(run, stage_dir)`` builds ``workspace/<name>/``;
    a body that needs tools yields each batch of adapter calls and is sent
    their results. A stage whose adapter ``role`` is unbound is skipped.
    ``reads`` names the hand-offs the body takes with ``run._parsed``; the
    run keeps each hand-off until the last stage that reads it is done.
    ``copies(run)`` gives the (source tree, list file, tree) of the files
    the body copies or links, which a cache hit checks.
    """

    name: str
    needs: Callable[[PipelineRun], list[Path]]
    extra: Callable[[PipelineRun], str]
    body: Callable[[PipelineRun, Path], object]
    role: str | None = None
    optional: tuple[str, ...] = ()
    reads: tuple[Handoff, ...] = ()
    copies: Callable[[PipelineRun], tuple[Path, Path, Path]] | None = None

    def inputs(self, run: PipelineRun) -> list[Path]:
        return self.needs(run) + [path for path in run._at(*self.optional) if path.exists()]


class PipelineRun:
    """One pipeline execution over a workspace."""

    def __init__(self, config: PipelineConfig, force: bool = False, jobs: int | None = None):
        self.config = config
        self.force = force
        self.jobs = jobs if jobs is not None else config.jobs
        if self.jobs < 1:
            raise ConfigError("jobs", "must be at least 1")
        self.workspace = config.workspace_dir
        self.profile = get_profile(config.profile)
        self.state_path = self.workspace / "state.json"
        self.state: dict = {}
        self.summary: dict[str, str] = {}
        # file hashes and tree listings shared by the digests of one run, so
        # that each file is read at most once; emptied whenever adapter calls
        # end, and a stage directory forgotten when its body starts
        self._memo: _DigestMemo = {}
        # hand-off -> (digest of its file, value)
        self._handoffs: dict[Handoff, tuple[str, object]] = {}
        # the stages of this run not yet done, by name
        self._pending: dict[str, Stage] = {}
        # stage being rebuilt -> (its old directory, the record of the build
        # there if it may be reused from or else {}, its new record)
        self._rebuilds: dict[str, tuple[Path, dict, dict]] = {}

    def _at(self, *rels: str) -> list[Path]:
        return [self.workspace / rel for rel in rels]

    # -- state bookkeeping

    def _load_state(self) -> None:
        self.state = {"stages": {}}
        try:
            state = json.loads(self.state_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return
        except ValueError:  # truncated or garbled: JSON or UTF-8 decoding failed
            state = None
        stages = state.get("stages") if isinstance(state, dict) else None
        if not isinstance(stages, dict):
            # without a readable record no stage can be trusted as cached
            print(f"warning: ignoring unreadable {self.state_path}; every stage reruns", file=sys.stderr)
            return
        # a record of another shape than the rebuilder reads is dropped, and its stage reruns
        for name, record in list(stages.items()):
            steps = record.get("steps", {}) if isinstance(record, dict) else None
            if not (isinstance(steps, dict) and all(isinstance(step, dict) for step in steps.values())
                    and isinstance(record.get("files", ""), str)):
                print(f"warning: ignoring unreadable {name!r} record in {self.state_path}; it reruns", file=sys.stderr)
                del stages[name]
        self.state = state

    def _save_state(self) -> None:
        # write beside state.json and swap it in, so a crash or a failed
        # serialization never leaves a truncated state file behind
        from .violations import json_text

        tmp = self.state_path.with_name(self.state_path.name + ".tmp")
        try:
            tmp.write_text(json_text(self.state), encoding="utf-8")
            os.replace(tmp, self.state_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _drop(self, name: str, aside: Path | None = None) -> None:
        """Forget a stage: its record leaves state.json, then its directory
        goes, or is renamed to ``aside`` for a rebuild to reuse from.

        In this order a stage interrupted past this point (Ctrl-C, SIGKILL)
        is never taken as cached.
        """
        if self.state["stages"].pop(name, None) is not None:
            self._save_state()
        stage_dir = self.workspace / name
        if stage_dir.exists():
            if aside is None:
                shutil.rmtree(stage_dir)
            else:
                os.replace(stage_dir, aside)

    def _run_stage(self, stage: Stage) -> Generator[list[Callable[[], object]], list[tuple], None]:
        """Skip, reuse, or (re)build one stage, record which, then drop the
        hand-offs that no stage left to run reads.

        The stage's task for :func:`schedule`: the body's batches of adapter
        calls pass out, and each batch's time goes to ``calls_s`` and its
        results (or first error) on to the body. A stage whose adapter role
        is unbound is dropped, so no output of an earlier run outlives it; a
        missing input raises :class:`MissingStageOutputError` naming the first one.
        """
        name = stage.name
        try:
            if stage.role is not None and self.config.adapters.get(stage.role) is None:
                self._drop(name)
                self.summary[name] = f"skipped ({stage.role} role not bound)"
                return
            try:
                digest = _digest_paths(stage.inputs(self), stage.extra(self), self._memo)
            except FileNotFoundError as exc:
                raise MissingStageOutputError(name, str(exc)) from None
            stage_dir = self.workspace / name
            # the last build, unless --force is given or it failed or is gone
            old = self.state["stages"].get(name) or {}
            if self.force or old.get("status") != "ok" or not stage_dir.is_dir():
                old = {}
            if old.get("input_digest") == digest and (stage.copies is None or self._holds_copies(*stage.copies(self))):
                self.summary[name] = "cached"
                return
            # a rebuild may reuse from the old build, which stays readable beside
            # it, only if that recorded steps or files and still has its output
            # digest: a hand edit to any of its files changes that
            if not (old.get("steps") or old.get("files")) or (
                _digest_paths([stage_dir], "", self._memo) != old.get("output_digest")
            ):
                old = {}
            prev_dir = self.workspace / f".{name}.prev"
            shutil.rmtree(prev_dir, ignore_errors=True)  # left by a killed run
            self._drop(name, aside=prev_dir)
            stage_dir.mkdir(parents=True)
            # what the memo knew of this directory is stale; a body may memo the
            # files it has finished writing, for the output digest to reuse
            self._forget(stage_dir)
            record = {"input_digest": digest, "started": time.time(), "calls_s": 0.0}
            self._rebuilds[name] = (prev_dir, old, record)
            try:
                body = stage.body(self, stage_dir)
                if isinstance(body, Generator):
                    with closing(body), suppress(StopIteration):
                        batch = next(body)
                        while True:
                            outcomes = yield batch
                            results, errors, seconds = zip(*outcomes)
                            record["calls_s"] = round(record["calls_s"] + sum(seconds), 6)
                            self._memo.clear()  # the tools may have written anywhere
                            error = next(filter(None, errors), None)
                            batch = body.throw(error) if error else body.send(list(results))
            except Exception as exc:
                record.update(status="failed", error=str(exc), finished=time.time())
                self.state["stages"][name] = record
                self._save_state()
                # adapter failures keep their own type so the CLI can map them
                # to a distinct exit code
                if isinstance(exc, (StageFailureError, AdapterFailureError)):
                    raise
                raise StageFailureError(name, str(exc)) from exc
            finally:
                del self._rebuilds[name]
                shutil.rmtree(prev_dir, ignore_errors=True)
            output_digest = _digest_paths([stage_dir], "", self._memo)
            record.update(status="ok", output_digest=output_digest, finished=time.time())
            self.state["stages"][name] = record
            self._save_state()
            self.summary[name] = "ran"
        finally:
            self._pending.pop(name, None)
            read = {handoff for left in self._pending.values() for handoff in left.reads}
            for handoff in [handoff for handoff in self._handoffs if handoff not in read]:
                del self._handoffs[handoff]

    def _holds_copies(self, src: Path, listed: Path, tree: Path) -> bool:
        """Whether ``tree`` holds exactly the files ``listed`` names, each with
        the hash of its twin under ``src``; both trees are stage inputs, so
        the memo keeps these hashes for the input digests."""
        memo, prefix = self._memo, os.path.join(os.path.abspath(src), "")  # as _walk_files joins
        try:
            files = _listing(os.path.abspath(tree), memo)
            if sorted(rel for rel, _ in files) != sorted(_read_lines(listed)):
                return False
            return all(_memo_sha256(file, memo) == _memo_sha256(prefix + rel, memo) for rel, file in files)
        except (OSError, ValueError):  # a file gone, or a list not UTF-8
            return False

    def _forget(self, path: Path) -> None:
        """Drop the memo entries at, under or above ``path``."""
        top = os.path.abspath(path)
        stale = [
            key for key in self._memo
            if key == top or key.startswith(top + os.sep) or top.startswith(key + os.sep)
        ]
        for key in stale:
            del self._memo[key]

    def _reused(self, stage_dir: Path, sub: str, key: str) -> bool:
        """Whether ``stage_dir/sub``, a file or tree built from inputs of digest
        ``key``, was moved in from the previous build: it is when that build
        was found reusable as it was set aside, and it recorded the same key."""
        prev_dir, old, record = self._rebuilds[stage_dir.name]
        record.setdefault("steps", {})[sub] = {"input_digest": key}
        if old.get("steps", {}).get(sub, {}).get("input_digest") == key and (prev_dir / sub).exists():
            os.replace(prev_dir / sub, stage_dir / sub)
            return True
        return False

    def _step(self, stage_dir: Path, sub: str, adapter: ToolAdapter, input_dir: Path) -> list[Callable[[], object]]:
        """The adapter call that builds ``stage_dir/sub`` from ``input_dir``, or
        none when :meth:`_reused` moves in the old one, keyed by the input tree
        and the adapter fingerprint."""
        if self._reused(stage_dir, sub, _digest_paths([input_dir], _adapter_fingerprint(adapter), self._memo)):
            return []
        return [partial(run_tool_adapter, adapter, input_dir, stage_dir / sub)]

    def _hand_off(self, handoff: Handoff, value: object) -> None:
        """Hand on ``value``, which is what ``handoff`` loads from the file just written."""
        self._handoffs[handoff] = (_digest_paths(self._at(handoff.path), "", self._memo), value)

    def _parsed(self, handoff: Handoff, files: Collection[str] | None = None) -> Any:
        """``handoff``'s value as handed on, if its file still has the digest
        it had then, or else loaded from it, once per run.

        With ``files``, a report hand-off's findings in those files alone: a
        stale value is then not loaded whole, but from its CSV's rows of those
        files, and not kept. The digest comes from the memo, which the reading
        stage's input digest has just filled.
        """
        path = self.workspace / handoff.path
        digest = _digest_paths([path], "", self._memo)
        entry = self._handoffs.get(handoff)
        if entry is None or entry[0] != digest:
            if files is not None:
                return handoff.load(path, files=files)
            entry = self._handoffs[handoff] = (digest, handoff.load(path))
        if files is None:
            return entry[1]
        from .fixrate import restrict_to_files

        return restrict_to_files(entry[1], files)

    def _upstream(self, stage: Stage) -> set[str]:
        """The stages whose directory holds an input of ``stage``, present or not."""
        ws = self.workspace
        paths = stage.needs(self) + self._at(*stage.optional)
        return {path.relative_to(ws).parts[0] for path in paths if path.is_relative_to(ws)}

    def run(self, stages: Sequence[str] | None = None) -> dict[str, str]:
        """Execute the requested stages (all by default); the summary is in ``STAGES`` order."""
        requested = set(stages) if stages else set(STAGE_ORDER)
        unknown = requested - set(STAGE_ORDER)
        if unknown:
            raise ConfigError("stages", f"unknown stage(s): {sorted(unknown)}")
        self.workspace.mkdir(parents=True, exist_ok=True)
        with _WorkspaceLock(self.workspace):
            self._load_state()
            self.summary = {}
            self._pending = {stage.name: stage for stage in STAGES if stage.name in requested}
            tasks = [
                Task(stage.name, self._upstream(stage), _yields(stage.body), partial(self._run_stage, stage))
                for stage in self._pending.values()
            ]
            schedule(tasks, self.jobs)
        return {name: self.summary[name] for name in STAGE_ORDER if name in self.summary}


# --- the stages ---------------------------------------------------------------


def _under(*rels: str) -> Callable[[PipelineRun], list[Path]]:
    return lambda run: run._at(*rels)


def _fingerprint(*roles: str) -> Callable[[PipelineRun], str]:
    return lambda run: "|".join(_adapter_fingerprint(run.config.adapters.get(role)) for role in roles)


def _corpus(run: PipelineRun) -> list[Path]:
    corpus = run.config.corpus_dir
    if not corpus.is_dir():
        raise StageFailureError("prepare", f"corpus directory does not exist: {corpus}")
    return [corpus]


def _copy_files(src: Path, rels: Iterable[str], dest: Path, link: bool = False) -> None:
    """Copy each relative path ``rels`` names from under ``src`` into the new
    directory ``dest``; with ``link``, hard-link it where the filesystem allows."""
    os.mkdir(dest)
    made = {""}  # the parents made so far, relative to dest
    for rel in rels:
        parent = os.path.dirname(rel)
        if parent not in made:
            os.makedirs(os.path.join(dest, parent), exist_ok=True)
            made.add(parent)
        source, target = os.path.join(src, rel), os.path.join(dest, rel)
        if link:
            try:
                os.link(source, target)
                continue
            except OSError:  # EPERM, EXDEV, EMLINK: copied instead
                pass
        shutil.copyfile(source, target)


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def split_lines(text: str) -> list[str]:
    """A list file's names: split on ``\\n`` alone, as ``_write_lines`` joins
    them, so U+2028 may be part of a name, and each without one trailing ``\\r``."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def _read_lines(path: Path) -> list[str]:
    return split_lines(path.read_bytes().decode("utf-8"))


def _prepare(run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    from .violations import json_text

    compiler = run.config.adapters.get("compiler")
    corpus = run.config.corpus_dir
    if compiler is not None:
        yield [partial(run_tool_adapter, compiler, corpus, stage_dir / "raw")]
        from .semantic import read_compile_results

        compilable, rejected = read_compile_results(_artifact(compiler, stage_dir / "raw"))
    else:
        # the listing the input digest has just put in the memo
        compilable = sorted(rel for rel, _ in _listing(os.path.abspath(corpus), run._memo))
        rejected = {}
    for rel in compilable:
        if "\n" in rel or "\r" in rel:  # a list file could not give it back
            raise StageFailureError("prepare", f"corpus file name holds a line break: {rel!r}")
    _copy_files(corpus, compilable, run.workspace / _SOURCES)
    (stage_dir / "rejected.json").write_text(json_text(rejected), encoding="utf-8")
    _write_lines(run.workspace / _COMPILABLE, compilable)


def _analyzer_fingerprint(run: PipelineRun) -> str:
    extra = _fingerprint("analyzer")(run) + "|" + run.config.report_adapter
    options = run.config.report_adapter_options
    if options:  # left out when empty, so that workspaces without options keep their digests
        extra += "|" + json.dumps(options, sort_keys=True)
    return extra


def _analyze(tree: str, state: StateLabel, handoff: Handoff, run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    analyzer = run.config.adapters["analyzer"]
    raw = stage_dir / "raw"
    yield [partial(run_tool_adapter, analyzer, run.workspace / tree, raw)]
    report_file = _artifact(analyzer, raw)
    csv_path = run.workspace / handoff.path
    # the same raw report, read the same way, gives the same CSV: move the old one in
    if run._reused(stage_dir, csv_path.name, _digest_paths([report_file], _analyzer_fingerprint(run), run._memo)):
        return
    from .violations import parse_file, parse_report, write_report

    options = run.config.report_adapter_options
    report = parse_file(report_file, lambda data: parse_report(data, run.config.report_adapter, state, options))
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_report(fh, report.entries)
    # a CSV re-read gives this same report back, so later stages need not parse
    run._hand_off(handoff, report)


def _repair(run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    repairer = run.config.adapters["repairer"]
    sources, compilable_txt = run._at(_SOURCES, _COMPILABLE)
    violating = prepare_corpus_violating(_read_lines(compilable_txt), run._parsed(_PRE_REPORT), run.profile)
    _write_lines(run.workspace / _VIOLATING, violating)
    input_dir, output_dir = run._at(*_TREES)
    # hard links: a tool's write in place shows in prepare/sources too, and both cache checks see it
    _copy_files(sources, violating, input_dir, link=True)
    if "{rule}" in repairer.command_template:
        # one sequential pass per profile rule, in application order
        current = input_dir
        for i, rule in enumerate(run.profile.application_order):
            pass_dir = stage_dir / f"pass_{i:02d}_{rule}"
            yield [partial(run_tool_adapter, repairer, current, pass_dir, rule=rule)]
            current = pass_dir
        # a copy, so that an edit of repair/output leaves the last pass as it was
        _copy_files(current, _written(current), output_dir)
    else:
        yield [partial(run_tool_adapter, repairer, input_dir, output_dir)]


def _fixrate(run: PipelineRun, stage_dir: Path) -> None:
    from .fixrate import restrict_to_files, score_fix_rate

    pre = restrict_to_files(run._parsed(_PRE_REPORT), _read_lines(run.workspace / _VIOLATING))
    score_fix_rate(pre, run._parsed(_POST_REPORT), run.profile, stage_dir)


def _newviol_fingerprint(run: PipelineRun) -> str:
    return run.profile.name + "|" + run.config.normalization.value


def _newviol(run: PipelineRun, stage_dir: Path) -> None:
    """Judge the post findings of each file whose inputs changed since the
    last build, and take the other files' rows from that build. A file's
    verdicts depend only on its original and repaired bytes and its own pre
    (if sent to repair) and post findings; the record keeps a short key of
    these per file."""
    import heapq

    from . import newviol as newviol_mod
    from .violations import finding_digests

    trees = load_sources(*run._at(*_TREES))
    post_rows = finding_digests(run.workspace / _POST_CSV)
    violating = set(_read_lines(run.workspace / _VIOLATING))
    pre_rows = finding_digests(run.workspace / _PRE_CSV, violating & post_rows.keys())
    fingerprint = hashlib.sha256(_newviol_fingerprint(run).encode())
    absent = bytes(32)  # in place of a 32-byte digest

    def key(file_id: str, post: bytes) -> str:
        original, repaired = trees.original(file_id), trees.repaired(file_id)
        h = fingerprint.copy()
        # each part a digest, so only the file id is of varying length
        h.update(b"".join((
            absent if original is None else _memo_sha256(original, run._memo),
            _memo_sha256(repaired, run._memo) if original and os.path.isfile(repaired) else absent,
            pre_rows.get(file_id, absent),
            post,
        )))
        h.update(file_id.encode())
        return h.hexdigest()[:_KEY_LEN]

    keys = {file_id: key(file_id, post) for file_id, post in post_rows.items()}
    prev_dir, old, record = run._rebuilds["newviol"]
    old_keys = old.get("files", "")
    old_keys = {old_keys[i : i + _KEY_LEN] for i in range(0, len(old_keys), _KEY_LEN)}
    kept = {file_id for file_id, k in keys.items() if k in old_keys}
    changed = keys.keys() - kept
    rows: Iterable = ()
    if changed:  # judged and written one file at a time
        pre, post = run._parsed(_PRE_REPORT, changed & violating), run._parsed(_POST_REPORT, changed)
        rows = newviol_mod.verdict_rows(newviol_mod.judge_files(pre, post, trees, run.config.normalization))
    if kept:
        # both in canonical order, which groups the rows by file
        old_rows = newviol_mod.read_verdict_rows(prev_dir / "new_violations.csv", kept)
        rows = heapq.merge(old_rows, rows, key=lambda item: item[0][0])
    record["files"] = "".join(sorted(keys.values()))
    # a re-read gives these same rows back, so sample and report need not parse
    run._hand_off(_NEW, newviol_mod.write_newviol(stage_dir, rows, trees.deleted()))


def _sample(run: PipelineRun, stage_dir: Path) -> None:
    from .sampling import sample_new

    new = run._parsed(_NEW)[1]
    # the sheet shows repaired code alone, so no original file is read
    sources = load_sources(*run._at(*_TREES), originals=False)
    sample_new(new, run.config.sampling, run.config.seed, sources,
               stage_dir / "sheet.csv", stage_dir / "allocation.json")


def _semantic(run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    from . import semantic as semantic_mod

    runner = run.config.adapters["test_runner"]
    compiler = run.config.adapters.get("compiler")
    repair_in, repair_out = run._at(*_TREES)
    calls = [
        *run._step(stage_dir, "baseline_raw", runner, repair_in),
        partial(run_tool_adapter, runner, repair_out, stage_dir / "repaired_raw"),
    ]
    if compiler is not None:
        calls.append(partial(run_tool_adapter, compiler, repair_out, stage_dir / "compile_raw"))
    yield calls
    diagnostics = (semantic_mod.read_compile_results(_artifact(compiler, stage_dir / "compile_raw"))[1]
                   if compiler is not None else {})
    semantic_mod.score_semantic(_artifact(runner, stage_dir / "baseline_raw"),
                                _artifact(runner, stage_dir / "repaired_raw"), diagnostics, stage_dir)


def _metrics(run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    from .metrics import score_metrics

    extractor = run.config.adapters["metric_extractor"]
    repair_in, repair_out = run._at(*_TREES)
    yield [
        *run._step(stage_dir, "pre_raw", extractor, repair_in),
        partial(run_tool_adapter, extractor, repair_out, stage_dir / "post_raw"),
    ]
    score_metrics(_artifact(extractor, stage_dir / "pre_raw"), _artifact(extractor, stage_dir / "post_raw"), stage_dir)


#: every stage, in run order
STAGES = (
    Stage("prepare", _corpus, _fingerprint("compiler"), _prepare,
          copies=lambda run: (run.config.corpus_dir, *run._at(_COMPILABLE, _SOURCES))),
    Stage("analyze_pre", _under(_SOURCES), _analyzer_fingerprint,
          partial(_analyze, _SOURCES, StateLabel.PRE_REPAIR, _PRE_REPORT), "analyzer"),
    Stage("repair", _under(_SOURCES, _PRE_CSV, _COMPILABLE),
          lambda run: _fingerprint("repairer")(run) + "|" + run.profile.name, _repair, "repairer",
          reads=(_PRE_REPORT,), copies=lambda run: tuple(run._at(_SOURCES, _VIOLATING, _TREES[0]))),
    Stage("analyze_post", _under(_REPAIR_OUT), _analyzer_fingerprint,
          partial(_analyze, _REPAIR_OUT, StateLabel.POST_REPAIR, _POST_REPORT), "analyzer"),
    Stage("fixrate", _under(*_MATCHED), lambda run: run.profile.name, _fixrate,
          reads=(_PRE_REPORT, _POST_REPORT)),
    Stage("newviol", _under(*_MATCHED, *_TREES), _newviol_fingerprint, _newviol,
          reads=(_PRE_REPORT, _POST_REPORT)),
    Stage("sample", _under(_NEW_CSV, *_TREES),
          lambda run: json.dumps({**run.config.sampling._asdict(), "seed": run.config.seed}, sort_keys=True),
          _sample, reads=(_NEW,)),
    Stage("semantic", _under(*_TREES), _fingerprint("test_runner", "compiler"), _semantic, "test_runner"),
    Stage("metrics", _under(*_TREES), _fingerprint("metric_extractor"), _metrics, "metric_extractor"),
    # the axes after fix rate are optional, so only those present are read
    Stage("report", _under(_FIXRATE_JSON), lambda run: "",
          lambda run, stage_dir: emit_reports(run.workspace, lambda path: run._parsed(_NEW)),
          optional=("newviol", "sample", "semantic", "metrics"), reads=(_NEW,)),
)

STAGE_ORDER = tuple(stage.name for stage in STAGES)


def run_pipeline(
    config: PipelineConfig,
    stages: Sequence[str] | None = None,
    force: bool = False,
    jobs: int | None = None,
) -> dict[str, str]:
    """Convenience wrapper: construct a run and execute it."""
    return PipelineRun(config, force=force, jobs=jobs).run(stages)


# --- unified report -----------------------------------------------------------

#: the tables of each stage that the report bundle carries a copy of
_REPORT_CSVS = {
    "fixrate": ("fixrate.csv", "fixed_violations.csv"),
    "newviol": ("new_violations.csv", "new_matrix.csv", "new_frequency.csv"),
    "sample": ("sheet.csv",),
    "semantic": ("regressions.csv", "failure_histogram.csv", "compile_errors.csv"),
    "metrics": ("structural_stats.csv", "metric_medians.csv", "signed_ranks.csv", "normality.csv"),
}


def emit_reports(
    workspace: Path, load_newviol: Callable[[Path], tuple[int, list[Violation]]] | None = None
) -> dict:
    """Merge all axis outputs into ``report/summary.json`` plus CSV copies.

    The fix-rate axis is required (it is the baseline every other analysis
    builds on); the other axes are marked skipped when their stage outputs
    are absent. ``load_newviol`` gives the number of rows and the NEW
    violations of a ``new_violations.csv`` (by default ``newviol.load_new``).
    Output depends only on the stage outputs, so identical workspaces
    produce byte-identical reports.
    """
    from .violations import json_text, parse_file, parse_json

    workspace = Path(workspace)
    report_dir = workspace / "report"
    report_dir.mkdir(parents=True, exist_ok=True)

    fixrate_json = workspace / _FIXRATE_JSON
    if not fixrate_json.is_file():
        raise MissingStageOutputError("fixrate", str(fixrate_json))
    summary: dict = {"fixrate": parse_file(fixrate_json, parse_json)}

    new_csv = workspace / _NEW_CSV
    if new_csv.is_file():
        from .newviol import summarize_new

        summary["newviol"] = summarize_new(*(load_newviol or _load_new)(new_csv))
    else:
        summary["newviol"] = {"status": "skipped"}

    for stage, name in (("sample", "allocation.json"), ("semantic", "semantic.json"),
                        ("metrics", "metrics.json")):
        path = workspace / stage / name
        summary[stage] = parse_file(path, parse_json) if path.is_file() else {"status": "skipped"}

    (report_dir / "summary.json").write_text(json_text(summary), encoding="utf-8")
    for stage, names in _REPORT_CSVS.items():
        for name in names:
            src = workspace / stage / name
            if src.is_file():
                shutil.copyfile(src, report_dir / name)
    return summary
