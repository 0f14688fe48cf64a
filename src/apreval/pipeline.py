"""End-to-end orchestration: configs, tool adapters, and the cache decision.

The ``STAGES`` table declares each stage once, as data: its inputs as
workspace paths, from which the stage graph and the hand-offs a run keeps
follow, config fingerprint, adapter role and whether it calls tools. The
bodies that build the stages are in ``stages``. A run is split as in
"Build systems à la carte" (Mokhov, Mitchell and Peyton Jones, ICFP 2018).
The scheduler, :func:`schedule`, knows only tasks (a name, upstream
names, a tool flag and a generator that yields batches of calls): it
starts each task once its upstream tasks have ended, and runs their calls
on a :class:`CallRunner`. The rebuilder, ``PipelineRun._run_stage``, is
the task of one stage: it skips the stage, takes it as cached when its
input digest is unchanged and the files it copied still match, or
rebuilds ``workspace/<stage>/`` with the stage's body, and records which
in ``state.json``.

External tools are described by command templates and run as
subprocesses with timeout enforcement, artifact checks, and log capture;
scripted stub tools ship with the package, so the whole pipeline runs
without any external toolchain. The rebuilder imports ``stages``, and the
axis modules with it, at a run's first rebuild, so a run whose stages are
all cached loads no analysis code: what it reads of a config comes from
``terms``, and no ``dataclasses`` or ``inspect`` either.
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
from typing import TYPE_CHECKING, Callable, Collection, Generator, Iterator, Mapping, NamedTuple, Sequence

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
from .terms import Z_TABLE, NormalizationPolicy, check_report_adapter, get_profile

if TYPE_CHECKING:
    import subprocess

    from .violations import Violation

#: each adapter role and the file its tool must leave, where the role fixes one (see ``stages._artifact``)
ROLES = {"analyzer": None, "repairer": None, "test_runner": "results.csv",
         "metric_extractor": "class_metrics.csv", "compiler": "compile_results.json"}

_ALLOWED_PLACEHOLDERS = {"input", "output", "workdir", "python", "rule"}


def _placeholders(template: str) -> set[str]:
    """The fields a command template fills in: those of each argument it is
    split into, as ``str.format`` reads them, so ``{{rule}}`` is literal text."""
    return {field for arg in shlex.split(template) for _, field, _, _ in string.Formatter().parse(arg)
            if field is not None}

#: the logs :func:`run_tool_adapter` writes at the top of its output directory
_ADAPTER_LOGS = ("adapter_stdout.log", "adapter_stderr.log")


class _ToolAdapterFields(NamedTuple):
    name: str
    command_template: str
    timeout: float = 600.0
    expected_artifacts: tuple[str, ...] = ()


class ToolAdapter(_ToolAdapterFields):
    """External tool described by a command template.

    Templates may use {input}, {output}, {workdir}, {python} and, for a
    repairer alone, {rule}, which makes it run one pass per rule. A template
    is split into arguments as a POSIX shell would before they are filled
    in. Each expected artifact is a relative path under {output}.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ToolAdapter:
        self = super().__new__(cls, *args, **kwargs)
        if self.timeout <= 0:
            raise ConfigError(f"adapters.{self.name}.timeout", "timeout must be > 0")
        where = f"adapters.{self.name}.command"
        try:
            fields = _placeholders(self.command_template)
        except ValueError as exc:  # such as an unclosed quote
            raise ConfigError(where, f"cannot be split into arguments: {exc}") from None
        if "input" not in fields:
            raise ConfigError(where, "template must contain {input}")
        unknown = fields - _ALLOWED_PLACEHOLDERS
        if unknown:
            raise ConfigError(where, f"unknown placeholder {{{min(unknown)}}}; allowed: {sorted(_ALLOWED_PLACEHOLDERS)}")
        if "rule" in fields and self.name != "repairer":
            raise ConfigError(where, "{rule} is filled in for the repairer alone")
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


_ADAPTER_KEYS = ("command", "timeout", "expected_artifacts")

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


def _known(doc: dict, keys: Collection[str], where: str, what: str) -> None:
    """Refuse the first key of ``doc``, by name, that is not in ``keys``."""
    unknown = set(doc).difference(keys)
    if unknown:
        raise ConfigError(where + sorted(unknown)[0], f"unknown {what}")


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
    _known(doc, PipelineConfig._fields, "", "configuration key")
    for required in ("corpus_dir", "workspace_dir", "adapters"):
        if required not in doc:
            raise ConfigError(required, "required key is missing")

    raw_adapters = doc["adapters"]
    if not isinstance(raw_adapters, dict):
        raise ConfigError("adapters", "must be an object mapping roles to adapters")
    _known(raw_adapters, ROLES, "adapters.", "adapter role")
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
        where = f"adapters.{role}."
        _known(raw, _ADAPTER_KEYS, where, "adapter key")
        if "command" not in raw:
            raise ConfigError(where + "command", "required key is missing")
        adapters[role] = ToolAdapter(
            name=role,
            command_template=_typed(raw, "command", str, None, where),
            timeout=float(_typed(raw, "timeout", float, 600.0, where)),
            expected_artifacts=tuple(_typed(raw, "expected_artifacts", list, [], where)),
        )

    raw_sampling = _typed(doc, "sampling", dict, {})
    _known(raw_sampling, SamplingParams._fields, "sampling.", "sampling key")
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
            raise AdapterTimeoutError(f"adapter {adapter.name!r} exceeded timeout of {adapter.timeout}s") from None
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
                raise WorkspaceLockedError(f"workspace is locked by another run ({self.path})") from None
            raise
        return self

    def __exit__(self, *exc):
        os.close(self.fd)  # never unlinked, lest two runs each lock a file of that name
        return False


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

#: the config's corpus directory, as a stage input
CORPUS = "<corpus>"
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


class Stage(NamedTuple):
    """One stage: the inputs and config fingerprint it is cached on.

    Each input is a workspace-relative path, or ``CORPUS``. The input
    digest covers ``inputs(run)``, the paths in ``needs`` and those in
    ``optional`` that exist, and ``extra(run)``. A stage runs after the
    stages whose directories hold its inputs, and a run keeps a hand-off
    while a stage left to run has its path, or a directory above it, as an
    input. The body, ``stages.BODIES[name]``, builds ``workspace/<name>/``;
    ``tools`` declares that it yields each batch of adapter calls and is
    sent their results. A stage whose adapter ``role`` is unbound is
    skipped. ``copies`` names the (source tree, list file, tree) of the
    files the body copies or links, which a cache hit checks.
    """

    name: str
    needs: tuple[str, ...]
    extra: Callable[[PipelineRun], str]
    tools: bool = False
    role: str | None = None
    optional: tuple[str, ...] = ()
    copies: tuple[str, ...] = ()

    def inputs(self, run: PipelineRun) -> list[Path]:
        corpus = run.config.corpus_dir
        if CORPUS in self.needs and not corpus.is_dir():
            raise StageFailureError(self.name, f"corpus directory does not exist: {corpus}")
        return run._at(*self.needs) + [path for path in run._at(*self.optional) if path.exists()]


class PipelineRun:
    """One pipeline execution over a workspace."""

    def __init__(self, config: PipelineConfig, force: bool = False, jobs: int | None = None):
        self.config = config
        self.force = force
        self.jobs = jobs if jobs is not None else config.jobs
        if self.jobs < 1:
            raise ConfigError("jobs", "must be at least 1")
        self.workspace = config.workspace_dir
        # a workspace in the corpus is copied into prepare/sources, and a corpus
        # in a stage's directory is deleted when that stage is rebuilt
        workspace, corpus = self.workspace.resolve(), config.corpus_dir.resolve()
        if workspace.is_relative_to(corpus):
            raise ConfigError("workspace_dir", f"must not be or lie under the corpus directory {corpus}")
        stage_dirs = [workspace / top for name in STAGE_ORDER for top in (name, f".{name}.prev")]
        if any(corpus.is_relative_to(stage_dir) for stage_dir in stage_dirs):
            raise ConfigError("corpus_dir", f"must not lie under a stage directory of the workspace {workspace}")
        self.profile = get_profile(config.profile)
        self.state_path = self.workspace / "state.json"
        self.state: dict = {}
        self.summary: dict[str, str] = {}
        # file hashes and tree listings shared by the digests of one run, so
        # that each file is read at most once; emptied whenever adapter calls
        # end, and a stage directory forgotten when its body starts
        self._memo: _DigestMemo = {}
        # hand-off path -> (digest of its file, value)
        self._handoffs: dict[str, tuple[str, object]] = {}
        # the stages of this run not yet done, by name
        self._pending: dict[str, Stage] = {}
        # stage being rebuilt -> (its old directory, the record of the build
        # there if it may be reused from or else {}, its new record)
        self._rebuilds: dict[str, tuple[Path, dict, dict]] = {}

    def _at(self, *rels: str) -> list[Path]:
        return [self.config.corpus_dir if rel == CORPUS else self.workspace / rel for rel in rels]

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
        hand-offs that no stage left to run has as an input.

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
            if old.get("input_digest") == digest and (not stage.copies or self._holds_copies(*self._at(*stage.copies))):
                self.summary[name] = "cached"
                return
            from . import stages  # the bodies and the analysis they call, which no cache hit loads

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
                body = stages.BODIES[name](self, stage_dir)
                if stage.tools:
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
            held = {top + "/" for left in self._pending.values() for top in left.needs + left.optional}
            for path in [path for path in self._handoffs if not any(map((path + "/").startswith, held))]:
                del self._handoffs[path]

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

    @staticmethod
    def _upstream(stage: Stage) -> set[str]:
        """The stages whose directory holds an input of ``stage``, present or not."""
        return {path.split("/")[0] for path in stage.needs + stage.optional if path != CORPUS}

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
                Task(stage.name, self._upstream(stage), stage.tools, partial(self._run_stage, stage))
                for stage in self._pending.values()
            ]
            schedule(tasks, self.jobs)
        return {name: self.summary[name] for name in STAGE_ORDER if name in self.summary}


# --- the stages ---------------------------------------------------------------


def _fingerprint(*roles: str) -> Callable[[PipelineRun], str]:
    return lambda run: "|".join(_adapter_fingerprint(run.config.adapters.get(role)) for role in roles)


def split_lines(text: str) -> list[str]:
    """A list file's names: split on ``\\n`` alone, as ``stages._write_lines`` joins
    them, so U+2028 may be part of a name, and each without one trailing ``\\r``."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def _read_lines(path: Path) -> list[str]:
    return split_lines(path.read_bytes().decode("utf-8"))


def _analyzer_fingerprint(run: PipelineRun) -> str:
    extra = _fingerprint("analyzer")(run) + "|" + run.config.report_adapter
    options = run.config.report_adapter_options
    if options:  # left out when empty, so that workspaces without options keep their digests
        extra += "|" + json.dumps(options, sort_keys=True)
    return extra


def _newviol_fingerprint(run: PipelineRun) -> str:
    return run.profile.name + "|" + run.config.normalization.value


#: every stage, in run order
STAGES = (
    Stage("prepare", (CORPUS,), _fingerprint("compiler"), tools=True, copies=(CORPUS, _COMPILABLE, _SOURCES)),
    Stage("analyze_pre", (_SOURCES,), _analyzer_fingerprint, tools=True, role="analyzer"),
    Stage("repair", (_SOURCES, _PRE_CSV, _COMPILABLE),
          lambda run: _fingerprint("repairer")(run) + "|" + run.profile.name, tools=True, role="repairer",
          copies=(_SOURCES, _VIOLATING, _TREES[0])),
    Stage("analyze_post", (_REPAIR_OUT,), _analyzer_fingerprint, tools=True, role="analyzer"),
    Stage("fixrate", _MATCHED, lambda run: run.profile.name),
    Stage("newviol", _MATCHED + _TREES, _newviol_fingerprint),
    Stage("sample", (_NEW_CSV, *_TREES),
          lambda run: json.dumps({**run.config.sampling._asdict(), "seed": run.config.seed}, sort_keys=True)),
    Stage("semantic", _TREES, _fingerprint("test_runner", "compiler"), tools=True, role="test_runner"),
    Stage("metrics", _TREES, _fingerprint("metric_extractor"), tools=True, role="metric_extractor"),
    # the axes after fix rate are optional, so only those present are read
    Stage("report", (_FIXRATE_JSON,), lambda run: "", optional=("newviol", "sample", "semantic", "metrics")),
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
    from .newviol import load_new, summarize_new
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
        summary["newviol"] = summarize_new(*(load_newviol or load_new)(new_csv))
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
