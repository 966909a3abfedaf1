"""``repro.api`` — the one front door to the Vacuum Packing pipeline.

Historically every stage grew its own configuration object
(:class:`~repro.hsd.config.HSDConfig`,
:class:`~repro.regions.config.RegionConfig`,
:class:`~repro.hsd.filtering.SimilarityPolicy`, plus a fistful of
scattered ``VacuumPacker`` keyword arguments).  :class:`PipelineConfig`
composes all of them — including the observability options — into one
declarative, JSON-round-trippable document, and the module-level
:func:`pack` / :func:`profile` facades run the pipeline from it:

.. code-block:: python

    import repro

    config = repro.PipelineConfig(classic=True)
    result = repro.pack("134.perl/A", config)
    print(result.coverage.package_fraction)

``PipelineConfig.from_dict`` powers the ``--config pipeline.json`` flag
that every CLI subcommand accepts; ``to_dict`` round-trips exactly, so
a config can be captured from code, committed, and replayed.

:class:`ServerConfig` gives the long-running profile daemon
(:mod:`repro.server`) the same treatment: one frozen, strictly-parsed
document for everything that parameterizes a daemon — bind address,
default benchmark, checkpoint tag, GC budget, the embedded pipeline
document — powering ``repro server --config server.json``.

``VacuumPacker`` takes its knobs only through a :class:`PipelineConfig`
(``config.packer()`` builds one).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.hsd.config import HSDConfig
from repro.hsd.filtering import SimilarityPolicy
from repro.packages.ordering import check_ordering_mode
from repro.regions.config import RegionConfig

CONFIG_VERSION = 1


def _from_mapping(cls, payload: Dict, context: str):
    """Construct a config dataclass from a dict, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"{context}: unknown key(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    return cls(**payload)


@dataclass(frozen=True)
class ObsConfig:
    """Observability options of one pipeline invocation.

    * ``trace`` — enable span tracing for the run (the facades install
      a fresh tracer; ``repro trace`` sets this for the whole process).
    * ``trace_out`` — when tracing, also write the ledger here.
    * ``trace_format`` — export format for ``trace_out``
      (``chrome`` | ``jsonl``).
    """

    trace: bool = False
    trace_out: Optional[str] = None
    trace_format: str = "chrome"

    def __post_init__(self) -> None:
        from repro.obs.render import EXPORT_FORMATS

        if self.trace_format not in EXPORT_FORMATS:
            raise ValueError(
                f"trace_format must be one of {', '.join(EXPORT_FORMATS)}, "
                f"got {self.trace_format!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that shapes one profile → identify → pack run."""

    hsd: HSDConfig = field(default_factory=HSDConfig)
    region: RegionConfig = field(default_factory=RegionConfig)
    similarity: SimilarityPolicy = field(default_factory=SimilarityPolicy)
    link: bool = True
    optimize: bool = True
    classic: bool = False
    ordering: str = "best"
    strict: bool = False
    validate: bool = True
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        check_ordering_mode(self.ordering)

    # -- serialization -----------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-able document; ``from_dict`` round-trips it exactly."""
        return {
            "version": CONFIG_VERSION,
            "hsd": dataclasses.asdict(self.hsd),
            "region": dataclasses.asdict(self.region),
            "similarity": dataclasses.asdict(self.similarity),
            "link": self.link,
            "optimize": self.optimize,
            "classic": self.classic,
            "ordering": self.ordering,
            "strict": self.strict,
            "validate": self.validate,
            "obs": dataclasses.asdict(self.obs),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineConfig":
        """Build a config from a (possibly partial) document.

        Missing keys take their defaults; unknown keys — at any level —
        raise ``ValueError`` rather than being silently dropped.
        """
        payload = dict(payload)
        version = payload.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValueError(
                f"unsupported pipeline config version {version!r} "
                f"(this build reads version {CONFIG_VERSION})"
            )
        kwargs: Dict[str, object] = {}
        for name, sub in (("hsd", HSDConfig), ("region", RegionConfig),
                          ("similarity", SimilarityPolicy),
                          ("obs", ObsConfig)):
            if name in payload:
                kwargs[name] = _from_mapping(
                    sub, dict(payload.pop(name)), name
                )
        scalars = {f.name for f in dataclasses.fields(cls)} - {
            "hsd", "region", "similarity", "obs",
        }
        unknown = sorted(set(payload) - scalars)
        if unknown:
            raise ValueError(
                f"pipeline config: unknown key(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(scalars))} "
                f"(+ hsd/region/similarity/obs sections)"
            )
        kwargs.update(payload)
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        """Read a ``pipeline.json`` document (the ``--config`` flag)."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # -- convenience -------------------------------------------------
    def replace(self, **changes) -> "PipelineConfig":
        return dataclasses.replace(self, **changes)

    def packer(self):
        """A :class:`~repro.postlink.vacuum.VacuumPacker` for this
        config (never warns — this is the supported path)."""
        from repro.postlink.vacuum import VacuumPacker

        return VacuumPacker(self)


SERVER_CONFIG_VERSION = 1


@dataclass(frozen=True)
class ServerConfig:
    """Everything that parameterizes one profile daemon.

    The daemon (:class:`repro.server.ProfileDaemon`) is multi-tenant:
    one process serves many binaries, each behind its own aggregator
    and checkpoint slot, over one shared artifact store.  ``benchmark``
    and ``input_name`` name the *default tenant* — the one the PR-9
    flat routes alias and the one unstamped uploads fold into.

    Like :class:`PipelineConfig`, the document round-trips exactly
    through :meth:`to_dict` / :meth:`from_dict`, and unknown keys — at
    the top level or inside the embedded ``pipeline`` section — raise
    ``ValueError`` instead of being silently dropped.  This powers
    ``repro server --config server.json``.
    """

    #: Benchmark binary of the default tenant (``NAME`` + input).
    benchmark: str
    input_name: str = "A"
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back from
    #: :attr:`repro.server.ProfileDaemon.port` or the printed banner).
    port: int = 0
    scale: Optional[float] = None
    #: Merged phases per farm shard on ``/repack``.
    shard_size: int = 1
    jobs: Optional[int] = None
    #: Full pipeline-config document for the packer (``None`` =
    #: defaults), exactly as :class:`~repro.service.farm.FarmConfig`
    #: takes it.
    pipeline: Optional[Dict] = None
    #: Checkpoint-slot identity: one daemon tag = one resumable state.
    #: The default tenant checkpoints under the tag itself (so a
    #: single-tenant PR-9 checkpoint restores as the default tenant);
    #: tenant ``T`` checkpoints under ``tag:T``.
    tag: str = "server"
    #: Artifact-store byte cap enforced by the periodic GC sweep
    #: (``None`` = GC off).  The budget is shared by every tenant;
    #: only pinned slots (each tenant's checkpoint, the tenant
    #: directory) are exempt from eviction.
    gc_max_bytes: Optional[int] = None
    #: Seconds between GC sweeps.
    gc_interval: float = 30.0
    #: Optional directory of profile documents preloaded (and dedup'd)
    #: into the aggregators on boot (``repro server --profiles``).
    #: Documents route by their ``meta.benchmark`` stamp exactly like
    #: uploads.
    profiles_dir: Optional[str] = None
    #: Seconds shutdown waits for in-flight requests to drain.
    drain_timeout: float = 5.0
    #: Artifact store root (``None`` = REPRO_ARTIFACT_STORE or the
    #: user cache default; ``"off"`` disables persistence).
    store: Optional[str] = None

    @property
    def default_tenant(self) -> str:
        """Tenant name the flat (PR-9) routes alias."""
        return f"{self.benchmark}/{self.input_name}"

    # -- serialization -----------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-able document; ``from_dict`` round-trips it exactly."""
        payload = dataclasses.asdict(self)
        payload["version"] = SERVER_CONFIG_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "ServerConfig":
        """Build a config from a (possibly partial) document.

        Missing keys take their defaults; unknown keys raise
        ``ValueError``.  A non-``None`` ``pipeline`` section is
        validated by parsing it as a :class:`PipelineConfig` document
        (then stored back as its full ``to_dict`` form, so partial
        pipeline sections normalize).
        """
        payload = dict(payload)
        version = payload.pop("version", SERVER_CONFIG_VERSION)
        if version != SERVER_CONFIG_VERSION:
            raise ValueError(
                f"unsupported server config version {version!r} "
                f"(this build reads version {SERVER_CONFIG_VERSION})"
            )
        pipeline = payload.pop("pipeline", None)
        if pipeline is not None:
            if not isinstance(pipeline, dict):
                raise ValueError(
                    "server config: 'pipeline' must be a PipelineConfig "
                    f"document (JSON object), got {type(pipeline).__name__}"
                )
            try:
                pipeline = PipelineConfig.from_dict(pipeline).to_dict()
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"server config: bad 'pipeline' section: {exc}"
                ) from exc
        if "benchmark" not in payload:
            raise ValueError(
                "server config: missing required key 'benchmark'"
            )
        config = _from_mapping(cls, payload, "server config")
        return dataclasses.replace(config, pipeline=pipeline)

    @classmethod
    def load(cls, path: str) -> "ServerConfig":
        """Read a ``server.json`` document (the ``--config`` flag)."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def replace(self, **changes) -> "ServerConfig":
        return dataclasses.replace(self, **changes)


# ---------------------------------------------------------------------------
# facade functions
# ---------------------------------------------------------------------------

def _resolve_workload(workload, scale: Optional[float] = None):
    """Accept a :class:`~repro.workloads.base.Workload` or a Table 1
    ``"benchmark/input"`` spec."""
    if isinstance(workload, str):
        from repro.workloads.suite import load_benchmark

        benchmark, _, input_name = workload.partition("/")
        return load_benchmark(benchmark, input_name or "A", scale=scale)
    return workload


def _traced(config: PipelineConfig):
    """Context manager honoring ``config.obs`` for one facade call."""
    from contextlib import contextmanager

    from repro import obs
    from repro.obs.render import write_export

    @contextmanager
    def runner():
        if not config.obs.trace or obs.tracing_enabled():
            # Either tracing is off, or an outer scope (repro trace)
            # already owns the tracer — never steal it.
            yield
            return
        tracer = obs.enable_tracing()
        try:
            yield
        finally:
            obs.disable_tracing()
            if config.obs.trace_out:
                write_export(
                    config.obs.trace_out,
                    tracer.spans(),
                    obs.default_registry().snapshot(),
                    fmt=config.obs.trace_format,
                )

    return runner()


def pack(
    workload: Union[str, object],
    config: Optional[PipelineConfig] = None,
    scale: Optional[float] = None,
):
    """Run the full Figure-1 pipeline; the recommended entry point.

    ``workload`` is a :class:`~repro.workloads.base.Workload` or a
    ``"benchmark/input"`` spec (``scale`` applies to specs only).
    Returns a :class:`~repro.postlink.vacuum.PackResult`.
    """
    config = config or PipelineConfig()
    target = _resolve_workload(workload, scale)
    with _traced(config):
        return config.packer().pack(target)


def profile(
    workload: Union[str, object],
    config: Optional[PipelineConfig] = None,
    scale: Optional[float] = None,
):
    """Run only the hardware-profiling step (Figure 1, stage 1).

    Returns a :class:`~repro.postlink.vacuum.ProfileResult` that can be
    handed back to :func:`pack` via ``VacuumPacker.pack(workload,
    profile=...)`` or persisted with :mod:`repro.hsd.serialize`.
    """
    config = config or PipelineConfig()
    target = _resolve_workload(workload, scale)
    with _traced(config):
        return config.packer().profile(target)


__all__ = [
    "CONFIG_VERSION",
    "ObsConfig",
    "PipelineConfig",
    "SERVER_CONFIG_VERSION",
    "ServerConfig",
    "pack",
    "profile",
]
