"""Training-service daemon: declarative job specs, a durable queue and
a content-addressed result cache in front of the orchestrate pool."""

from repro.serve.cache import ContentCache, content_address, value_digest
from repro.serve.jobs import compile_job, run_serve_job
from repro.serve.service import JobRecord, JobService, ServeReport
from repro.serve.spec import (
    SPEC_FORMAT,
    JobSpec,
    JobSpecError,
    load_job_specs,
    validate_job_spec,
)

__all__ = [
    "ContentCache",
    "JobRecord",
    "JobService",
    "JobSpec",
    "JobSpecError",
    "SPEC_FORMAT",
    "ServeReport",
    "compile_job",
    "content_address",
    "load_job_specs",
    "run_serve_job",
    "validate_job_spec",
    "value_digest",
]
