"""Training-service daemon: declarative job specs and a durable queue in
front of the orchestrate pool, answered from the checked run journal."""

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
    "JobRecord",
    "JobService",
    "JobSpec",
    "JobSpecError",
    "SPEC_FORMAT",
    "ServeReport",
    "compile_job",
    "load_job_specs",
    "run_serve_job",
    "validate_job_spec",
]
