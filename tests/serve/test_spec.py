"""Job-spec validation, canonicalisation and fingerprint identity."""

import json

import pytest

from repro.serve import JobSpecError, load_job_specs, validate_job_spec


class TestValidate:
    def test_defaults_filled_before_fingerprint(self):
        terse = validate_job_spec({"kind": "plan", "model": "tiny_cnn"})
        spelled = validate_job_spec({
            "kind": "plan", "model": "tiny_cnn", "batch_size": 8,
            "strategy": "hybrid", "budget": 0.15, "config": "lossless",
            "rewrite": False,
        })
        assert terse.params == spelled.params
        assert terse.fingerprint() == spelled.fingerprint()

    def test_name_is_not_part_of_identity(self):
        a = validate_job_spec({"kind": "fuzz", "seeds": 3, "name": "a"})
        b = validate_job_spec({"kind": "fuzz", "seeds": 3, "name": "b"})
        assert a.fingerprint() == b.fingerprint()

    def test_param_change_changes_fingerprint(self):
        a = validate_job_spec({"kind": "fuzz", "seeds": 3})
        b = validate_job_spec({"kind": "fuzz", "seeds": 4})
        assert a.fingerprint() != b.fingerprint()

    def test_unknown_field_rejected(self):
        with pytest.raises(JobSpecError, match="unknown field"):
            validate_job_spec({"kind": "plan", "modle": "tiny_cnn"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobSpecError, match="kind"):
            validate_job_spec({"kind": "deploy"})

    def test_bad_values_rejected(self):
        with pytest.raises(JobSpecError, match="batch_size"):
            validate_job_spec({"kind": "train", "batch_size": 0})
        with pytest.raises(JobSpecError, match="model"):
            validate_job_spec({"kind": "plan", "model": "resnet999"})
        with pytest.raises(JobSpecError, match="rewrite"):
            validate_job_spec({"kind": "plan", "rewrite": "yes"})

    def test_train_policy_names_its_vocabulary(self):
        from repro.train import LOSSLESS_POLICY_NAMES

        with pytest.raises(JobSpecError) as excinfo:
            validate_job_spec({"kind": "train", "policy": "gist"})
        for name in LOSSLESS_POLICY_NAMES:
            assert name in str(excinfo.value)
        spec = validate_job_spec({"kind": "train",
                                  "policy": "gist-lossless"})
        assert spec.params["policy"] == "gist-lossless"

    def test_non_mapping_rejected(self):
        with pytest.raises(JobSpecError, match="mapping"):
            validate_job_spec(["kind", "plan"])


class TestLoadFiles:
    def test_json_single_mapping(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"kind": "fuzz", "seeds": 2}))
        (spec,) = load_job_specs(path)
        assert spec.kind == "fuzz"
        assert spec.params["seeds"] == 2

    def test_json_jobs_list(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": [
            {"kind": "fuzz", "seeds": 1},
            {"kind": "plan", "model": "tiny_cnn", "batch_size": 4},
        ]}))
        specs = load_job_specs(path)
        assert [spec.kind for spec in specs] == ["fuzz", "plan"]

    def test_yaml_list(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "jobs.yaml"
        path.write_text(
            "jobs:\n"
            "  - kind: plan\n"
            "    name: nightly\n"
            "    model: tiny_cnn\n"
            "    batch_size: 4\n"
            "  - kind: fuzz\n"
            "    seeds: 2\n"
        )
        specs = load_job_specs(path)
        assert specs[0].name == "nightly"
        assert specs[1].params["seeds"] == 2

    def test_yaml_json_equivalence(self, tmp_path):
        pytest.importorskip("yaml")
        jpath = tmp_path / "job.json"
        jpath.write_text(json.dumps({"kind": "plan", "model": "tiny_cnn"}))
        ypath = tmp_path / "job.yaml"
        ypath.write_text("kind: plan\nmodel: tiny_cnn\n")
        (jspec,), (yspec,) = load_job_specs(jpath), load_job_specs(ypath)
        assert jspec.fingerprint() == yspec.fingerprint()

    def test_invalid_job_names_file_and_index(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"kind": "fuzz"},
                                    {"kind": "plan", "oops": 1}]))
        with pytest.raises(JobSpecError, match=r"jobs\.json \(job 1\)"):
            load_job_specs(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(JobSpecError, match="cannot read"):
            load_job_specs(tmp_path / "nope.yaml")

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text("[]")
        with pytest.raises(JobSpecError, match="expected"):
            load_job_specs(path)
