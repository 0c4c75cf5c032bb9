"""The two name vocabularies: stash policies and ``GistConfig`` arms.

A policy or config arm is named once (``POLICY_NAMES`` /
``LOSSLESS_POLICY_NAMES`` in ``repro.train.stash``, ``CONFIG_ARMS`` in
``repro.core.policy``) and parsed once (``policy_from_name`` /
``GistConfig.from_name``).  Every surface that accepts a name must offer
*the module tuple itself* — identity, not equality with a literal — so
two surfaces can never again disagree about a string.
"""

import pytest

from repro.cli import build_parser
from repro.core import CONFIG_ARMS, GistConfig
from repro.dtypes import DPR_FORMATS
from repro.models import tiny_cnn
from repro.train import (
    LOSSLESS_POLICY_NAMES,
    POLICY_NAMES,
    policy_from_name,
)


@pytest.fixture(scope="module")
def graph():
    return tiny_cnn(batch_size=4, num_classes=4)


class TestPolicyVocabulary:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_name_round_trips_through_describe(self, name, graph):
        assert policy_from_name(name, graph).describe() == name

    def test_vocabulary_is_generated_from_the_format_table(self):
        assert len(POLICY_NAMES) == len(set(POLICY_NAMES))
        assert set(LOSSLESS_POLICY_NAMES) <= set(POLICY_NAMES)
        for fmt in DPR_FORMATS:
            for family in ("gist", "uniform", "grad-only"):
                assert f"{family}-{fmt}" in POLICY_NAMES

    @pytest.mark.parametrize("name", [
        "gist", "dpr-fp8", "gist-dpr-fp8", "groupquant", "gist-network",
        "gist-fp99", "hybrid", "",
    ])
    def test_unknown_name_lists_the_vocabulary(self, name, graph):
        with pytest.raises(ValueError) as excinfo:
            policy_from_name(name, graph)
        for known in POLICY_NAMES:
            assert known in str(excinfo.value)

    def test_gist_names_chain_through_the_config_arms(self, graph):
        for arm in CONFIG_ARMS:
            if arm == "network":
                continue  # needs a model, so it is not a policy name
            policy = policy_from_name(f"gist-{arm}", graph)
            assert policy.config == GistConfig.from_name(arm)


class TestConfigArms:
    def test_from_name_equals_the_preset(self):
        assert GistConfig.from_name("lossless") == GistConfig.lossless()
        assert (GistConfig.from_name("network", "alexnet")
                == GistConfig.for_network("alexnet"))
        for fmt in ("fp16", "fp10", "fp8"):
            assert GistConfig.from_name(fmt) == GistConfig.full(fmt)
        assert set(CONFIG_ARMS) == {"lossless", "network", *DPR_FORMATS}

    def test_network_needs_a_model(self):
        with pytest.raises(ValueError, match="model"):
            GistConfig.from_name("network")

    def test_unknown_arm_lists_the_vocabulary(self):
        with pytest.raises(ValueError) as excinfo:
            GistConfig.from_name("fp4")
        for known in CONFIG_ARMS:
            assert known in str(excinfo.value)


def _cli_choices(command, flag):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    action = next(a for a in subparsers.choices[command]._actions
                  if flag in a.option_strings)
    return action.choices


class TestSurfacesOfferTheModuleTuples:
    @pytest.mark.parametrize("command, flag, vocabulary", [
        ("train", "--policy", POLICY_NAMES),
        ("trace", "--policy", POLICY_NAMES),
        ("mfr", "--config", CONFIG_ARMS),
        ("overhead", "--config", CONFIG_ARMS),
        ("plan", "--config", CONFIG_ARMS),
    ])
    def test_cli_choices_are_the_tuple(self, command, flag, vocabulary):
        assert _cli_choices(command, flag) is vocabulary

    def test_consumers_alias_the_lossless_tuple(self):
        from repro.diagnostics import GOLDEN_POLICIES
        from repro.rewrite import equivalence

        assert GOLDEN_POLICIES is LOSSLESS_POLICY_NAMES
        assert equivalence.LOSSLESS_POLICY_NAMES is LOSSLESS_POLICY_NAMES
