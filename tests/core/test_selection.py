"""§VII-B verification-function selection."""

import pytest

from repro.core import (
    SelectionError, rank_candidates, select_verification_function,
)
from repro.core import selection
from repro.core.selection import is_chain_translatable
from repro.corpus import PROGRAM_NAMES, build_program


def test_selects_the_digest(small_wget):
    assert select_verification_function(small_wget) == "digest_wget"


def test_candidate_ranking_fields(small_wget):
    infos = {i.name: i for i in rank_candidates(small_wget)}
    digest = infos["digest_wget"]
    assert digest.translatable
    assert digest.call_sites >= 2           # step 1
    assert 0 < digest.time_share < 0.02     # step 2
    # step 3: most op kinds among the eligible
    eligible = [
        i for i in infos.values()
        if i.translatable and 0 < i.time_share < 0.02
    ]
    assert digest.op_kinds == max(i.op_kinds for i in eligible)


def test_hot_functions_excluded(small_wget):
    infos = {i.name: i for i in rank_candidates(small_wget)}
    # the bulk-transfer helpers burn most cycles -> above threshold
    assert infos["checksum_words"].time_share > 0.02


def test_non_leaf_not_translatable(small_wget):
    assert not is_chain_translatable(small_wget.functions["main"])


def test_truncated_profile_is_refused(small_wget, monkeypatch):
    monkeypatch.setattr(selection, "PROFILE_MAX_STEPS", 1000)
    with pytest.raises(SelectionError, match=r"after 1,000 steps.*StepLimitExceeded"):
        rank_candidates(small_wget)


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_selection_converges_on_digest_for_every_corpus_program(name):
    # pipeline.config_for_program and serve.jobs.job_config pin
    # digest_<name> on the strength of this convergence.
    assert select_verification_function(build_program(name)) == f"digest_{name}"
