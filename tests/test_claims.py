"""The paper's claims as tests: the orderings HYRR reports, asserted on fixed
synthetic specs and seeds that were chosen before their results were seen.

Each claim lands with the change that makes it hold; see ROADMAP item 9.
"""

from hybridrank.pipeline import ExperimentConfig, run_experiment
from hybridrank.synthetic import SyntheticCorpusSpec, make_synthetic_corpus, save_synthetic_data


def test_hybrid_beats_both_of_its_parts_at_2k(tmp_path):
    # the default 2k spec at seed 0, first stage only (no reranker)
    paths = save_synthetic_data(make_synthetic_corpus(SyntheticCorpusSpec(seed=0)),
                                tmp_path / "data")
    report = run_experiment(ExperimentConfig(workdir=str(tmp_path / "work"), seed=0,
                                             training_source="none", **paths))
    mrr = {stage: report["metrics"][stage]["mrr@10"] for stage in ("bm25", "de", "hybrid")}
    assert mrr["hybrid"] > mrr["bm25"], mrr
    assert mrr["hybrid"] > mrr["de"], mrr
