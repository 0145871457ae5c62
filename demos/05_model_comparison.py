#!/usr/bin/env python3
"""Run the cross-validated model-comparison suite on synthetic data.

Every roster entry shares one fold assignment (hash-verified), is scored
against the per-fold intercept model and the autoencoder ceiling, and gets a
nonparametric bootstrap confidence interval across folds. The weight-decay
grid search is cut to the one-value grid ``wd_grid=(1e-5,)`` to keep the
demo quick; leave ``wd_grid`` at its default to search {1e-5, 1e-3, 1e-1}
per entry as in the full protocol.
"""

from erpcoder import encoding, synth
from erpcoder.data import filter_artifacts

config = synth.SynthConfig(n_subjects=2, n_sentences=40, words_per_sentence=4,
                           n_channels=6, n_timepoints=30, architecture="beta",
                           driving=("frequency", "surprisal"), seed=66)
config = synth.calibrate_noise(config, target_snr=2.0)
data = synth.generate(config)
dataset, meta = filter_artifacts(data.dataset, data.meta, include_first_word=False)

result = encoding.run_model_suite(
    data.ground_truth.decoder, dataset, meta, encoding.standard_roster(),
    counts_table=data.counts, token_features=data.token_features,
    embeddings=data.embeddings, sentence_tokens=data.sentence_tokens,
    k=5, seed=10, wd_grid=(1e-5,), epochs=40, batch_size=32, lr=0.005,
    n_boot=2000, ceiling_mse=data.ground_truth.mse_floor)

print(f"shared fold digest: {result['fold_digest'][:16]}...  ({result['k']} folds)\n")
print(f"{'model':<30} {'r2_mod':>8}   95% CI")
for name, entry in result["entries"].items():
    report = entry["report"]
    print(f"{name:<30} {report.r2_mod:>8.3f}   [{report.ci_low:.3f}, {report.ci_high:.3f}]")
print("\nthe true driving features (frequency, surprisal) carry the signal;"
      "\nembedding blocks add token identity, so they can contribute smaller,"
      "\nindirect gains on top.")
