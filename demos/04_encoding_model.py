#!/usr/bin/env python3
"""Fit encoding models against a frozen decoder and compare with the oracle.

The decoder stays bitwise frozen; only the per-latent-channel interface map
(and, for embedding features, the tanh tuner) is trained. On synthetic data
the recovered variance explained should approach the closed-form bound.
Training scores the decoder's linear output layer in Gram form: the decoder
is frozen against the epochs once, and that one frozen decoder serves every
fit and score.
"""

import numpy as np

from erpcoder import encoding, features, metrics, synth
from erpcoder.data import filter_artifacts, keep_mask

config = synth.SynthConfig(n_subjects=4, n_sentences=50, words_per_sentence=5,
                           n_channels=8, n_timepoints=50, architecture="beta",
                           driving=("frequency", "surprisal"), seed=11)
config = synth.calibrate_noise(config, target_snr=2.0)
data = synth.generate(config)

# the encoding-model trial filter: drop artifacts and sentence-initial words
kept = np.flatnonzero(keep_mask(data.meta, include_first_word=False))
dataset, meta = filter_artifacts(data.dataset, data.meta, include_first_word=False)
bounds = synth.oracle_bounds(data.ground_truth, data.dataset,
                             fit_rows=kept, eval_rows=kept)
decoder = data.ground_truth.decoder
digest = decoder.decoder_digest()
frozen = encoding.freeze(decoder, dataset, meta)


def fit(sources):
    fm = features.assemble(features.FeatureSpec(tuple(sources)), meta,
                           counts_table=data.counts,
                           token_features=data.token_features,
                           embeddings=data.embeddings,
                           sentence_tokens=data.sentence_tokens)
    model, history = encoding.train(frozen, fm, sources, epochs=200, lr=0.005,
                                    weight_decay=1e-5, seed=5)
    return encoding.model_mse(model, frozen, fm), history


mse_intercept, _ = fit(("constant",))
print(f"intercept model MSE {mse_intercept:.5f} "
      f"(noise floor {bounds['mse_floor']:.5f})")

for sources in [("frequency",), ("frequency", "surprisal")]:
    key = "+".join(sources)
    mse, history = fit(sources)
    r2 = metrics.r2_mod(mse, mse_intercept, bounds["mse_floor"])
    print(f"{key}: r2_mod {r2:.3f}  (oracle bound "
          f"{bounds['best_possible_r2_mod'][key]:.3f}, "
          f"best epoch {history.best_epoch})")

print("decoder digest unchanged:", decoder.decoder_digest() == digest)
