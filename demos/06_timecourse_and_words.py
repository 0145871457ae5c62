#!/usr/bin/env python3
"""Time-course and per-word analyses of a fitted encoding model.

The synthetic signal is driven only in latent timepoints whose receptive
fields sit in the 200-350 ms window, so the per-timepoint correlation
increase over the intercept model should peak there. Per-word correlations
are exported with +/-1 model and word-type coding for external statistics.
"""

from erpcoder import encoding, features, metrics, synth
from erpcoder.data import filter_artifacts

# beta at 200 timepoints: one latent step covers 40 ms; steps 8..10 = 220-340 ms
config = synth.SynthConfig(n_subjects=2, n_sentences=40, words_per_sentence=4,
                           n_channels=8, n_timepoints=200, architecture="beta",
                           driving=("frequency", "surprisal"),
                           driven_latent_timepoints=(8, 9, 10), seed=23)
config = synth.calibrate_noise(config, target_snr=2.0)
data = synth.generate(config)
dataset, meta = filter_artifacts(data.dataset, data.meta, include_first_word=False)
frozen = encoding.freeze(data.ground_truth.decoder, dataset, meta)


def fit(sources, epochs):
    fm = features.assemble(features.FeatureSpec(tuple(sources)), meta,
                           counts_table=data.counts,
                           token_features=data.token_features,
                           embeddings=data.embeddings,
                           sentence_tokens=data.sentence_tokens)
    model, _ = encoding.train(frozen, fm, sources, epochs=epochs, batch_size=32,
                              lr=0.005, weight_decay=1e-5, seed=5)
    return model, fm


model, fm = fit(("frequency", "surprisal"), 120)
intercept, fm_int = fit(("constant",), 40)
preds = encoding.predict_erp(model, fm)
preds_int = encoding.predict_erp(intercept, fm_int)

series = metrics.timepoint_correlation_increase(
    preds, preds_int, dataset.data, ms_axis=dataset.time_axis_ms())
smoothed = metrics.moving_average_smooth(series, 9)
print(f"correlation increase peaks at {smoothed.peak_ms():.0f} ms "
      f"(driven window 220-340 ms)")

# a coarse text rendering of the smoothed curve
peak = smoothed.values.max()
for t in range(0, len(smoothed), 10):
    bar = "#" * int(40 * max(smoothed.values[t], 0.0) / peak)
    print(f"{smoothed.ms_axis[t]:>6.0f} ms | {bar}")

# per-word correlations with the +/-1 coding scheme for mixed-effects software
table = metrics.word_level_table(metrics.trial_correlations(preds, dataset.data), meta,
                                 model_name="freq+surp", sources=model.sources)
summary = metrics.content_function_summary(table)
print(f"\nmean per-word r: content {summary['content']['mean_r']:.3f} "
      f"(n={summary['content']['n']}), function {summary['function']['mean_r']:.3f} "
      f"(n={summary['function']['n']})")
row = table.rows[0]
print("coding columns:", {k: row[k] for k in row if k.startswith("has_")},
      "word_type:", row["word_type"])
