"""Itemset mining over binary transaction data.

With every feature a 0/1 item and the language restricted to presence
conditions, patterns are plain itemsets: a conjunction (a=1 AND c=1) is the
itemset {a, c}.  Mining flags the itemsets whose co-occurrence with the
target survives the multiple-testing correction; top-k ranking shows how
the significant set relates to the best-quality patterns.
"""

import numpy as np

from sigmine import (
    ColumnSchema,
    Dataset,
    Kind,
    LabelVector,
    LanguageConfig,
    Mode,
    RunConfig,
    run_discovery,
)
from sigmine.resample import STREAM_SYNTH, generator

rng = generator(88, STREAM_SYNTH, 0)
m = 4000
names = ["bread", "butter", "milk", "beer", "chips"]
items = {name: (rng.random(m) < p).astype(np.int32)
         for name, p in zip(names, (0.4, 0.35, 0.5, 0.25, 0.3))}
# the target co-occurs with the bread+butter basket
basket = (items["bread"] == 1) & (items["butter"] == 1)
labels = np.where(basket, rng.random(m) < 0.8, rng.random(m) < 0.2).astype(np.uint8)

dataset = Dataset(
    [ColumnSchema(n, Kind.CATEGORICAL) for n in names],
    [items[n] for n in names],
    LabelVector(labels),
    cat_values={j: ["0", "1"] for j in range(len(names))},
)

cfg = RunConfig(
    mode=Mode.CONDITIONAL,
    seed=11,
    top_k=10,
    language=LanguageConfig(z=2, mode="itemset"),
)
top, report = run_discovery(dataset, cfg)  # the top_k best, each flagged

print(f"label rate {dataset.mean_target():.3f}, threshold eps = {report.epsilon:.5f}\n")
print(f"{'rank':>4}  {'itemset':<24}{'quality':>9}  flagged")
for rank, d in enumerate(top, start=1):
    itemset = "{" + ", ".join(dataset.schema[s.column].name for s in d.pattern.selectors) + "}"
    print(f"{rank:>4}  {itemset:<24}{d.quality:>9.4f}  {'yes' if d.significant else 'no'}")
