#!/usr/bin/env python3
"""Regenerate the bundled synthetic sleep/mood dataset in data/.

The generator simulates a 5-variable latent process (one sleep-quality
series with two planted links into the depressed and anxious latents),
then discretizes: the sleep column becomes integer scores on the 1..100
scale and each mood latent is cut at fixed upper quantiles into daily
severity levels 0..3.  Everything is seeded, so the emitted CSVs are
byte-stable; a test asserts they match the committed files.

Shape choices worth noting:

* sleep.csv covers 1455 grid days with exactly one absent night,
* mood.csv only has rows for days with any non-zero severity plus a
  sprinkle of explicit all-zero rows (the first and last day included, so
  the mood span covers the sleep span),
* roughly a quarter of the depressed days appear twice with a weaker
  duplicate row, exercising the most-severe-per-day aggregation.
"""

from __future__ import annotations

import argparse
import datetime as dt
from pathlib import Path

import numpy as np

import sleepvar as sv

SEED = 20190201
N_DAYS = 1455
START = dt.date(2019, 2, 1)
MISSING_NIGHT = dt.date(2020, 6, 15)

SCORE_MEAN, SCORE_SD = 73.8, 11.5
NONZERO_TARGETS = {"depressed": 103, "anxious": 88, "irritable": 100, "elevated": 48}
ZERO_ROW_EVERY = 60  # explicit all-zero mood rows, plus the span endpoints
DUPLICATE_EVERY = 4  # every 4th depressed day gets a weaker duplicate row


def latent_process() -> sv.VarProcessSpec:
    names = ("score",) + tuple(NONZERO_TARGETS)
    k = len(names)
    a1 = np.zeros((k, k))
    a2 = np.zeros((k, k))
    a1[0, 0], a2[0, 0] = 0.45, 0.15
    a1[1, 1], a2[1, 1] = 0.30, 0.10
    a1[2, 2], a2[2, 2] = 0.25, 0.05
    a1[3, 3], a2[3, 3] = 0.30, 0.10
    a1[4, 4] = 0.20
    a2[1, 0] = -0.45          # poor sleep two days back raises depression
    a1[2, 0], a2[2, 0] = -0.20, -0.25  # anxiety reacts at both lags
    return sv.VarProcessSpec(names, 2, np.zeros(k), np.stack([a1, a2]), np.eye(k))


def discretize(latent: np.ndarray):
    z = latent[:, 0]
    score = np.clip(
        np.round(SCORE_MEAN + SCORE_SD * (z - z.mean()) / z.std()), 1, 100
    ).astype(int)
    moods = {}
    for j, (name, n1) in enumerate(NONZERO_TARGETS.items(), start=1):
        m = latent[:, j]
        ordered = np.sort(m)
        cut1 = ordered[-n1]
        cut2 = ordered[-max(1, n1 // 4)]
        cut3 = ordered[-max(1, n1 // 12)]
        levels = np.zeros(m.size, dtype=int)
        levels[m >= cut1] = 1
        levels[m >= cut2] = 2
        levels[m >= cut3] = 3
        moods[name] = levels
    return score, moods


def write_sleep(path: Path, score: np.ndarray) -> None:
    lines = ["date,score"]
    for i in range(N_DAYS):
        day = START + dt.timedelta(days=i)
        if day == MISSING_NIGHT:
            continue
        lines.append(f"{day.isoformat()},{score[i]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_mood(path: Path, moods: dict[str, np.ndarray]) -> None:
    names = list(NONZERO_TARGETS)
    lines = ["date," + ",".join(names)]
    n_dup = 0
    for i in range(N_DAYS):
        day = (START + dt.timedelta(days=i)).isoformat()
        levels = [int(moods[n][i]) for n in names]
        any_nonzero = any(levels)
        explicit_zero = i == 0 or i == N_DAYS - 1 or i % ZERO_ROW_EVERY == 0
        if not any_nonzero and not explicit_zero:
            continue
        if levels[0] >= 1 and i % DUPLICATE_EVERY == 0:
            weaker = [max(levels[0] - 1, 0)] + [0] * (len(names) - 1)
            lines.append(f"{day}," + ",".join(str(v) for v in weaker))
            n_dup += 1
        lines.append(f"{day}," + ",".join(str(v) for v in levels))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"mood.csv: {len(lines) - 1} rows ({n_dup} duplicate-day rows)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=Path(__file__).resolve().parent.parent / "data", type=Path
    )
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    latent = np.asarray(sv.simulate_var(latent_process(), N_DAYS, seed=SEED).values)
    score, moods = discretize(latent)
    write_sleep(args.out / "sleep.csv", score)
    write_mood(args.out / "mood.csv", moods)

    # Sanity: the planted causal story must survive discretization.
    merged = sv.merge([
        sv.ingest_sleep(args.out / "sleep.csv"),
        sv.ingest_mood(args.out / "mood.csv"),
    ])
    stats = sv.describe(merged, "score")
    print(f"score: total {stats.total}, missing {stats.missing}, "
          f"mean {stats.mean:.2f}, sd {stats.sd:.2f}, range [{stats.min:.0f}, {stats.max:.0f}]")
    merged = sv.impute(merged)
    fit = sv.fit_var(merged, 2)
    results = sv.granger_all_pairs(fit, "score")
    for res in results:
        flag = "SIGNIFICANT" if res.reject_null else "not significant"
        print(f"score -> {res.caused[0]:<9} F={res.statistic:7.3f}  p={res.p_value:.4f}  {flag}")
    expected = {"depressed": True, "anxious": True, "irritable": False, "elevated": False}
    got = {r.caused[0]: r.reject_null for r in results}
    assert got == expected, f"planted-link story broken: {got}"


if __name__ == "__main__":
    main()
