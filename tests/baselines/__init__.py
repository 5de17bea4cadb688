"""The related-work miners the paper argues against (Section 2).

None of them is part of the shipped ``repro`` package: they exist so the
baseline tests (``tests/sequential``, ``tests/episodes``) and the ablation
benchmark (``benchmarks/bench_ablation_baselines.py``) can put the paper's
miners next to what came before.

* :mod:`.sequential` — PrefixSpan (Pei et al., ref [24]), closed sequential
  patterns (CloSpan / BIDE, refs [32], [30]) and the Perracotta-style
  two-event rules the paper generalises (ref [33]);
* :mod:`.episodes` — WINEPI windowed episodes, MINEPI minimal occurrences
  with an optional gap constraint and episode rules (Mannila et al. and
  Casas-Garriga, refs [22], [13]).
"""
