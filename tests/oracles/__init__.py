"""Reference implementations the shipped code is tested against.

Each module is a direct, readable translation of one job the package does
with a faster design: tuple-based projection (:mod:`.projection`) and
closure checks (:mod:`.closure`) for the block path, Definition 5.1
temporal points and rule statistics (:mod:`.temporal_points`) for the rule
miners' incremental statistics, the re-scanning
:class:`~tests.oracles.monitor.RuleMonitor` (with its per-rule point
counts) for the streaming monitor and its analytics, the recursive
:class:`~tests.oracles.premises.PremiseMiner` for the rule miners' premise
search, and the pairwise Definition 5.2 filter (:mod:`.redundancy`) for the
survivors-only redundancy sweep.
"""
