"""Reference implementations the shipped code is tested against.

Each module is a direct, readable translation of one job the package does
with a faster design: tuple-based projection (:mod:`.projection`) and
closure checks (:mod:`.closure`) for the block path, the re-scanning
:class:`~tests.oracles.monitor.RuleMonitor` for the streaming monitor, and
the recursive :class:`~tests.oracles.premises.PremiseMiner` for the rule
miners' premise search, and the pairwise Definition 5.2 filter
(:mod:`.redundancy`) for the survivors-only redundancy sweep.
"""
