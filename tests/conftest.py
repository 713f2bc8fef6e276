"""Helpers shared by the test modules."""

from fedrf import federation, modality


def ap_batches(split, part, selection):
    """Every AP's shard standardized with its own statistics, as
    ``run_training`` builds the batches after its test batch."""
    stats = modality.pool_normalization(part.stats)
    return federation._standardized_rows(split, part, selection, stats, part.stats)[1][1:]
