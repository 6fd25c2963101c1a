"""Per-pixel zone identification for active IR-thermal sequences of the
exposed cortex/dura under a cold-probe protocol."""
