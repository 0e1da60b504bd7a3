"""Wall-clock benchmark of the repro DOD system (see README.md)."""
