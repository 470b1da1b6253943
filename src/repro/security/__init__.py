"""Adversary simulations backing the §III-D security analysis tests."""

from .adversary import (
    BruteForceAdversary,
    ForgingAttempt,
    HostAdversary,
    QueryForgingAdversary,
    WireObservation,
    WireTapAdversary,
)

__all__ = [
    "BruteForceAdversary",
    "ForgingAttempt",
    "HostAdversary",
    "QueryForgingAdversary",
    "WireObservation",
    "WireTapAdversary",
]
