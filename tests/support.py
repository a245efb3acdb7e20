"""Helpers that more than one test module uses."""

from __future__ import annotations


def strip_volatile(text: str) -> str:
    """Drop run-dependent lines so output can be compared against goldens."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("wall time:")) + "\n"
