"""Rank and linear correlation for experiment analysis."""

from repro.analysis.correlation import pearson, spearman

__all__ = ["pearson", "spearman"]
