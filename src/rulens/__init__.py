"""Ensembles of probabilistic LSTM networks for remaining-useful-life
prediction with decomposed aleatoric/epistemic uncertainty."""

__version__ = "0.1.0"
