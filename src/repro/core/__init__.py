"""Core of the spg-CNN framework: characterization, plans and autotuning."""
