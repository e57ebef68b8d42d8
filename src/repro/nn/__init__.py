"""The CNN training stack: layers, networks, SGD and the model zoo."""
