from .config import ConfigError, MeshSpec, Scenario, load_scenario, parse_scenario

__all__ = ["ConfigError", "MeshSpec", "Scenario", "load_scenario", "parse_scenario"]
