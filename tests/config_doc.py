"""The full default configuration as a JSON-ready document, built from the
config builders: what ``src/hawkeslob/data/default_config.json`` ships."""

from hawkeslob.cli import SECTIONS, load_app_config


def default_config_document() -> dict:
    return dict(zip(["kernel", *SECTIONS], load_app_config(None).docs()))
