"""Pipeline configuration: a flat key = value file plus environment overrides.

Example config file:

    # paths
    corpus_n = data/native.jsonl
    corpus_nn = data/nonnative.jsonl
    corpus_t = data/translated.jsonl
    format = jsonl
    out = runs/paper
    seed = 17

Any key can be overridden through the environment as VARIETIES_<KEY>
(e.g. VARIETIES_SEED=7), and --seed/--out on the command line win over both.
Any other VARIETIES_* variable changes nothing, so it draws a warning.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, undecodable_line

ENV_PREFIX = "VARIETIES_"
# VARIETIES_* variables that are not config keys on purpose: the acceptance
# tests read the Europarl corpus directory from this one
ENV_NOT_KEYS = frozenset({"VARIETIES_EUROPARL_DIR"})


@dataclass(frozen=True)
class PipelineConfig:
    resources: str | None = None  # manifest path; None = shipped defaults
    corpus_n: str | None = None
    corpus_nn: str | None = None
    corpus_t: str | None = None
    format: str = "jsonl"
    out: str = "out"
    seed: int = 17
    chunk_target: int = 2000
    cv_folds: int = 10
    bootstrap_iterations: int = 1000
    lm_order: int = 5
    lm_train_tokens: int = 7_000_000
    lm_test_sentences: int = 5350
    lm_country_sentences: int = 500
    svm_c: float = 1.0
    top_pos3: int = 3000
    postok_min_count: int = 5

    def __post_init__(self):
        if self.format not in ("jsonl", "vertical"):
            raise ConfigError(f"unknown corpus format {self.format!r}")
        for name in (
            "chunk_target",
            "bootstrap_iterations",
            "lm_order",
            "lm_train_tokens",
            "lm_test_sentences",
            "lm_country_sentences",
            "top_pos3",
            "postok_min_count",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be at least 2, got {self.cv_folds}")
        # nan fails every comparison, so test for the finite positive range
        if not 0 < self.svm_c < math.inf:
            raise ConfigError(f"svm_c must be positive and finite, got {self.svm_c}")

    def corpus_path(self, variety: str) -> Path:
        key = f"corpus_{variety.lower()}"
        value = getattr(self, key)
        if value is None:
            raise ConfigError(f"config lacks {key} (path to the {variety} corpus)")
        path = Path(value)
        if not path.exists():
            raise ConfigError(f"{key}: no such file: {path}")
        if not path.is_file():
            raise ConfigError(f"{key}: not a regular file: {path}")
        return path


# each field's annotation -> the type that parses its text value
_TYPES = {"str | None": str, "str": str, "int": int, "float": float}


def _field_types() -> dict[str, type]:
    return {f.name: _TYPES[f.type] for f in fields(PipelineConfig)}


# key = "value" or 'value', then an optional comment
_QUOTED_LINE = re.compile(r"""(?P<key>[^=#]*)=\s*(?P<q>["'])(?P<value>.*?)(?P=q)\s*(?:#.*)?""")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse the key = value format: full-line and trailing # comments,
    optional single or double quotes around values. A value quoted from its
    start is taken whole, so a # inside the quotes is part of it."""
    types = _field_types()
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        quoted = _QUOTED_LINE.fullmatch(stripped)
        if quoted:
            key, sep, raw = quoted["key"], "=", quoted["value"]
        else:
            key, sep, raw = stripped.split("#", 1)[0].partition("=")
            raw = raw.strip()
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value'")
        if key not in types:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        try:
            values[key] = types[key](raw)
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{line_no}: bad value for {key}: {raw!r}"
            ) from exc
    return values


def load_config(
    path: str | Path | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> PipelineConfig:
    """File < environment (VARIETIES_*) < explicit CLI overrides."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"no such config file: {path}")
        if not path.is_file():
            raise ConfigError(f"config file is not a regular file: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ConfigError(f"{path}:{undecodable_line(path)}: not UTF-8 text") from None
        values.update(parse_config_text(text, str(path)))
    types = _field_types()
    env = os.environ if env is None else env
    allowed = {ENV_PREFIX + key.upper() for key in types} | ENV_NOT_KEYS
    unknown = sorted(
        name for name in env if name.startswith(ENV_PREFIX) and name not in allowed
    )
    if unknown:
        warnings.warn(
            f"ignoring environment variables that name no config key: "
            f"{', '.join(unknown)}",
            stacklevel=2,
        )
    for key, cast in types.items():
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            try:
                values[key] = cast(env[env_key])
            except ValueError as exc:
                raise ConfigError(f"bad {env_key}: {env[env_key]!r}") from exc
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return PipelineConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_snapshot(config: PipelineConfig) -> dict:
    """JSON-friendly view of every setting (for the run manifest)."""
    return {f.name: getattr(config, f.name) for f in fields(PipelineConfig)}
