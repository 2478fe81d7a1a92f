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

import os
import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

ENV_PREFIX = "VARIETIES_"
# VARIETIES_* variables that are not config keys on purpose: the acceptance
# tests read the Europarl corpus directory from this one
ENV_NOT_KEYS = frozenset({"VARIETIES_EUROPARL_DIR"})


def _positive_int(name: str, value: int) -> int:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


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
            "cv_folds",
            "bootstrap_iterations",
            "lm_order",
            "lm_train_tokens",
            "lm_test_sentences",
            "lm_country_sentences",
            "top_pos3",
            "postok_min_count",
        ):
            _positive_int(name, getattr(self, name))
        if self.svm_c <= 0:
            raise ConfigError("svm_c must be positive")

    def corpus_path(self, variety: str) -> Path:
        key = f"corpus_{variety.lower()}"
        value = getattr(self, key)
        if value is None:
            raise ConfigError(f"config lacks {key} (path to the {variety} corpus)")
        path = Path(value)
        if not path.exists():
            raise ConfigError(f"{key}: no such file: {path}")
        return path

    def require_corpora(self, *varieties: str) -> None:
        for variety in varieties:
            self.corpus_path(variety)


_CASTS = {
    str: lambda raw: raw,
    int: lambda raw: int(raw),
    float: lambda raw: float(raw),
}


def _field_types() -> dict[str, type]:
    out = {}
    for f in fields(PipelineConfig):
        if f.type in ("str | None", "str"):
            out[f.name] = str
        elif f.type == "int":
            out[f.name] = int
        elif f.type == "float":
            out[f.name] = float
        else:
            raise AssertionError(f"unhandled config field type {f.type}")
    return out


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
            values[key] = _CASTS[types[key]](raw)
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
        values.update(parse_config_text(path.read_text(encoding="utf-8"), str(path)))
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
    for key, caster in types.items():
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            try:
                values[key] = _CASTS[caster](env[env_key])
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
