"""Command-line front door: JSON config in, CSV/JSON artifacts out.

Subcommands: ``simulate | verify | renewal | sample-fbs``.  Every run is
driven by a JSON config (reproducible experiment record); ``--seed``,
``--parallelism`` and ``--out`` override the corresponding config fields.
Exit codes: 0 success, 1 verification check failed, 2 invalid config,
3 runtime failure.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import click

from . import __version__
from .distributions import MarginalKind, MarginalLaw, make_hs_pmf
from .fbs import HurstPair, sample_fbs
from .fields import CornerGrid, ModelKind, ModelSpec, _metadata, _real, normalization, simulate
from .renewal import c_alpha, cached_renewal_sequence, var_xstar, weights
from .seeding import SCHEME_ID, normalize_seed, replicate_generator, seed_to_hex
from .suites import SUITES, run_suite

__all__ = ["RunConfig", "ConfigError", "main"]

_ENV_THREADS = "PARTITION_FIELDS_THREADS"
_FMT = "{:.17g}".format


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (exit code 2)."""


def _take(data: dict, path: str, known: set[str]) -> None:
    """Every config section is a JSON object with only known fields."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown field(s) at {path}: {sorted(unknown)}")


def _positive_int(value, path: str):
    """None or a positive integer; JSON true/false are not counts."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
        raise ConfigError(f"{path}: must be a positive integer")
    return value


def _marginal_from(data: dict, path: str) -> MarginalLaw:
    _take(data, path, {"kind", "c", "a", "b", "p"})
    kind = data.get("kind", "rademacher")
    try:
        if kind == "rademacher":
            return MarginalLaw.rademacher()
        if kind == "scaled_sign":
            return MarginalLaw.scaled_sign(_real(data["c"], "c"))
        if kind == "two_point":
            return MarginalLaw.two_point(*(_real(data[key], key) for key in ("a", "b", "p")))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing {exc.args[0]!r} for kind {kind!r}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}.kind: unknown marginal kind {kind!r}")


def _marginal_dict(m: MarginalLaw) -> dict:
    if m.kind is MarginalKind.RADEMACHER:
        return {"kind": "rademacher"}
    if m.kind is MarginalKind.SCALED_SIGN:
        return {"kind": "scaled_sign", "c": m.value_a}
    return {"kind": "two_point", "a": m.value_a, "b": m.value_b, "p": m.prob_a}


def _model_from(data: dict, path: str = "model") -> ModelSpec:
    _take(data, path, {"kind", "alphas", "n", "marginal", "forest_depth"})
    try:
        kind = ModelKind(data["kind"])
    except KeyError:
        raise ConfigError(f"{path}.kind: required") from None
    except ValueError:
        raise ConfigError(
            f"{path}.kind: unknown kind {data['kind']!r}; "
            f"choose from {[k.value for k in ModelKind]}"
        ) from None
    for req in ("alphas", "n"):
        if req not in data:
            raise ConfigError(f"{path}.{req}: required")
    marginal = _marginal_from(data.get("marginal", {"kind": "rademacher"}), f"{path}.marginal")
    try:
        return ModelSpec(
            kind=kind,
            alphas=tuple(data["alphas"]),
            n=tuple(data["n"]),
            marginal=marginal,
            forest_depth=data.get("forest_depth"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _grid_from(data: dict, path: str = "grid") -> CornerGrid:
    _take(data, path, {"t1", "t2"})
    if "t1" not in data:
        raise ConfigError(f"{path}.t1: required")
    try:
        t2 = data.get("t2")
        return CornerGrid(t1=tuple(data["t1"]), t2=tuple(t2) if t2 is not None else None)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; round-trips through JSON unchanged."""

    command: str
    seed: str
    model: ModelSpec | None = None
    grid: CornerGrid | None = None
    replicates: int | None = None
    parallelism: int = 1
    output: str = "run"
    suite: str | None = None
    kmax: int | None = None
    weights_n: int | None = None
    hurst: tuple[float, float] | None = None

    @classmethod
    def from_dict(cls, data: dict, command: str | None = None) -> "RunConfig":
        _take(data, "<root>", _CONFIG_KEYS)
        cmd = data.get("command", command)
        if cmd is None:
            raise ConfigError("command: required")
        if command is not None and cmd != command:
            raise ConfigError(f"command: config says {cmd!r} but subcommand is {command!r}")
        if cmd not in ("simulate", "verify", "renewal", "sample-fbs"):
            raise ConfigError(f"command: unknown command {cmd!r}")
        if "seed" not in data:
            raise ConfigError("seed: required (128-bit hex)")
        try:
            seed_hex = seed_to_hex(normalize_seed(data["seed"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed: {exc}") from None
        replicates = _positive_int(data.get("replicates"), "replicates")
        parallelism = data.get("parallelism")
        if parallelism is None:
            env = os.environ.get(_ENV_THREADS, "1")
            try:
                parallelism = int(env)
            except ValueError:
                raise ConfigError(f"{_ENV_THREADS}: must be a positive integer, got {env!r}") from None
        _positive_int(parallelism, "parallelism")
        suite = data.get("suite")
        if suite is not None and suite not in SUITES:
            raise ConfigError(f"suite: unknown suite {suite!r}; choose from {SUITES}")
        kmax = _positive_int(data.get("kmax"), "kmax")
        weights_n = _positive_int(data.get("weights_n"), "weights_n")
        hurst = data.get("hurst")
        if hurst is not None:
            try:
                if len(hurst) != 2:
                    raise ValueError(f"needs exactly two entries, got {len(hurst)}")
                hurst = tuple(_real(h, "each entry") for h in hurst)
                HurstPair(*hurst)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"hurst: {exc}") from None
        output = data.get("output", "run")
        if not isinstance(output, str):
            raise ConfigError(f"output: must be a string, got {output!r}")
        return cls(
            command=cmd,
            seed=seed_hex,
            model=_model_from(data["model"]) if "model" in data else None,
            grid=_grid_from(data["grid"]) if "grid" in data else None,
            replicates=replicates,
            parallelism=parallelism,
            output=output,
            suite=suite,
            kmax=kmax,
            weights_n=weights_n,
            hurst=hurst,
        )

    def to_dict(self) -> dict:
        out: dict = {"command": self.command, "seed": self.seed}
        if self.model is not None:
            out["model"] = {
                "kind": self.model.kind.value,
                "alphas": list(self.model.alphas),
                "n": list(self.model.n),
                "marginal": _marginal_dict(self.model.marginal),
                "forest_depth": self.model.forest_depth,
            }
        if self.grid is not None:
            out["grid"] = {
                "t1": list(self.grid.t1),
                "t2": list(self.grid.t2) if self.grid.t2 is not None else None,
            }
        if self.replicates is not None:
            out["replicates"] = self.replicates
        out["parallelism"] = self.parallelism
        out["output"] = self.output
        for name in ("suite", "kmax", "weights_n"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        if self.hurst is not None:
            out["hurst"] = list(self.hurst)
        return out


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))


def _load_config(path: str, command: str, seed, parallelism, out) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _take(data, "<root>", _CONFIG_KEYS)  # before the overrides write into it
    if seed is not None:
        data["seed"] = seed
    if parallelism is not None:
        data["parallelism"] = parallelism
    if out is not None:
        data["output"] = out
    return RunConfig.from_dict(data, command)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_FMT(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _meta(cfg: RunConfig, **extra) -> dict:
    return {"config": cfg.to_dict(), "version": __version__, "scheme": SCHEME_ID, **extra}


# ---------------------------------------------------------------------------
# command bodies (shared by the click wrappers and the tests)
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig) -> list[Path]:
    if cfg.model is None or cfg.grid is None:
        raise ConfigError("simulate requires model and grid")
    if cfg.model.is_2d != cfg.grid.is_2d:
        raise ConfigError("grid dimensionality must match the model")
    raw = simulate(cfg.model, cfg.grid, [replicate_generator(cfg.seed, 0)])[0]
    z, sigma = normalization(cfg.model)
    normalized = raw / z
    rows = []
    if cfg.grid.is_2d:
        for i, t1 in enumerate(cfg.grid.t1):
            for j, t2 in enumerate(cfg.grid.t2):
                rows.append((float(t1), float(t2), float(raw[i, j]), float(normalized[i, j])))
    else:
        for i, t1 in enumerate(cfg.grid.t1):
            rows.append((float(t1), "", float(raw[i]), float(normalized[i])))
    csv_path = Path(f"{cfg.output}.csv")
    _write_csv(csv_path, ["t1", "t2", "raw", "normalized"], rows)
    meta_path = Path(f"{cfg.output}.meta.json")
    _write_json(meta_path, _meta(
        cfg, z_norm=z, sigma=sigma, replicate=0, truncation=_metadata(cfg.model),
    ))
    return [csv_path, meta_path]


def cmd_verify(cfg: RunConfig) -> tuple[list[Path], bool]:
    if cfg.suite is None:
        raise ConfigError("verify requires a suite name")
    try:
        report = run_suite(
            cfg.suite,
            spec=cfg.model,
            grid=cfg.grid,
            replicates=cfg.replicates,
            seed=cfg.seed,
            parallelism=cfg.parallelism,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    json_path = Path(f"{cfg.output}.report.json")
    _write_json(json_path, _meta(cfg, report=report.to_dict()))
    csv_path = Path(f"{cfg.output}.checks.csv")
    _write_csv(
        csv_path,
        ["check", "target", "value", "tolerance", "passed"],
        [(c.name, float(c.target), float(c.value), float(c.tolerance), c.passed) for c in report.checks],
    )
    return [json_path, csv_path], report.passed


def cmd_renewal(cfg: RunConfig) -> list[Path]:
    if cfg.model is None or cfg.kmax is None:
        raise ConfigError("renewal requires model.alphas[0] and kmax")
    alpha = cfg.model.alphas[0]
    try:
        pmf = make_hs_pmf(alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rs = cached_renewal_sequence(pmf, cfg.kmax)
    try:
        prof = None if cfg.weights_n is None else weights(rs, cfg.weights_n)
    except ValueError as exc:  # kmax too small for weights_n
        raise ConfigError(str(exc)) from None
    paths = []
    q_path = Path(f"{cfg.output}.renewal.csv")
    _write_csv(q_path, ["k", "q_k"], [(k, float(rs.q[k])) for k in range(cfg.kmax + 1)])
    paths.append(q_path)
    if prof is not None:
        w_path = Path(f"{cfg.output}.weights.csv")
        _write_csv(
            w_path, ["j", "b_nj"],
            ((int(prof.j_lo + i), float(b)) for i, b in enumerate(prof.b)),
        )
        paths.append(w_path)
    click.echo(f"c_alpha({alpha}) = {_FMT(c_alpha(alpha))}")
    click.echo(f"sum q^2 (kmax={cfg.kmax}) = {_FMT(1.0 / var_xstar(rs))}")
    return paths


def cmd_sample_fbs(cfg: RunConfig) -> list[Path]:
    if cfg.hurst is None or cfg.grid is None:
        raise ConfigError("sample-fbs requires hurst and grid")
    if not cfg.grid.is_2d:
        raise ConfigError("sample-fbs requires a 2D grid")
    size = cfg.replicates or 1
    rng = replicate_generator(cfg.seed, 0)
    values = sample_fbs(HurstPair(*cfg.hurst), cfg.grid.t1, cfg.grid.t2, rng, size=size)
    rows = []
    for r in range(size):
        for i, t1 in enumerate(cfg.grid.t1):
            for j, t2 in enumerate(cfg.grid.t2):
                rows.append((r, float(t1), float(t2), float(values[r, i, j])))
    csv_path = Path(f"{cfg.output}.csv")
    _write_csv(csv_path, ["replicate", "t1", "t2", "value"], rows)
    meta_path = Path(f"{cfg.output}.meta.json")
    _write_json(meta_path, _meta(cfg))
    return [csv_path, meta_path]


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

_CONFIG_OPTS = [
    click.option("--config", "config_path", required=True, type=click.Path(), help="JSON run config."),
    click.option("--seed", default=None, help="128-bit hex seed override."),
    click.option("--parallelism", default=None, type=int, help="Worker count override."),
    click.option("--out", default=None, help="Output path prefix override."),
]


def _with_config_opts(fn):
    for opt in reversed(_CONFIG_OPTS):
        fn = opt(fn)
    return fn


def _run(command: str, body, config_path, seed, parallelism, out) -> None:
    try:
        cfg = _load_config(config_path, command, seed, parallelism, out)
        result = body(cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        click.echo(f"runtime error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)
    if command == "verify":
        paths, passed = result
        for p in paths:
            click.echo(str(p))
        if not passed:
            click.echo("verification FAILED", err=True)
            sys.exit(1)
        click.echo("verification passed")
    else:
        for p in result:
            click.echo(str(p))


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Random-partition random fields: simulate and verify."""


@main.command(name="simulate")
@_with_config_opts
def simulate_cmd(config_path, seed, parallelism, out):
    """Write one replicate's corner sums as CSV plus a metadata sidecar."""
    _run("simulate", cmd_simulate, config_path, seed, parallelism, out)


@main.command()
@_with_config_opts
def verify(config_path, seed, parallelism, out):
    """Run a verification suite; exit 1 if any check fails."""
    _run("verify", cmd_verify, config_path, seed, parallelism, out)


@main.command()
@_with_config_opts
def renewal(config_path, seed, parallelism, out):
    """Dump the renewal sequence (and optionally window weights) as CSV."""
    _run("renewal", cmd_renewal, config_path, seed, parallelism, out)


@main.command(name="sample-fbs")
@_with_config_opts
def sample_fbs_cmd(config_path, seed, parallelism, out):
    """Sample the limiting Gaussian sheet on a grid and write CSV."""
    _run("sample-fbs", cmd_sample_fbs, config_path, seed, parallelism, out)


if __name__ == "__main__":
    main()
