"""Command line front end: fit, summarize, ppc, simulate, diagnose.

Settings resolve as package defaults, then the --config JSON document,
then explicitly given flags.  All randomness flows from --seed; chains
and predictive draws derive child seeds by SeedSequence spawning.

Exit codes are a stable contract: 0 success, 2 input or validation
error, 3 numerical or sampler failure.

Directory-creating commands (fit, simulate, ppc) write a manifest.json
recording the config snapshot, input digests, seed and artifact list.
manifest.json carries a wall-clock timestamp, so it is the one output
that is not byte-stable across reruns; set SOURCE_DATE_EPOCH to pin it.
The RACEMIX_OUT_ROOT environment variable sets the default output root
when --out is omitted.
"""
from __future__ import annotations

import contextlib
import datetime
import functools
import hashlib
import json
import os
import sys
from typing import NamedTuple

import click
import numpy as np

from . import __version__
from .diagnostics import (
    ChainMoments,
    autocorrelation,  # noqa: F401 -- perfbench/tracing.py wraps it by this name
    chain_moments,
    constant_columns,
    ess_and_rho1,
    multichain_ess,
    split_rhat,
    summarize,
    write_summary_csv,
    write_trace_csv,
)
from .ingest import (
    SEXES,
    DataError,
    build_design,
    parse_races,
    parse_rainfall,
    parse_results,
    read_json,
)
from .model import (
    RESPONSE_LOG_PACE,
    RESPONSE_LOG_TIME,
    ConfigError,
    ModelConfig,
)
from .predictive import (
    SyntheticSpec,
    posterior_predictive_race,  # noqa: F401 -- perfbench/tracing.py wraps it by this name
    ppc_report,
    simulate_dataset,
    write_histograms_csv,
    write_ppc_csv,
)
from .sampler import (
    SCALAR_COLUMNS,
    SamplerError,
    load_chain,
    load_chain_meta,
    run_chains,
    save_chain,
    usable_cpus,
)

ENV_OUT_ROOT = "RACEMIX_OUT_ROOT"

RESPONSE_FLAGS = {"log-time": RESPONSE_LOG_TIME, "log-pace": RESPONSE_LOG_PACE}

# the package defaults: `fit --help` shows them and _merged_config starts from them
_DEFAULTS = ModelConfig()


def _cli_errors(fn):
    """Map exceptions to the documented exit codes.

    Only the input and configuration errors exit 2; anything else is a bug
    and surfaces with its traceback rather than posing as bad input.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SamplerError as exc:
            click.echo(f"sampler error: {exc}", err=True)
            sys.exit(3)
        except (DataError, ConfigError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


def _out_root() -> str:
    return os.environ.get(ENV_OUT_ROOT, ".")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        dt = datetime.datetime.now(datetime.timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_manifest(out_dir, command, config, seed, inputs, artifacts) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "created_utc": _timestamp(),
        "seed": seed,
        "config": config,
        "inputs": {role: {"path": os.path.abspath(p), "sha256": _sha256(p)}
                   for role, p in inputs.items()},
        "artifacts": sorted(artifacts),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_manifest(fit_dir) -> dict:
    """A fit directory's manifest.json, with the fields the post-fit commands
    read checked: `config` and `inputs` are objects (empty when absent), and
    each input is an object whose `path` and `sha256` are strings."""
    path = os.path.join(fit_dir, "manifest.json")
    if not os.path.exists(path):
        raise DataError(f"no manifest.json in {fit_dir}; is this a fit directory?")
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise DataError(f"{path} is not a JSON object")
    for key in ("config", "inputs"):
        if not isinstance(manifest.setdefault(key, {}), dict):
            raise DataError(f"{path}: {key} is not a JSON object")
    for role, recorded in manifest["inputs"].items():
        if not isinstance(recorded, dict):
            raise DataError(f"{path}: inputs.{role} is not a JSON object")
        for key in ("path", "sha256"):
            if not isinstance(recorded.get(key), str):
                raise DataError(f"{path}: inputs.{role}.{key} is not a string")
    return manifest


def _merged_config(config_path, response, windspeed, seed, burn_in,
                   iterations, thin, d_bar, w_bar) -> ModelConfig:
    """defaults < config file < given flags; a flag left out is None."""
    doc = _DEFAULTS.to_dict()
    if config_path is not None:
        user = read_json(config_path)
        if not isinstance(user, dict):
            raise ConfigError("config document must be a JSON object")
        for key, value in user.items():
            if key in ("priors", "mcmc"):
                if not isinstance(value, dict):
                    raise ConfigError(f"config {key!r} must be an object")
                doc[key].update(value)
            else:
                doc[key] = value
        if isinstance(doc.get("response"), str):
            doc["response"] = doc["response"].replace("-", "_")
    flags = {"response": None if response is None else RESPONSE_FLAGS[response],
             "include_windspeed": windspeed, "d_bar": d_bar, "w_bar": w_bar}
    mcmc = {"seed": seed, "burn_in": burn_in, "iterations": iterations, "thin": thin}
    doc.update((key, value) for key, value in flags.items() if value is not None)
    doc["mcmc"].update((key, value) for key, value in mcmc.items() if value is not None)
    return ModelConfig.from_dict(doc)


def _artifact_name(stem, ext, index, n_chains) -> str:
    """`stem.ext` for the one chain of a fit, `stem_NN.ext` for chain NN of several."""
    return f"{stem}.{ext}" if n_chains == 1 else f"{stem}_{index:02d}.{ext}"


# each chain's own files, written by _write_chain
CHAIN_FILES = (("chain", "csv"), ("metadata", "json"), ("summary", "csv"))


class ChainReport(NamedTuple):
    """What fit needs of a chain once its files are written: no draws."""

    columns: tuple[str, ...]
    sweeps: int
    sampling_s: float
    moments: ChainMoments | None  # for crosschain.csv; None in a one-chain fit


def _write_chain(out_dir, n_chains, index, chain) -> ChainReport:
    """Write a chain's own files (draws, metadata and summary) and report on it.

    run_chains calls it in the process that sampled the chain, so with a
    pool one chain's files are written while the others still sample, and
    only the returned ChainReport crosses back, never the draws.  Its
    ChainMoments are built with the ESS that summarize has just computed
    for summary.csv, so no ESS is computed twice.
    """
    chain_path, meta_path, summary_path = (
        os.path.join(out_dir, _artifact_name(stem, ext, index, n_chains))
        for stem, ext in CHAIN_FILES)
    save_chain(chain, chain_path, meta_path)
    summaries = summarize(chain)
    write_summary_csv(summaries, summary_path)
    moments = chain_moments(chain.draws, [s.ess for s in summaries]) if n_chains > 1 else None
    return ChainReport(chain.columns, chain.meta.burn_in + chain.meta.iterations,
                       chain.sampling_s, moments)


def _earlier_artifacts(out_dir) -> list[str]:
    """The file names that a manifest.json in out_dir lists as artifacts; none
    when there is no manifest or it cannot be read, since fit replaces it."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return []
    artifacts = manifest.get("artifacts") if isinstance(manifest, dict) else None
    if not isinstance(artifacts, list):
        return []
    return [name for name in artifacts if isinstance(name, str)]


def _indexed_chain_files(fit_dir, manifest, index):
    """The draws and metadata paths of the index-th (1-based) chain of a fit
    directory, and its chain count.

    The count is the one the fit recorded in its manifest, and the file
    names come from it as `fit` made them: files of an earlier fit into
    the same directory are never read.
    """
    n_chains = manifest["config"].get("chains")
    if type(n_chains) is not int or n_chains < 1:
        raise DataError(f"{os.path.join(fit_dir, 'manifest.json')} records no chain "
                        f"count (config.chains)")
    if index > n_chains:
        raise DataError(f"chain index {index} out of range; the fit has {n_chains} chain(s)")
    paths = [os.path.join(fit_dir, _artifact_name(stem, ext, index, n_chains))
             for stem, ext in CHAIN_FILES[:2]]  # the draws and their metadata
    for path in paths:
        if not os.path.exists(path):
            raise DataError(f"{path} is missing; the manifest records {n_chains} chain(s)")
    return paths[0], paths[1], n_chains


def _load_indexed_chain(fit_dir, manifest, index):
    """The index-th (1-based) chain of a fit directory, of at least 2 draws,
    and its chain count (see _indexed_chain_files)."""
    chain_path, meta_path, n_chains = _indexed_chain_files(fit_dir, manifest, index)
    chain = load_chain(chain_path, meta_path)
    if chain.n_stored < 2:
        raise DataError(f"{chain_path} holds {chain.n_stored} draw(s); need at least 2")
    return chain, n_chains


@click.group()
@click.version_option(version=__version__, prog_name="racemix")
def main():
    """Bayesian mixed-effects modelling of cross-country race times."""


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False),
              help="results.csv (athlete_id,course,season,sex,finish_time_min,race_month)")
@click.option("--covariates", required=True, type=click.Path(exists=True, dir_okay=False),
              help="races.csv (course,season,distance_miles,windspeed,race_month)")
@click.option("--rainfall", required=True, type=click.Path(exists=True, dir_okay=False),
              help="rainfall.csv (month,rainfall_mm)")
@click.option("--sex", required=True, type=click.Choice(["M", "F"]))
@click.option("--response", type=click.Choice(sorted(RESPONSE_FLAGS)), default=None,
              help=f"[default: {_DEFAULTS.response.replace('_', '-')}]")
@click.option("--windspeed/--no-windspeed", default=None,
              help="Include the centred windspeed term.  [default: "
                   f"{'windspeed' if _DEFAULTS.include_windspeed else 'no-windspeed'}]")
@click.option("--seed", type=int, default=None,
              help=f"[default: {_DEFAULTS.mcmc.seed}]")
@click.option("--burn-in", type=int, default=None,
              help=f"[default: {_DEFAULTS.mcmc.burn_in}]")
@click.option("--iterations", type=int, default=None,
              help=f"[default: {_DEFAULTS.mcmc.iterations}]")
@click.option("--thin", type=int, default=None,
              help=f"[default: {_DEFAULTS.mcmc.thin}]")
@click.option("--chains", type=click.IntRange(min=1), default=1, show_default=True,
              help="Independent chains with spawned seeds, run on at most one "
                   "process per usable CPU.")
@click.option("--d-bar", type=float, default=None,
              help="Override the distance centering constant.")
@click.option("--w-bar", type=float, default=None,
              help="Override the windspeed centering constant.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON config document (defaults < config < flags).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help=f"Output directory [default: $%s/fit or ./fit]" % ENV_OUT_ROOT)
@_cli_errors
def fit(data, covariates, rainfall, sex, response, windspeed, seed, burn_in,
        iterations, thin, chains, d_bar, w_bar, config_path, out_dir):
    """Fit the model by MCMC and write chain, summary and manifest files."""
    config = _merged_config(config_path, response, windspeed, seed,
                            burn_in, iterations, thin, d_bar, w_bar)
    # fail before sampling: summaries need 2 draws per chain, split R-hat 4
    if config.mcmc.n_stored < (4 if chains > 1 else 2):
        raise ConfigError(
            f"--iterations {config.mcmc.iterations} / --thin {config.mcmc.thin} stores "
            f"{config.mcmc.n_stored} draw(s) per chain; need at least 2 "
            f"(4 with --chains > 1)")
    observations = parse_results(data, sex)
    contexts = parse_races(covariates)
    rain = parse_rainfall(rainfall)
    design = build_design(observations, contexts, rain, config,
                          sources=(data, covariates, rainfall))
    # made only once the inputs are good, so bad input leaves no directory
    if out_dir is None:
        out_dir = os.path.join(_out_root(), "fit")
    os.makedirs(out_dir, exist_ok=True)
    earlier = _earlier_artifacts(out_dir)
    click.echo(f"fitting {design.n_obs} observations: {len(design.athletes)} athletes, "
               f"{len(design.courses)} courses, {len(design.seasons)} seasons; "
               f"{chains} chain(s)")

    reports = run_chains(design, config, chains,
                         finish=functools.partial(_write_chain, out_dir, chains))
    for i, report in enumerate(reports, start=1):
        click.echo(f"chain {i}: {report.sweeps} sweeps in {report.sampling_s:.2f} s "
                   f"({report.sweeps / report.sampling_s:.0f} sweeps/s)")
    columns = reports[0].columns

    artifacts = ["manifest.json"]
    artifacts += [_artifact_name(stem, ext, i, chains)
                  for i in range(1, chains + 1) for stem, ext in CHAIN_FILES]

    if chains > 1:
        moments = [report.moments for report in reports]
        rows = zip(columns, split_rhat(moments).tolist(), multichain_ess(moments).tolist())
        cross_path = os.path.join(out_dir, "crosschain.csv")
        with open(cross_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("parameter,split_rhat,ess_total\n")
            fh.writelines("{},{!r},{!r}\n".format(*row) for row in rows)
        artifacts.append("crosschain.csv")

    snapshot = {"model": config.to_dict(), "sex": sex, "chains": chains}
    _write_manifest(out_dir, "fit", snapshot, config.mcmc.seed,
                    {"data": data, "covariates": covariates, "rainfall": rainfall},
                    artifacts)
    click.echo(f"wrote {out_dir}: {config.mcmc.n_stored} stored draws x "
               f"{len(columns)} parameters per chain")
    # an earlier fit's files are never deleted, but they are named
    stale = [name for name in earlier if name not in artifacts
             and os.path.exists(os.path.join(out_dir, name))]
    if stale:
        click.echo(f"warning: {out_dir} keeps files of an earlier fit that this fit "
                   f"did not rewrite: {', '.join(stale)}", err=True)


@main.command("summarize")
@click.option("--fit", "fit_dir", required=True,
              type=click.Path(exists=True, file_okay=False),
              help="Directory produced by `racemix fit`.")
@click.option("--index", type=click.IntRange(min=1), default=1, show_default=True,
              help="Which chain to summarize in a multi-chain fit.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="summary.csv path [default: the fit directory's summary.csv]")
@_cli_errors
def summarize_cmd(fit_dir, index, out_path):
    """Recompute posterior summaries from a stored chain."""
    chain, n_chains = _load_indexed_chain(fit_dir, _read_manifest(fit_dir), index)
    summaries = summarize(chain)
    if out_path is None:
        out_path = os.path.join(fit_dir, _artifact_name("summary", "csv", index, n_chains))
    write_summary_csv(summaries, out_path)
    click.echo(f"{'parameter':<12} {'mean':>12} {'median':>12} "
               f"{'ci95_low':>12} {'ci95_high':>12} {'ess':>9}")
    shown = 0
    for s in summaries:
        if s.name in SCALAR_COLUMNS:
            click.echo(f"{s.name:<12} {s.mean:>12.6f} {s.median:>12.6f} "
                       f"{s.ci95_low:>12.6f} {s.ci95_high:>12.6f} {s.ess:>9.1f}")
            shown += 1
    click.echo(f"(+ {len(summaries) - shown} effect rows) wrote {out_path}")


def _reingest_from_manifest(fit_dir, manifest, meta, data, covariates, rainfall):
    """Rebuild the design a fit used, preferring explicit path overrides.

    Without overrides the manifest's recorded paths are reused and their
    digests must still match.  The response and centering constants, all
    of the model that the design depends on, come from the chain metadata,
    so the design matches the stored draws exactly.
    """
    roles = {"data": data, "covariates": covariates, "rainfall": rainfall}
    manifest_path = os.path.join(fit_dir, "manifest.json")
    paths = {}
    for role, override in roles.items():
        if override is not None:
            paths[role] = override
            continue
        recorded = manifest["inputs"].get(role)
        if recorded is None:
            raise DataError(f"{manifest_path} records no {role!r} input; pass --{role}")
        path, recorded_digest = recorded["path"], recorded["sha256"]
        if not os.path.exists(path):
            raise DataError(f"recorded {role} input {path} no longer exists; "
                            f"pass --{role}")
        digest = _sha256(path)
        if digest != recorded_digest:
            raise DataError(f"{role} input {path} changed since the fit "
                            f"(sha256 mismatch); pass --{role} to override")
        paths[role] = path

    sex = manifest["config"].get("sex")
    if sex not in SEXES:
        raise DataError(f"{manifest_path} does not record the fitted sex "
                        f"(config.sex is {sex!r})")
    observations = parse_results(paths["data"], sex)
    contexts = parse_races(paths["covariates"])
    rain = parse_rainfall(paths["rainfall"])
    config = ModelConfig(response=meta.response, d_bar=meta.d_bar, w_bar=meta.w_bar)
    design = build_design(observations, contexts, rain, config,
                          sources=(paths["data"], paths["covariates"], paths["rainfall"]))
    return design, observations, paths


def _parse_race_filter(races_arg, design):
    if races_arg.strip().lower() == "all":
        return design.races()
    wanted = []
    for item in races_arg.split(","):
        item = item.strip()
        if not item or ":" not in item:
            raise DataError(f"bad race filter {item!r}; expected Course:Season")
        course, season = item.rsplit(":", 1)
        wanted.append((course.strip(), season.strip()))
    # validate against the design up front (race_index raises with the list)
    for course, season in wanted:
        design.race_index(course, season)
    return wanted


@main.command()
@click.option("--fit", "fit_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--races", default="all", show_default=True,
              help='"all" or a comma list of Course:Season filters.')
@click.option("--index", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed for the predictive noise.")
@click.option("--bins", type=click.IntRange(min=2), default=30, show_default=True,
              help="Histogram bin count per race.")
@click.option("--data", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Override the manifest-recorded results.csv.")
@click.option("--covariates", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--rainfall", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory [default: <fit>/ppc]")
@_cli_errors
def ppc(fit_dir, races, index, seed, bins, data, covariates, rainfall, out_dir):
    """Posterior predictive checks: per-race five-number summaries."""
    manifest = _read_manifest(fit_dir)
    chain, _ = _load_indexed_chain(fit_dir, manifest, index)
    design, observations, paths = _reingest_from_manifest(
        fit_dir, manifest, chain.meta, data, covariates, rainfall)

    wanted = set(_parse_race_filter(races, design))
    selected = [o for o in observations if (o.course, o.season) in wanted]

    try:
        reports = ppc_report(chain, design, selected, np.random.default_rng(seed), bins)
    except DataError as exc:
        # the chain's draws or metadata against the data: name the chain's files
        chain_path, meta_path, _ = _indexed_chain_files(fit_dir, manifest, index)
        raise DataError(f"{chain_path} ({meta_path}): {exc}") from None
    # made only once every race is simulated, so a failed race leaves no directory
    if out_dir is None:
        out_dir = os.path.join(fit_dir, "ppc")
    os.makedirs(out_dir, exist_ok=True)
    ppc_path = os.path.join(out_dir, "ppc.csv")
    write_ppc_csv(reports, ppc_path)
    write_histograms_csv(reports, os.path.join(out_dir, "histograms.csv"))

    flagged = sum(1 for r in reports if r.low_power)
    _write_manifest(out_dir, "ppc",
                    {"races": races, "bins": bins, "chain_index": index,
                     "fit_dir": os.path.abspath(fit_dir)},
                    seed, paths, ["manifest.json", "ppc.csv", "histograms.csv"])
    click.echo(f"wrote {ppc_path}: {len(reports)} race(s), "
               f"{flagged} flagged low-power")


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="SyntheticSpec JSON (defaults used when omitted).")
@click.option("--seed", type=int, default=None,
              help="Override the spec's seed.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help=f"Output directory [default: $%s/synthetic or ./synthetic]" % ENV_OUT_ROOT)
@_cli_errors
def simulate(spec_path, seed, out_dir):
    """Simulate a synthetic dataset in the ingest CSV schemas."""
    if spec_path is not None:
        spec = SyntheticSpec.from_dict(read_json(spec_path))
    else:
        spec = SyntheticSpec()
    if seed is not None:
        spec.seed = seed
    spec.validate()

    if out_dir is None:
        out_dir = os.path.join(_out_root(), "synthetic")
    data = simulate_dataset(spec)
    files = data.write_csv(out_dir)
    truth_path = os.path.join(out_dir, "truth.json")
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump({"truth": data.truth.to_dict(), "sex": data.sex,
                   "response": data.response, "seed": spec.seed},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    inputs = {} if spec_path is None else {"spec": spec_path}
    _write_manifest(out_dir, "simulate", {"spec": spec.to_dict()}, spec.seed,
                    inputs, files + ["truth.json", "manifest.json"])
    click.echo(f"wrote {out_dir}: {len(data.observations)} observations over "
               f"{len(data.contexts)} races")


def _read_diagnostics(fit_dir, manifest, index):
    """diagnose's read half: the text of the chain's diagnostics.csv (each
    column's ESS and lag-1 autocorrelation, and whether the column is
    constant), its draw count and its column count.

    Constant (corner-constrained) columns get ESS N and rho1 0, without a
    warning.
    """
    chain, _ = _load_indexed_chain(fit_dir, manifest, index)
    degenerate = constant_columns(chain.draws)
    ess, rho1 = ess_and_rho1(chain.draws, degenerate)
    rows = zip(chain.columns, ess.tolist(), rho1.tolist(), degenerate.astype(int))
    table = "parameter,ess,rho1,degenerate\n" + "".join(
        "{},{!r},{!r},{}\n".format(*row) for row in rows)
    return table, chain.n_stored, len(chain.columns)


@main.command()
@click.option("--fit", "fit_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--index", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", "out_root", type=click.Path(file_okay=False), default=None,
              help="Output directory [default: the fit directory]")
@_cli_errors
def diagnose(fit_dir, index, out_root):
    """Export tidy traces and per-parameter ESS/autocorrelation tables.
    \f
    The chain is read and its ESS and lag-1 autocorrelations computed in one
    half; the other half re-lays the chain CSV's text into trace.csv.  When
    more than one CPU is usable and the platform can fork, the read half
    runs on a one-process concurrent.futures pool, forked, while this
    process writes the trace; otherwise the read runs first and the export
    second.  Either way the files are the same and a bad chain file exits 2
    naming its line: the worker's exception is raised here with its own
    type and the worker's traceback as its cause, in place of any error of
    the export.  A worker that dies raises BrokenProcessPool, a
    RuntimeError.  The trace is written as `<trace name>.tmp` and renamed to
    its name once the chain has been read and the export has finished, and
    diagnostics.csv is written after it: a failed read or export creates or
    changes neither file, and leaves no temporary file, nor any directory
    that this call made for --out.
    """
    manifest = _read_manifest(fit_dir)
    chain_path, meta_path, n_chains = _indexed_chain_files(fit_dir, manifest, index)
    meta = load_chain_meta(meta_path)
    if out_root is None:
        out_root = fit_dir
    # the directories this call makes: the trace is written into out_root
    # while the chain is read, and a failed read or export removes them
    made = []
    head = os.path.abspath(out_root)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out_root, exist_ok=True)
    trace_path = os.path.join(out_root, _artifact_name("trace", "csv", index, n_chains))
    diag_path = os.path.join(out_root, _artifact_name("diagnostics", "csv", index, n_chains))

    context = None
    if usable_cpus() > 1:
        # imported here, as run_chains imports its process pool.  fork, not
        # spawn: a spawned worker would import numpy and racemix again,
        # which costs about what the overlap saves.  No thread runs at the
        # fork: diagnose starts none, and the pool forks its worker before
        # it starts its own
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
    # the trace replaces trace_path only once the chain has been read
    partial = trace_path + ".tmp"
    try:
        if context is None:
            table, n_draws, n_columns = _read_diagnostics(fit_dir, manifest, index)
            write_trace_csv(chain_path, meta, partial)
        else:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                read = pool.submit(_read_diagnostics, fit_dir, manifest, index)
                try:
                    write_trace_csv(chain_path, meta, partial)
                finally:
                    # raised here, the worker's error replaces any error of the
                    # export, so a bad cell is named by its line as in the serial order
                    table, n_draws, n_columns = read.result()
        os.replace(partial, trace_path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        for directory in made:  # deepest first; rmdir leaves one that is not empty
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    with open(diag_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(table)
    click.echo(f"wrote {trace_path} and {diag_path} "
               f"({n_draws} draws, {n_columns} parameters)")


if __name__ == "__main__":
    main()
