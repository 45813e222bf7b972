"""Command-line front end.

Subcommands run the analysis stages in isolation (``fit``, ``bootstrap``,
``continuity``), all at once (``report``), score held-out series against
a finished fit (``check``), or generate a synthetic panel (``synth``).

Every option can also be supplied through an environment variable named
``SPCGROWTH_`` plus the flag name in upper case with ``-`` replaced by
``_`` (``SPCGROWTH_SEED=7``, ``SPCGROWTH_BOOTSTRAP=200``); explicit flags win
over the environment, the environment wins over the defaults: those of
``PipelineConfig``, and for ``synth``'s panel those of ``SyntheticSpec``.

Exit codes: 0 success, 2 data or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import importlib.util
import logging
import os
import sys

# Every BLAS call of the analysis is small, so OpenBLAS's worker threads
# only spin. Where the command line is the first to load numpy and no
# thread count is set, numpy loads with one thread; the variable is
# removed again once it has been read (README "Start-up").
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    name in os.environ for name in _BLAS_THREAD_VARIABLES
)
# A run's only hashes are two SHA-256 digests, which CPython's built-in
# module gives as OpenSSL does. Where the command line is the first to
# load hashlib and that module exists, hashlib and hmac load without
# OpenSSL's ``_hashlib``; later imports (``secrets``, through
# numpy.random) reuse them, so the process never maps libcrypto. The
# entry that hides ``_hashlib`` is removed right after (README "Start-up").
_OPENSSL_MODULES = ("_hashlib", "hashlib", "hmac")
_BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
_NO_OPENSSL = not any(name in sys.modules for name in _OPENSSL_MODULES) and (
    importlib.util.find_spec(_BUILTIN_SHA256) is not None
)
if _NO_OPENSSL:
    sys.modules["_hashlib"] = None
    try:
        import hashlib  # noqa: F401
        import hmac  # noqa: F401
    finally:
        del sys.modules["_hashlib"]
# A run makes a few hundred cyclic objects, however large its panel, so
# the collector's passes over the imports' objects, and CPython's
# collections at exit, find next to nothing. Where the command line is
# the first to load numpy and the collector is on, it is off while the
# package loads; what the imports built is then frozen out of later
# collections, and at exit so is everything the run built. The collector
# stays on during the run (README "Start-up").
_QUIET_GC = "numpy" not in sys.modules and gc.isenabled()
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
if _QUIET_GC:
    gc.disable()
    atexit.register(gc.freeze)
try:
    from .dataset import SyntheticSpec, generate_synthetic, serialize_dataset
    from .density import AUTO_BANDWIDTH
    from .errors import DataError, ParameterError, SpcGrowthError
    from .pipeline import (
        PipelineConfig,
        add_bootstrap,
        add_continuity,
        add_validation,
        benchmark_check,
        run_fit_stage,
        run_pipeline,
    )
    from .report import FitStageWriter, render_check_text, report_files
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]
    if _QUIET_GC:
        gc.freeze()
        gc.enable()

logger = logging.getLogger(__name__)

ENV_PREFIX = "SPCGROWTH_"


def _setting(args: argparse.Namespace, flag: str) -> str | None:
    """The flag's value, else its environment variable, else None."""
    name = flag.lstrip("-").replace("-", "_")
    value = getattr(args, name, None)
    if value is None:
        value = os.environ.get(ENV_PREFIX + name.upper())
    return value


def _parser(convert, expects: str):
    """A value parser for a flag: ``convert(text)``, where a ValueError
    becomes a ParameterError saying what the flag expects."""

    def parse(text: str, flag: str):
        try:
            return convert(text)
        except ValueError:
            raise ParameterError(f"{flag} expects {expects}, got {text!r}") from None

    return parse


def _non_empty(text: str) -> str:
    if not text:
        raise ValueError(text)
    return text


_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")
_parse_path = _parser(_non_empty, "a path")
_parse_bandwidth = _parser(
    lambda text: text if text == AUTO_BANDWIDTH else float(text),
    f"a number or {AUTO_BANDWIDTH!r}",
)


# flag -> (field, parser, metavar, help text). Each table's fields and
# their defaults belong to one class: the run options' to PipelineConfig,
# the synthetic panel's to SyntheticSpec.
_SEED_OPTION = {"--seed": ("seed", _parse_int, None, "base random seed")}
_RUN_OPTIONS = {
    **_SEED_OPTION,
    "--bootstrap": ("n_bootstrap", _parse_int, "N", "bootstrap iterations"),
    "--validation": ("n_validation", _parse_int, "N", "validation repeats"),
    "--bandwidth": ("bandwidth", _parse_bandwidth, "X|auto", "KDE bandwidth"),
}
_SYNTH_OPTIONS = {
    "--regions": ("n_regions", _parse_int, None, "number of regions"),
    "--noise": ("noise_sigma", _parse_float, None, "noise sigma"),
}


def _given(args: argparse.Namespace, options: dict) -> dict:
    """The options that are set, parsed, by field."""
    given = {}
    for flag, (field, parse, _, _) in options.items():
        text = _setting(args, flag)
        if text is not None:
            given[field] = parse(text, flag)
    return given


def _add_options(parser: argparse.ArgumentParser, options: dict, defaults: type) -> None:
    """Add ``options``, each help text naming its default on ``defaults``."""
    for flag, (field, _, metavar, help_text) in options.items():
        value = getattr(defaults, field)
        parser.add_argument(flag, metavar=metavar, help=f"{help_text} (default {value})")


def _path(args: argparse.Namespace, flag: str, required: bool = False) -> str | None:
    """The flag's path setting; None when it is unset and not ``required``."""
    text = _setting(args, flag)
    if text is None:
        if required:
            raise ParameterError(f"{flag} is required (or set {ENV_PREFIX}{flag[2:].upper()})")
        return None
    return _parse_path(text, flag)


def _build_config(args: argparse.Namespace, need_out: bool = False) -> PipelineConfig:
    input_path = _path(args, "--input", required=True)
    out = _path(args, "--out", required=need_out) if "out" in args else None
    return PipelineConfig(input_path=input_path, output_dir=out, **_given(args, _RUN_OPTIONS))


@contextlib.contextmanager
def _naming(path):
    """Name ``path`` in the data errors raised while its panel is analysed.

    The flags are checked before any panel is read, so a ParameterError
    raised in here comes from the panel too.
    """
    try:
        yield
    except (DataError, ParameterError) as exc:
        raise DataError(f"{path}: {exc}") from exc


# subcommand -> the stage it runs after the fit stage
_STAGES = {"fit": add_validation, "bootstrap": add_bootstrap, "continuity": add_continuity}


def _cmd_stage(args: argparse.Namespace) -> int:
    config = _build_config(args)
    with _naming(config.input_path):
        bundle = _STAGES[args.command](run_fit_stage(config))
    files = dict(report_files(bundle))
    print(*files["report.txt"], sep="", end="")
    if config.output_dir is not None:
        with FitStageWriter(config.output_dir) as staged:
            staged.move_in(files.items())
        logger.info("wrote report files to %s", config.output_dir)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _build_config(args, need_out=True)
    with _naming(config.input_path):
        run_pipeline(config)
    print(f"report written to {config.output_dir}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    config = _build_config(args)
    with _naming(config.input_path):
        bundle = run_fit_stage(config)
    with _naming(args.new_series):
        check = benchmark_check(bundle, args.new_series)
    print(render_check_text(check), end="")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(**_given(args, _SYNTH_OPTIONS))
    seed = _given(args, _SEED_OPTION).get("seed", PipelineConfig.seed)
    out = _path(args, "--out")
    text = serialize_dataset(generate_synthetic(spec, seed=seed))
    if out is None:
        print(text, end="")
    else:
        with FitStageWriter(out) as staged:
            (target,) = staged.move_in([("synthetic.csv", [text])])
        print(f"synthetic panel written to {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcgrowth",
        description="Growth-curve analysis of scaled social complexity panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "fit": ("derive the threshold, align, fit, and validate", _cmd_stage),
        "bootstrap": ("bootstrap the fit and estimate growth timescales", _cmd_stage),
        "continuity": ("refit on continuity-restricted central segments", _cmd_stage),
        "report": ("run every stage and write all artifacts", _cmd_report),
        "check": ("score held-out series against a fitted run", _cmd_check),
        "synth": ("generate a synthetic panel", _cmd_synth),
    }
    for name, (help_text, handler) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        if name == "synth":
            _add_options(cmd, _SYNTH_OPTIONS, SyntheticSpec)
            _add_options(cmd, _SEED_OPTION, PipelineConfig)
        else:
            cmd.add_argument("--input", help="panel CSV file")
            _add_options(cmd, _RUN_OPTIONS, PipelineConfig)
        if name == "check":  # prints its scores and writes nothing
            cmd.add_argument("new_series", help="panel CSV of held-out series")
        else:
            cmd.add_argument("--out", metavar="DIR", help="output directory")
        cmd.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (DataError, ParameterError) as exc:
        logger.error("%s", exc)
        return 2
    except SpcGrowthError as exc:
        logger.error("%s", exc)
        return 3
    except OSError as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
