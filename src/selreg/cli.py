"""Command-line front end.

Subcommands: fit, calibrate, bench, verify-theory, report.
Exit codes: 0 success, 1 usage error, 2 data error, 3 verification failure.

Flags can also come from a flat config file (--config), whose line
``key = value`` is the flag ``--key=value``; flags given on the command line
win.  A flag that the parser or the run would refuse is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .core import (
    CostConfig,
    DEFAULT_SIGMA_GRID,
    DataError,
    Regressor,
    RngHandle,
    SelregError,
    json_object,
    model_from_json,
    model_to_json,
    read_text,
    sigma_grid,
)
from .harness import (
    REJECTOR_KINDS,
    ExperimentConfig,
    RunReport,
    budget_threshold,
    check_source,
    cost_calibrator,
    emit_report,
    fit_regressor,
    materialize,
    run_experiment,
    write_output,
)
from .models import KnnConfig, MlpConfig
from .tasks import task_names

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

# the --regressor choices and the settings that each one runs
REGRESSORS = {"knn": KnnConfig(), "mlp": MlpConfig(), "oracle": "oracle"}

# the commands that read a dataset, with their help; each takes the data
# flags and --config
DATA_COMMANDS = {
    "fit": "fit a regressor on the train split",
    "calibrate": "kernel-calibrate a fitted model",
    "bench": "run the repeated benchmark protocol",
}


class _Parser(argparse.ArgumentParser):
    """Flags are spelled in full, and a refused one is a SelregError."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise SelregError(message)


def _with_config_flags(argv: list[str]) -> list[str]:
    """``argv`` with each ``key = value`` line of its --config file put after
    the command as ``--key=value``; argparse keeps the last value it sees, so
    a flag given on the command line wins even when it repeats its default.
    Another command's parser refuses --config unread."""
    if not argv or argv[0] not in DATA_COMMANDS:
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return argv
    flags = []
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise SelregError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return argv[:1] + flags + argv[1:]


@contextmanager
def _flag_values():
    """A ValueError raised while turning flags into settings is a usage
    error; one raised later is a fault of the run and propagates."""
    try:
        yield
    except ValueError as exc:
        raise SelregError(str(exc)) from None


def _sigma_grid(arg: str | None) -> tuple[float, ...]:
    if arg is None:
        return DEFAULT_SIGMA_GRID
    return sigma_grid(float(tok) for tok in arg.split(",") if tok.strip())


def _build_experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    with _flag_values():
        return ExperimentConfig(
            dataset_source=args.data,
            cost_config=(
                CostConfig.fixed_cost(args.cost) if args.budget is None else CostConfig.fixed_budget(args.budget)
            ),
            regressor=REGRESSORS[args.regressor],
            rejector=args.rejector,
            repeats=args.repeats,
            seed=args.seed,
            target_column=args.target_col,
            synthetic_n=args.synthetic_n,
            sigma_grid=_sigma_grid(args.sigma_grid),
        )


def _data_record(args) -> dict:
    """The options that fix a run's splits and scaling, with a CSV path
    resolved so that two spellings of one file compare equal."""
    data = args.data if args.data in task_names() else str(Path(args.data).resolve())
    return {"data": data, "seed": args.seed, "target_col": args.target_col}


def _cmd_fit(args) -> int:
    with _flag_values():
        RngHandle(args.seed)
        check_source(args.data, args.target_col, regressor=args.regressor)
    # the same splits and model as `bench` repeat 0 at this seed
    train, val, _, task = materialize(args.data, args.seed, target_column=args.target_col)
    model = fit_regressor(REGRESSORS[args.regressor], train, val, task, args.seed)
    doc = {**json.loads(model_to_json(model)), **_data_record(args)}
    out = write_output(args.out, json.dumps(doc, sort_keys=True))
    print(f"wrote {args.regressor} model to {out}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    with _flag_values():
        RngHandle(args.seed)
        check_source(args.data, args.target_col)
        cost = CostConfig.fixed_cost(args.cost).cost_c
        gamma = None if args.budget is None else CostConfig.fixed_budget(args.budget).budget_gamma
        grid = _sigma_grid(args.sigma_grid)
    text = read_text(args.model)
    # validation rows are held out from the model, and scaled as its training
    # rows were, only at the data options it was fitted with; a model file
    # without that record is taken as it is
    fitted = json_object(text, f"model file {args.model}")
    mismatched = [
        f"{key} {fitted[key]!r} at fit, {value!r} here"
        for key, value in _data_record(args).items()
        if key in fitted and fitted[key] != value
    ]
    if mismatched:
        raise SelregError(f"{args.model} was fitted on other data: " + "; ".join(mismatched))
    _, val, _, task = materialize(args.data, args.seed, target_column=args.target_col)
    model = model_from_json(text)
    if not isinstance(model, Regressor):
        raise DataError(f"{args.model} holds a {model.json_tag}, not a regressor")
    if model.dim != val.dim:
        raise DataError(f"{args.model} takes {model.dim} input features, {args.data} has {val.dim}")
    calibrator = cost_calibrator("kernel", grid, model, val, model.predict(val.features), task, cost)
    doc = {
        "calibrator": json.loads(model_to_json(calibrator)),
        "sigma": calibrator.kernel.length_scale_sigma,
        "cost": cost,
        "scores": calibrator.estimate(val.features).tolist(),
    }
    if gamma is not None:
        budget_cal, th = budget_threshold("kernel", model, val, task, gamma)
        doc["conformal"] = {
            **asdict(th),
            "calibrator": json.loads(model_to_json(budget_cal)),
            "c_hat": th.c_hat if th.c_hat != float("inf") else "inf",
        }
    out = write_output(args.out, json.dumps(doc, sort_keys=True, indent=2))
    print(f"wrote calibration to {out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _build_experiment_config(args)
    report = run_experiment(cfg)
    path = emit_report(report, args.format, args.out, stem="bench")
    print(f"{report.method} on {report.dataset}: rwr={report.rwr_mean:.4f} "
          f"machine={report.machine_mean:.4f} rej={report.rej_mean:.4f} -> {path}")
    return EXIT_OK


def _cmd_verify_theory(args) -> int:
    from .oracle import run_verification_suite

    # the suite reads nothing but these two flags, so its ValueError is theirs
    with _flag_values():
        results = run_verification_suite(seed=args.seed, trials=args.trials)
    doc = {
        "passed": all(r.passed for r in results),
        "properties": [asdict(r) for r in results],
    }
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        write_output(args.out, text)
    print(text)
    return EXIT_OK if doc["passed"] else EXIT_VERIFY


def _cmd_report(args) -> int:
    report = RunReport.from_json(read_text(args.input))
    path = emit_report(report, args.format, args.out, stem=Path(args.input).stem)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="selreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit, p_cal, p_bench = (sub.add_parser(name, help=text) for name, text in DATA_COMMANDS.items())
    for p in (p_fit, p_cal, p_bench):
        p.add_argument("--data", required=True, help="CSV path or synthetic task name")
        p.add_argument("--target-col", default="target")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="flat key=value config file")

    p_fit.add_argument("--regressor", choices=tuple(REGRESSORS), default="knn")
    p_fit.add_argument("--out", default="model.json")
    p_fit.set_defaults(fn=_cmd_fit)

    p_cal.add_argument("--model", required=True, help="model JSON from `fit`")
    p_cal.add_argument("--cost", type=float, default=1.0)
    p_cal.add_argument("--budget", type=float, default=None)
    p_cal.add_argument("--sigma-grid", default=None, help="comma-separated bandwidths")
    p_cal.add_argument("--out", default="calibration.json")
    p_cal.set_defaults(fn=_cmd_calibrate)

    # the one flag given picks the mode: a deferral cost c or a rejection budget gamma
    deferral = p_bench.add_mutually_exclusive_group(required=True)
    deferral.add_argument("--cost", type=float)
    deferral.add_argument("--budget", type=float)
    p_bench.add_argument("--regressor", choices=tuple(REGRESSORS), default="knn")
    p_bench.add_argument("--rejector", choices=REJECTOR_KINDS, default="kernel")
    p_bench.add_argument("--repeats", type=int, default=10)
    p_bench.add_argument("--synthetic-n", type=int, default=1000)
    p_bench.add_argument("--sigma-grid", default=None,
                         help="comma-separated bandwidths; only the kernel rejector in cost mode searches them")
    p_bench.add_argument("--out", default=".")
    p_bench.add_argument("--format", choices=("json", "csv"), default="json")
    p_bench.set_defaults(fn=_cmd_bench)

    p_ver = sub.add_parser("verify-theory", help="run the numerical verification suite")
    p_ver.add_argument("--seed", type=int, default=20240000)
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(fn=_cmd_verify_theory)

    p_rep = sub.add_parser("report", help="convert a JSON run report")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--out", default=".")
    p_rep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_rep.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_with_config_flags(argv))
        return args.fn(args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SelregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
