"""Command-line front end.

Subcommands: fit, calibrate, bench, verify-theory, report.
Exit codes: 0 success, 1 usage error, 2 data error, 3 verification failure.

Flags can also come from a flat key=value config file (--config); explicit
command-line flags win.  A flag value that the run would refuse is a usage
error.
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
    CostMode,
    DEFAULT_SIGMA_GRID,
    DataError,
    Regressor,
    SelregError,
    json_object,
    model_from_json,
    model_to_json,
    sigma_grid,
)
from .harness import (
    REJECTOR_KINDS,
    ExperimentConfig,
    RunReport,
    budget_threshold,
    cost_calibrator,
    emit_report,
    fit_regressor,
    materialize,
    run_experiment,
)
from .models import KnnConfig, MlpConfig
from .tasks import task_names

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

# the --regressor choices and the settings that each one runs
REGRESSORS = {"knn": KnnConfig(), "mlp": MlpConfig(), "oracle": "oracle"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise SelregError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config_file(args: argparse.Namespace, parser: _Parser, argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv`` again with the config file's values, converted as each
    flag's own argparse action converts it, as the subcommand's defaults: a
    flag given on the command line wins even when it repeats its default."""
    if not getattr(args, "config", None):
        return args
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, raw in _read_config_file(args.config).items():
        action = actions.get(key)
        if action is None:
            raise SelregError(f"config file sets unknown option {key!r}")
        try:
            value = action.type(raw) if action.type else raw
        except ValueError:
            raise SelregError(f"config file sets {key} to {raw!r}, not a {action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise SelregError(f"config file sets {key} to {raw!r}; choose from {', '.join(action.choices)}")
        defaults[key] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


@contextmanager
def _flag_values():
    """A ValueError raised while turning flags into settings is a usage
    error; one raised later is a fault of the run and propagates."""
    try:
        yield
    except ValueError as exc:
        raise SelregError(str(exc)) from None


def _add_common_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV path or synthetic task name")
    p.add_argument("--target-col", default="target")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="flat key=value config file")


def _sigma_grid(arg: str | None) -> tuple[float, ...]:
    if arg is None:
        return DEFAULT_SIGMA_GRID
    return sigma_grid(float(tok) for tok in arg.split(",") if tok.strip())


def _build_experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    if (args.cost if args.mode == "cost" else args.budget) is None:
        raise SelregError(f"--{args.mode} is required with --mode {args.mode}")
    with _flag_values():
        return ExperimentConfig(
            dataset_source=args.data,
            cost_config=CostConfig(
                CostMode(args.mode), cost_c=args.cost or 0.0, budget_gamma=args.budget or 0.0
            ),
            regressor=REGRESSORS[args.regressor],
            rejector=args.rejector,
            repeats=args.repeats,
            seed=args.seed,
            target_column=args.target_col,
            synthetic_n=args.synthetic_n,
            sigma_grid=_sigma_grid(args.sigma_grid),
        )


def _write(out: str, text: str) -> Path:
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return path


def _data_record(args) -> dict:
    """The options that fix a run's splits and scaling, with a CSV path
    resolved so that two spellings of one file compare equal."""
    data = args.data if args.data in task_names() else str(Path(args.data).resolve())
    return {"data": data, "seed": args.seed, "target_col": args.target_col}


def _cmd_fit(args) -> int:
    # the same splits and model as `bench` repeat 0 at this seed
    train, val, _, task = materialize(args.data, args.seed, target_column=args.target_col)
    model = fit_regressor(REGRESSORS[args.regressor], train, val, task, args.seed)
    doc = {**json.loads(model_to_json(model)), **_data_record(args)}
    out = _write(args.out, json.dumps(doc, sort_keys=True))
    print(f"wrote {args.regressor} model to {out}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    with _flag_values():
        cost = CostConfig.fixed_cost(args.cost).cost_c
        gamma = None if args.budget is None else CostConfig.fixed_budget(args.budget).budget_gamma
        grid = _sigma_grid(args.sigma_grid)
    text = Path(args.model).read_text()
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
    calibrator = cost_calibrator("kernel", grid, model, val, task, cost)
    doc = {
        "calibrator": json.loads(model_to_json(calibrator)),
        "sigma": calibrator.kernel.length_scale_sigma,
        "cost": cost,
        "scores": calibrator.estimate(val.features).tolist(),
    }
    if gamma is not None:
        budget_cal, th = budget_threshold("kernel", model, val, task, gamma)
        doc["conformal"] = {
            "calibrator": json.loads(model_to_json(budget_cal)),
            "c_hat": th.c_hat if th.c_hat != float("inf") else "inf",
            "m": th.m,
            "gamma": th.gamma,
            "order_statistic_index": th.order_statistic_index,
        }
    out = _write(args.out, json.dumps(doc, sort_keys=True, indent=2))
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
        _write(args.out, text)
    print(text)
    return EXIT_OK if doc["passed"] else EXIT_VERIFY


def _cmd_report(args) -> int:
    report = RunReport.from_json(Path(args.input).read_text())
    path = emit_report(report, args.format, args.out, stem=Path(args.input).stem)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="selreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a regressor on the train split")
    _add_common_data_flags(p_fit)
    p_fit.add_argument("--regressor", choices=tuple(REGRESSORS), default="knn")
    p_fit.add_argument("--out", default="model.json")
    p_fit.set_defaults(fn=_cmd_fit)

    p_cal = sub.add_parser("calibrate", help="kernel-calibrate a fitted model")
    _add_common_data_flags(p_cal)
    p_cal.add_argument("--model", required=True, help="model JSON from `fit`")
    p_cal.add_argument("--cost", type=float, default=1.0)
    p_cal.add_argument("--budget", type=float, default=None)
    p_cal.add_argument("--sigma-grid", default=None, help="comma-separated bandwidths")
    p_cal.add_argument("--out", default="calibration.json")
    p_cal.set_defaults(fn=_cmd_calibrate)

    p_bench = sub.add_parser("bench", help="run the repeated benchmark protocol")
    _add_common_data_flags(p_bench)
    p_bench.add_argument("--mode", choices=("cost", "budget"), required=True)
    p_bench.add_argument("--cost", type=float, default=None)
    p_bench.add_argument("--budget", type=float, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, parser, argv)
        return args.fn(args)
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SelregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
