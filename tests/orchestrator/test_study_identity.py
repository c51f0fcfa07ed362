"""One identity and one resolver per study.

A :class:`StudySpec` is a study's only identity: ``run_app_study``'s
arguments just build one, and the process memo is keyed by it, so every
spelling of one study shares one entry and every entry point returns the
same object.  ``run_campaign`` is the only resolver: the cluster cost
model resolves its misses through it, so a failed study surfaces as a
:class:`CampaignError` that still names the study's own error.
"""

import contextlib
import io

import pytest

from repro.cli import main as cli_main
from repro.cluster import CostModel
from repro.core import experiment
from repro.core.experiment import NVFI_MESH, clear_study_cache, run_app_study
from repro.core.serialization import study_to_dict
from repro.faults import FaultKind, FaultPlan, FaultSpec, preset_plan
from repro.orchestrator import CampaignError, StudySpec, run_campaign
from repro.power import PowerCapSpec
from repro.tech import TechSpec
from repro.utils.jsonutil import canonical_json

ARGS = {"scale": 0.05, "seed": 9, "num_workers": 16}
SPEC = StudySpec("histogram", **ARGS)
PLAN = FaultPlan(
    events=(FaultSpec(FaultKind.ISLAND_THROTTLE, 1.0, (1,), 1.0),),
    name="identity",
)


@pytest.fixture(autouse=True)
def clean_memo():
    clear_study_cache()
    yield
    clear_study_cache()


ENTRY_POINTS = {
    "run_app_study": lambda: run_app_study("histogram", **ARGS),
    "spec.run": lambda: SPEC.run(),
    "run_campaign": lambda: run_campaign([SPEC]).study(SPEC),
    "CostModel.study": lambda: CostModel().study(SPEC),
}


@pytest.mark.parametrize("first", list(ENTRY_POINTS))
def test_every_entry_point_returns_one_object(first):
    study = ENTRY_POINTS[first]()
    for name, resolve in ENTRY_POINTS.items():
        assert resolve() is study, name


SPELLINGS = {
    "plan and its JSON": (
        {"fault_plan": PLAN}, {"fault_plan": PLAN.to_json()},
    ),
    "empty plan and None": ({"fault_plan": FaultPlan()}, {"fault_plan": None}),
    "default tech and None": ({"tech": TechSpec()}, {"tech": None}),
    "unbounded cap and None": (
        {"power_cap": PowerCapSpec()}, {"power_cap": None},
    ),
}


@pytest.mark.parametrize("pair", list(SPELLINGS))
def test_spellings_share_one_memo_entry(pair):
    first, second = SPELLINGS[pair]
    study = run_app_study("histogram", **ARGS, **first)
    assert run_app_study("histogram", **ARGS, **second) is study
    assert len(experiment._STUDY_CACHE) == 1


def test_an_alias_shares_the_apps_memo_entry():
    study = run_app_study("hist", **ARGS)
    assert run_app_study("histogram", **ARGS) is study
    assert list(experiment._STUDY_CACHE) == [SPEC]


@pytest.mark.parametrize(
    "scenario", ["core_failure", "throttle", "mixed", "straggler"]
)
@pytest.mark.parametrize("app, num_workers", [("histogram", 16), ("pca", 64)])
def test_direct_study_matches_the_campaign_bytes(
    app, num_workers, scenario, tmp_path
):
    args = {"scale": 0.05, "seed": 9, "num_workers": num_workers}
    horizon = run_app_study(app, **args).result(NVFI_MESH).total_time_s
    plan = preset_plan(scenario, horizon, num_workers)
    direct = run_app_study(
        app, **args, fault_plan=plan, power_cap=60.0, use_cache=False
    )
    spec = StudySpec(app, **args, fault_plan=plan, power_cap=60.0)
    run_campaign([spec], cache=tmp_path).raise_failures()
    clear_study_cache()
    warm = run_campaign([spec], cache=tmp_path)
    assert warm.manifest.records[0].status == "cached"
    assert canonical_json(study_to_dict(warm.study(spec))) == canonical_json(
        study_to_dict(direct)
    )


@pytest.fixture
def exploding_pipeline(monkeypatch):
    """Every pipeline run raises; the list counts the attempts."""
    attempts = []

    def explode(spec):
        attempts.append(spec)
        raise ValueError(f"pipeline exploded on {spec.app}")

    monkeypatch.setattr(experiment, "_run_pipeline", explode)
    return attempts


def test_cost_model_failure_names_the_study_error(exploding_pipeline):
    model = CostModel()
    with pytest.raises(CampaignError) as info:
        model.study(SPEC)
    message = str(info.value)
    assert SPEC.label in message
    assert "ValueError: pipeline exploded on histogram" in message
    assert isinstance(info.value.__cause__, ValueError)
    # The lazy path makes one attempt: a deterministic failure is not
    # simulated twice.
    assert exploding_pipeline == [SPEC]
    assert model.stats()["computed"] == 0


def test_cluster_run_error_line_names_the_study_error(exploding_pipeline):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
        io.StringIO()
    ):
        code = cli_main(["cluster", "run", "--policy", "fifo"])
    assert code == 2
    line = err.getvalue().splitlines()[-1]
    (spec,) = exploding_pipeline
    assert line == (
        f"repro: error: 1 campaign unit(s) failed: {spec.label} -- "
        f"ValueError: pipeline exploded on {spec.app}"
    )
