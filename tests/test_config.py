import math

import pytest

from mtt.config import (
    _KEYS,
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    parse_config_text,
)
from mtt.sim import ExperimentSetup, ScenarioConfig


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    config = load_config(path)
    assert config == ExperimentConfig(ScenarioConfig(), ExperimentSetup())


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_round_trip_defaults():
    defaults = ExperimentConfig(ScenarioConfig(), ExperimentSetup())
    assert parse_config_text(dump_config(defaults)) == defaults


# One consistent config that sets every key away from its default.
ALL_KEYS_CHANGED = """\
scenario.n_targets = 2
scenario.n_steps = 7
scenario.tau = 0.5
scenario.q_diag = 1.0,0.1,2.0,0.2
scenario.workspace = -1.0,-2.0,10.0,11.0
scenario.seed = 4
scenario.initial_states = 1,0,1,0; 2,0.5,3,-0.5
sensor.r_diag = 0.25,0.75
sensor.p_d = 0.8
sensor.snr = 10.0
sensor.m_cells = 6
sensor.grid_rows = 4
sensor.grid_cols = 5
sensor.strategy = fixed_list
sensor.fixed_cells = 0,7,19
gpf.epsilon = 0.05
gpf.d_thresh = 2.0
gpf.w_prune = 0.02
gpf.n_max = 50
gpf.w_birth = 0.2
gpf.init_weight = 0.8
gpf.init_cov_diag = 2.0,0.2,2.0,0.2
pf.n_particles = 200
pf.ess_ratio = 0.25
pf.resample = systematic
metrics.extraction_threshold = 0.4
metrics.distance_cap = 3.0
"""


def test_round_trip_non_defaults():
    # every key is set, so a new record field must be added to the text above
    keys = [line.split(" = ", 1)[0] for line in ALL_KEYS_CHANGED.splitlines()]
    assert set(keys) == {row.key for row in _KEYS}
    config, defaults = parse_config_text(ALL_KEYS_CHANGED), parse_config_text("")
    for row in _KEYS:
        value = getattr(getattr(config, row.section), row.field)
        assert value != getattr(getattr(defaults, row.section), row.field), row.key
    assert parse_config_text(dump_config(config)) == config


def test_epsilon_out_of_range():
    with pytest.raises(ConfigError, match="range"):
        parse_config_text("gpf.epsilon = 1.5")
    with pytest.raises(ConfigError):
        parse_config_text("gpf.epsilon = 0")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("scenario.n_steps = 10\nscnario.n_targets = 3\n")


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("scenario.seed = 1\nscenario.seed = 2\n")


def test_comments_and_blanks_ignored():
    config = parse_config_text(
        "# full-line comment\n"
        "\n"
        "scenario.seed = 9  # inline comment\n"
    )
    assert config.scenario.seed == 9


def test_bad_number():
    with pytest.raises(ConfigError, match="number"):
        parse_config_text("scenario.tau = fast")


def test_bad_choice():
    with pytest.raises(ConfigError, match="one of"):
        parse_config_text("sensor.strategy = clever")


def test_vector_length_checked():
    with pytest.raises(ConfigError, match="4"):
        parse_config_text("scenario.q_diag = 1,2,3")


def test_initial_state_count_checked():
    want = r"scenario\.initial_states: want scenario\.n_targets = 2 "
    with pytest.raises(ConfigError, match=want):
        parse_config_text(
            "scenario.n_targets = 2\nscenario.initial_states = 1,0,1,0\n"
        )


def test_workspace_parsed():
    config = parse_config_text("scenario.workspace = -1,-1,1,1")
    assert config.scenario.workspace.area == 4.0
    with pytest.raises(ConfigError, match="line 2: scenario.workspace"):
        parse_config_text("scenario.seed = 1\nscenario.workspace = 1,1,1,1")


@pytest.mark.parametrize(
    "line, match",
    [
        ("scenario.q_diag = -1,0.1,1,0.1", "non-negative"),
        ("sensor.r_diag = 1,1,1", "expected 2"),
        ("sensor.r_diag = 1", "expected 2"),
        ("sensor.r_diag = -1,-1", "below allowed range"),
        ("gpf.init_cov_diag = 0,0,-1,0", "below allowed range"),
        ("gpf.init_cov_diag = 1,0.1,1,0", "below allowed range"),
        # a check across keys names each key (the ids are the cases' names from before
        # the patterns required the keys)
        pytest.param("sensor.strategy = fixed_list",
                     r"sensor\.strategy = fixed_list requires sensor\.fixed_cells",
                     id="sensor.strategy = fixed_list-requires a cell list"),
        pytest.param("sensor.strategy = fixed_list\nsensor.fixed_cells = 200",
                     r"sensor\.fixed_cells: a cell index in \[200\] is out of range \[0, 144\)",
                     id="sensor.strategy = fixed_list\nsensor.fixed_cells = 200-out of range"),
        pytest.param("sensor.strategy = fixed_list\nsensor.fixed_cells = "
                     + ",".join(map(str, range(13))),
                     r"sensor\.fixed_cells holds 13 cells but sensor\.m_cells = 12",
                     id="sensor.strategy = fixed_list\nsensor.fixed_cells = "
                        "0,1,2,3,4,5,6,7,8,9,10,11,12-13 fixed cells but m_cells = 12"),
        # checked under every strategy, not only fixed_list: the manifest keeps the list
        pytest.param("sensor.fixed_cells = -5,99999",
                     r"sensor\.fixed_cells: a cell index in .* is out of range",
                     id="sensor.fixed_cells = -5,99999-out of range"),
        ("gpf.d_thresh = nan", "finite"),
        ("gpf.epsilon = nan", "finite"),
        ("sensor.snr = nan", "finite"),
        ("scenario.tau = inf", "finite"),
        ("scenario.q_diag = nan,0,0,0", "finite"),
        ("sensor.r_diag = 1,-inf", "finite"),
        ("scenario.workspace = 0,0,nan,12", "finite"),
        ("scenario.initial_states = 0,0,inf,0", "finite"),
        # the ESS is at least 1, so at ess_ratio * n_particles <= 1 the PF never resamples
        ("pf.n_particles = 1", r"pf\.ess_ratio \* pf\.n_particles must exceed 1"),
        ("pf.n_particles = 2", r"pf\.ess_ratio \* pf\.n_particles must exceed 1"),
        ("pf.ess_ratio = 0.01\npf.n_particles = 100", r"pf\.ess_ratio \* pf\.n_particles"),
        # an empty list entry is a typo, not a value to skip (1,,2,3,4 read as 4 numbers)
        ("scenario.q_diag = 1,,2,3,4", "line 1: scenario.q_diag: empty entry"),
        ("scenario.workspace = 0,0,12,12,", "line 1: scenario.workspace: empty entry"),
        ("sensor.fixed_cells = 3,,4,", "line 1: sensor.fixed_cells: empty entry"),
        ("sensor.fixed_cells = ,", "line 1: sensor.fixed_cells: empty entry"),
        ("scenario.n_targets = 2\nscenario.initial_states = 1,0,1,0;;2,0,2,0",
         "line 2: scenario.initial_states: empty entry"),
        ("scenario.n_targets = 2\nscenario.initial_states = 1,0,1,0; 2,0,,2,0",
         "line 2: scenario.initial_states: empty entry"),
    ],
)
def test_bad_noise_values_rejected(line, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(line)


@pytest.mark.parametrize(
    "line",
    ["scenario.q_diag = 0,0,0,0", "sensor.r_diag = 0,0", "gpf.init_cov_diag = 1,1,1,1",
     "sensor.strategy = fixed_list\nsensor.fixed_cells = 5,5,143", "pf.n_particles = 3",
     "pf.ess_ratio = 1\npf.n_particles = 2"],
)
def test_boundary_noise_values_accepted(line):
    parse_config_text(line)


def test_scenario_rejects_negative_q_diag():
    # a ConfigError, which is a ValueError
    with pytest.raises(ValueError, match="non-negative"):
        ScenarioConfig(q_diag=(1.0, -0.1, 1.0, 0.1))


@pytest.mark.parametrize(
    "kwargs",
    [{"tau": math.nan}, {"tau": math.inf}, {"q_diag": (math.nan, 0.0, 0.0, 0.0)},
     {"q_diag": (math.inf, 0.0, 0.0, 0.0)}],
    ids=["tau-nan", "tau-inf", "q_diag-nan", "q_diag-inf"],
)
def test_scenario_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        ScenarioConfig(**kwargs)


@pytest.mark.parametrize("line", ["gpf.merge_cov = moment", "gpf.clutter_density = auto",
                                  "gpf.clutter_density = 0.25", "metrics.ospa = true"])
def test_removed_keys_are_unknown(line):
    # a run always merges by moment matching, takes its clutter density from the
    # workspace area and scores OSPA
    with pytest.raises(ConfigError, match=f"line 1: unknown key {line.split(' = ')[0]!r}"):
        parse_config_text(line)

