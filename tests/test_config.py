import math

import pytest

from mtt.config import (
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


def test_round_trip_non_defaults():
    config = parse_config_text(
        "scenario.n_targets = 5\n"
        "scenario.initial_states = 1,0,1,0; 2,0,2,0; 3,0,3,0; 4,0,4,0; 5,0,5,0\n"
        "sensor.strategy = round_robin\n"
        "gpf.epsilon = 0.125\n"
        "gpf.n_max = 50\n"
        "metrics.distance_cap = 2.5\n"
    )
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
    with pytest.raises(ConfigError):
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
        ("sensor.strategy = fixed_list", "requires a cell list"),
        ("sensor.strategy = fixed_list\nsensor.fixed_cells = 200", "out of range"),
        ("sensor.strategy = fixed_list\nsensor.fixed_cells = " + ",".join(map(str, range(13))),
         "13 fixed cells but m_cells = 12"),
        # checked under every strategy, not only fixed_list: the manifest keeps the list
        ("sensor.fixed_cells = -5,99999", "out of range"),
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
    # a plain ValueError here; parse_config_text turns it into a ConfigError
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

