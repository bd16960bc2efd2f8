"""The fuzzing harness itself: a short seeded campaign must come back
clean, the minimizer must shrink while preserving the failure predicate,
and corpus files must round-trip through write → parse → replay."""

from __future__ import annotations

from repro.fuzz import gen
from repro.fuzz.campaign import (
    ROTATION, CampaignCase, _write_case, iteration_seed, parse_case_header,
    replay_case_text, run_campaign,
)
from repro.fuzz.gen import generate_program
from repro.fuzz.minimize import count_stmts, has_assert, minimize_program
from repro.lang.pretty import pp_program


def test_short_campaign_is_clean(tmp_path):
    result = run_campaign(seed=0, iterations=8, corpus_dir=tmp_path)
    assert result.ok, (result.disagreements, result.certificate_failures)
    assert result.executed["roundtrip"] == 8
    # the heavyweight rotation covered every oracle at least once
    for oracle, _ in ROTATION:
        assert result.executed.get(oracle, 0) >= 1, oracle
    assert not list(tmp_path.iterdir())  # clean campaign writes nothing


def test_focused_campaign_runs_only_the_named_oracle(tmp_path):
    result = run_campaign(seed=0, iterations=3, corpus_dir=tmp_path,
                          only="theory_justifications")
    assert result.ok, (result.disagreements, result.certificate_failures)
    assert result.executed == {"theory_justifications": 3}
    assert not list(tmp_path.iterdir())
    try:
        run_campaign(seed=0, iterations=1, only="no-such-oracle")
    except ValueError as exc:
        assert "no-such-oracle" in str(exc)
    else:
        raise AssertionError("unknown oracle name was accepted")


def test_iteration_seed_is_stable_and_spread():
    seeds = [iteration_seed(0, i) for i in range(100)]
    assert seeds == [iteration_seed(0, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert set(seeds) != {iteration_seed(1, i) for i in range(100)}


def test_minimizer_shrinks_but_preserves_predicate():
    program = generate_program(3, gen.GENERAL)

    def still_fails(p):
        return has_assert(p)

    small = minimize_program(program, still_fails)
    assert has_assert(small)
    assert count_stmts(small) <= count_stmts(program)
    # a single assert is all the predicate needs; greedy one-step removal
    # should get (close to) there
    assert count_stmts(small) <= 3


def test_minimizer_survives_crashing_predicate():
    program = generate_program(5, gen.GENERAL)
    calls = []

    def picky(p):
        calls.append(p)
        if not has_assert(p):
            raise ValueError("predicate crashed")  # treated as "fixed"
        return True

    small = minimize_program(program, picky)
    assert has_assert(small)
    assert calls  # the predicate actually ran


def test_corpus_write_parse_replay_roundtrip(tmp_path):
    program = generate_program(11, gen.GENERAL)
    case = CampaignCase(oracle="roundtrip", iteration=4,
                        rng_seed=1234, detail="synthetic case\nwith newline",
                        source=pp_program(program))
    path = _write_case(case, campaign_seed=7, corpus_dir=tmp_path)
    text = (tmp_path / "roundtrip-s7-i0004.bpl").read_text()
    assert path.endswith("roundtrip-s7-i0004.bpl")
    assert parse_case_header(text) == ("roundtrip", 1234)
    # the committed reproducer replays through the named oracle
    assert replay_case_text(text) is None


def test_scenario_preset_emits_every_family():
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import typecheck
    seen: set[str] = set()
    for seed in range(40):
        program = generate_program(seed, gen.SCENARIOS)
        text = pp_program(program)
        # scenario asserts stay inside the parser normal form
        assert parse_program(text) == program, seed
        typecheck(program)
        for fam in ("uaf$", "bound$", "div$", "uninit$"):
            if fam + "1:" in text:
                seen.add(fam)
    assert seen == {"uaf$", "bound$", "div$", "uninit$"}


def test_scenario_preset_is_in_the_rotation():
    assert ("incremental-vs-naive", gen.SCENARIOS) in ROTATION
