"""Bad input on the command line or in a file exits 2 with a named error."""

import re
from dataclasses import replace

import pytest

from sectorsearch import cli
from sectorsearch.engine import Move, SearchConfig, search
from sectorsearch.errors import FormatError, InputError
from sectorsearch.instance import dumps, generate, load_solution, loads, save_solution


@pytest.fixture
def inst(tmp_path):
    path = tmp_path / "g.inst"
    path.write_text(dumps(generate(seed=2, width=4, height=4, colours=3)))
    return path


def _solve_fails(capsys, *argv):
    assert cli.main(["solve", *map(str, argv), "--iters", "50"]) == 2
    return capsys.readouterr().err


def test_unknown_hard_id_on_the_command_line(inst, capsys):
    assert "'nosuch'" in _solve_fails(capsys, inst, "--hard", "nosuch")


def test_unknown_hard_id_in_the_file(inst, capsys):
    inst.write_text(inst.read_text().replace("hard -", "hard nosuch"))
    assert "'nosuch'" in _solve_fails(capsys, inst)


def test_non_integer_weight(inst, capsys):
    assert "'x'" in _solve_fails(capsys, inst, "--weights", "balance=x")


def test_weight_for_an_unknown_id(inst, capsys):
    assert "'nosuch'" in _solve_fails(capsys, inst, "--weights", "nosuch=3")


def test_check_weight_for_an_unknown_id(inst, tmp_path, capsys):
    sol = tmp_path / "g.sol"
    save_solution(dict.fromkeys(range(16), 1), str(sol))
    assert cli.main(["check", str(inst), str(sol), "--weights", "nosuch=3"]) == 2
    assert "'nosuch'" in capsys.readouterr().err


def test_parallel_below_one(inst, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["solve", str(inst), "--parallel", "0"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--parallel" in err and "'0'" in err


@pytest.mark.parametrize(
    "flag, value, named",
    [("--sizes", "10,x", "'x'"), ("--sizes", "100", "two sizes"), ("--probes", "0", "'0'")],
)
def test_probe_bench_bad_argument(flag, value, named, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["probe-bench", flag, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and named in err


def test_unknown_counter_id_in_a_move():
    model = generate(seed=2, width=4, height=4, colours=3).build()
    with pytest.raises(InputError, match="'nosuch'"):
        model.probe_parts(Move.counter("nosuch", 2))
    with pytest.raises(InputError, match="'nosuch'"):
        model.commit(Move.counter("nosuch", 2))


REQUIRED = [
    ("connected", "counter"),
    ("compact", "threshold"),
    ("bounded", "threshold"),
    ("balanced", "delta_scaled"),
    ("balanced_size", "delta_scaled"),
    ("stretchsum", "flight"),
    ("nonborder", "flight"),
]


@pytest.mark.parametrize("kind, param", REQUIRED)
def test_missing_required_parameter(kind, param):
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    section = f"[constraint extra]\nkind {kind}\nweight 1\n"
    text = text.replace("[search]", section + "[search]")
    with pytest.raises(FormatError, match=f"constraint extra: missing {param}"):
        loads(text)


def test_counter_range_needs_both_ends():
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    text = text.replace("counter 3\n", "counter 3\ncounter_min 2\n")
    with pytest.raises(FormatError, match="constraint connected: missing counter_max"):
        loads(text)


def test_empty_counter_range():
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    text = text.replace("counter 3\n", "counter 3\ncounter_min 5\ncounter_max 2\n")
    with pytest.raises(FormatError, match="constraint connected: counter_min 5 exceeds"):
        loads(text)


def test_non_positive_weight_in_the_file(inst, capsys):
    inst.write_text(inst.read_text().replace("kind balanced\nweight 1", "kind balanced\nweight 0"))
    assert "constraint balance: weight must be positive" in _solve_fails(capsys, inst)


def test_non_positive_weight_on_the_command_line(inst, capsys):
    err = _solve_fails(capsys, inst, "--weights", "connected=-1")
    assert "constraint connected: weight must be positive" in err


@pytest.mark.parametrize(
    "param, value, message",
    [
        ("relop", "~", "constraint connected: unknown relation '~'"),
        ("delta_scaled", "-1", "constraint balance: delta_scaled must be non-negative"),
    ],
)
def test_value_its_constraint_rejects(inst, capsys, param, value, message):
    text = re.sub(f"^{param} .*$", f"{param} {value}", inst.read_text(), count=1, flags=re.M)
    inst.write_text(text)
    assert message in _solve_fails(capsys, inst)


def test_paper_fast_connected_cannot_be_hard(inst, capsys):
    model = loads(inst.read_text()).build(mode_override="paper-fast")
    with pytest.raises(InputError, match="constraint connected: mode paper-fast"):
        search(model, SearchConfig(seed=1, max_iterations=50, hard=("connected",)))
    err = _solve_fails(capsys, inst, "--mode", "paper-fast", "--hard", "connected")
    assert err.count("\n") == 1 and "constraint connected: mode paper-fast" in err


def test_unknown_grid_key(inst, capsys):
    inst.write_text(inst.read_text().replace("cell_area 1", "cell_areaa 2"))
    assert "unknown grid key 'cell_areaa'" in _solve_fails(capsys, inst)


def test_parameter_its_kind_does_not_take(inst, capsys):
    inst.write_text(inst.read_text().replace("mode exact", "mode exact\nprobe exact"))
    err = _solve_fails(capsys, inst)
    assert "constraint connected: kind connected takes no parameter 'probe'" in err


def test_unknown_compact_probe(inst, capsys):
    text = dumps(generate(seed=2, width=4, height=4, colours=3, with_compact=True))
    inst.write_text(text.replace("weight_fn identity", "weight_fn identity\nprobe exakt"))
    assert "constraint compactness: unknown probe 'exakt'" in _solve_fails(capsys, inst)


OUT_OF_RANGE = [
    ("moves_per_iter", "-3"),
    ("max_iterations", "-1"),
    ("restart_after", "-5"),
    ("init", "rnadom"),
    ("init", "random"),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_search_parameter_out_of_range_in_the_file(key, value):
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    text = re.sub(f"^{key} .*$", f"{key} {value}", text, count=1, flags=re.M)
    lineno = text.splitlines().index(f"{key} {value}") + 1
    with pytest.raises(FormatError, match=f"^g.inst:{lineno}: .*search parameter {key} "):
        loads(text, origin="g.inst")


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_search_parameter_out_of_range_in_the_config(key, value):
    model = generate(seed=2, width=4, height=4, colours=3).build()
    before = model.state.snapshot()
    cast = type(getattr(SearchConfig(), key))
    cfg = replace(SearchConfig(seed=1, max_iterations=50), **{key: cast(value)})
    with pytest.raises(InputError, match=f"search parameter {key} "):
        search(model, cfg)
    assert model.state.snapshot() == before


# the search has no noise coin, no tabu list and one candidate rule, so a
# file that still sets any of them is refused at the key, whatever its
# value, as any unknown key is
@pytest.mark.parametrize(
    "key, value",
    [
        ("noise", "nan"),
        ("noise", "-0.5"),
        ("noise", "7"),
        ("tabu_tenure", "-2"),
        ("neighbourhood", "border"),
        ("neighbourhood", "full"),
    ],
)
def test_a_removed_search_key_is_unknown_in_the_file(key, value):
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    text = text.replace("[search]\n", f"[search]\n{key} {value}\n")
    lineno = text.splitlines().index(f"{key} {value}") + 1
    with pytest.raises(FormatError, match=f"^g.inst:{lineno}: unknown search key '{key}'$"):
        loads(text, origin="g.inst")


# no constraint "nosuch"; the balance constraint has no hard_init; a
# paper-fast connected constraint's probes miss splits; a stretch-sum
# constraint is hard only with >= or <=
@pytest.mark.parametrize(
    "hard, mode, edit, message",
    [
        pytest.param("nosuch", None, None, "'nosuch'", id="nosuch"),
        pytest.param("balance", None, None, "'balance'", id="balance"),
        pytest.param(
            "connected",
            "paper-fast",
            None,
            "constraint connected: mode paper-fast cannot be hard",
            id="paper-fast",
        ),
        pytest.param(
            "dwell0",
            None,
            ("relop >=\nthreshold 120\n", "relop =\nthreshold 120\n"),
            "constraint dwell0: relation = cannot be hard",
            id="stretchsum-equal",
        ),
    ],
)
def test_bad_hard_id_changes_nothing(hard, mode, edit, message):
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    text = text.replace("counter 3\n", "counter 3\ncounter_min 2\ncounter_max 4\n")
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    model = loads(text).build(mode_override=mode)
    model.commit(Move.counter("connected", 4))
    before = model.state.snapshot()
    cfg = SearchConfig(seed=1, max_iterations=50, hard=(hard,))
    with pytest.raises(InputError, match=message):
        search(model, cfg)
    assert model.state.snapshot() == before
    assert model.constraint("connected").counter_value == 4


def test_unknown_hard_id_in_the_file_names_its_line():
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    # [search] first: "connected" is known although its section comes later
    head, search_section = text.split("[search]\n")
    header, body = head.split("\n", 1)
    text = f"{header}\n[search]\n{search_section}{body}".replace("hard -", "hard connected,nosuch")
    lineno = text.splitlines().index("hard connected,nosuch") + 1
    with pytest.raises(FormatError, match=f"^g.inst:{lineno}: unknown constraint id 'nosuch'$"):
        loads(text, origin="g.inst")


def test_repeated_hard_id_on_the_command_line(inst, capsys):
    err = _solve_fails(capsys, inst, "--hard", "connected,connected")
    assert "search parameter hard names 'connected' twice" in err


def test_repeated_hard_id_in_the_file_names_its_line():
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    text = text.replace("hard -", "hard connected,dwell0,connected")
    lineno = text.splitlines().index("hard connected,dwell0,connected") + 1
    with pytest.raises(
        FormatError, match=f"^g.inst:{lineno}: .*search parameter hard names 'connected' twice$"
    ):
        loads(text, origin="g.inst")


def test_repeated_hard_id_in_the_config_changes_nothing():
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    text = text.replace("counter 3\n", "counter 3\ncounter_min 2\ncounter_max 4\n")
    model = loads(text).build()
    model.commit(Move.counter("connected", 4))
    before = model.state.snapshot()
    calls = []
    set_all = model.set_all
    model.set_all = lambda colours: calls.append(colours) or set_all(colours)
    cfg = SearchConfig(seed=1, max_iterations=50, hard=("connected", "connected"))
    with pytest.raises(InputError, match="search parameter hard names 'connected' twice"):
        search(model, cfg)
    assert calls == []
    assert model.state.snapshot() == before
    assert model.constraint("connected").counter_value == 4


def test_repeated_weight_id(inst, capsys):
    err = _solve_fails(capsys, inst, "--weights", "balance=2,balance=3")
    assert "weight for 'balance' given twice" in err


def test_negative_iterations_on_the_command_line(inst, capsys):
    assert cli.main(["solve", str(inst), "--iters", "-1"]) == 2
    assert "search parameter max_iterations must not be negative" in capsys.readouterr().err


def test_solution_with_a_non_integer_field(tmp_path):
    path = tmp_path / "s.sol"
    path.write_text("sector-solution 1\ncolour 0 1\ncolour 1 x\n")
    with pytest.raises(FormatError, match=f"{path}:3"):
        load_solution(str(path))


def test_solution_with_a_repeated_vertex(tmp_path):
    path = tmp_path / "s.sol"
    path.write_text("sector-solution 1\ncolour 0 1\ncolour 1 2\ncolour 0 2\n")
    with pytest.raises(FormatError, match=f"{path}:4: vertex 0 repeated"):
        load_solution(str(path))


def _check_fails(capsys, inst, tmp_path, *lines):
    sol = tmp_path / "s.sol"
    colours = [f"colour {v} 1" for v in range(16)]
    sol.write_text("\n".join(["sector-solution 1", *colours, *lines]) + "\n")
    assert cli.main(["check", str(inst), str(sol)]) == 2
    return sol, capsys.readouterr().err


def test_solution_colour_out_of_range(inst, tmp_path, capsys):
    sol = tmp_path / "s.sol"
    save_solution({**dict.fromkeys(range(16), 1), 5: 9}, str(sol))
    assert cli.main(["check", str(inst), str(sol)]) == 2
    assert capsys.readouterr().err == "error: vertex 5: colour 9 outside 1..3\n"


def test_solution_with_a_malformed_counter(inst, tmp_path, capsys):
    sol, err = _check_fails(capsys, inst, tmp_path, "counter connected three")
    assert f"{sol}:18: expected an integer value" in err


def test_solution_with_a_repeated_counter(inst, tmp_path, capsys):
    sol, err = _check_fails(capsys, inst, tmp_path, "counter connected 3", "counter connected 3")
    assert f"{sol}:19: counter connected repeated" in err


def test_solution_counter_that_is_not_searchable(inst, tmp_path, capsys):
    _, err = _check_fails(capsys, inst, tmp_path, "counter connected 3")
    assert "counter connected names no searchable counter" in err


def test_solution_counter_outside_its_domain(inst, tmp_path, capsys):
    ranged = "counter 3\ncounter_min 2\ncounter_max 4\n"
    inst.write_text(inst.read_text().replace("counter 3\n", ranged))
    _, err = _check_fails(capsys, inst, tmp_path, "counter connected 5")
    assert "counter connected value 5 outside 2..4" in err


def test_built_counter_outside_its_range(inst, capsys):
    ranged = "counter 9\ncounter_min 2\ncounter_max 4\n"
    inst.write_text(inst.read_text().replace("counter 3\n", ranged))
    with pytest.raises(InputError, match="constraint connected: counter 9 outside 2..4"):
        loads(inst.read_text()).build()
    # rejected before any search prints its seed line
    assert cli.main(["solve", str(inst), "--iters", "50"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: constraint connected: counter 9 outside 2..4\n"


def test_generate_without_colours(tmp_path, capsys):
    out = tmp_path / "none.inst"
    assert cli.main(["generate", "--colours", "0", "-o", str(out)]) == 2
    assert "colours=0" in capsys.readouterr().err
    assert not out.exists()


# an empty range used to end in a traceback from the draw; a dwell below
# 1, a negative workload (a negative balance threshold), a negative
# flight count (silently none) and a negative cap (which no colouring
# meets) in a file solve refuses, misreads or cannot solve
@pytest.mark.parametrize(
    "argv, named",
    [
        (["--workload-min", "5", "--workload-max", "1"], "workload=("),
        (["--dwell-min", "10", "--dwell-max", "5"], "dwell=("),
        (["--dwell-min", "0"], "dwell=("),
        (["--dwell-min", "-3", "--dwell-max", "-1"], "dwell=("),
        (["--workload-min", "-5", "--workload-max", "-1"], "workload=(-5, -1)"),
        (["--workload-min", "-1"], "workload=(-1, 9)"),
        (["--flights", "-1"], "flights=-1"),
        (["--bounded", "-5"], "bounded=-5"),
    ],
    ids=["empty-workload", "empty-dwell", "zero-dwell", "negative-dwell",
         "negative-workload", "workload-below-zero", "negative-flights",
         "negative-bounded"],
)
def test_generate_with_a_bad_range(tmp_path, capsys, argv, named):
    out = tmp_path / "bad.inst"
    assert cli.main(["generate", *argv, "-o", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_cap_below_the_workload_share(tmp_path, capsys):
    # a workload total of 47 over 2 colours: some colour carries 24, so
    # no colouring meets a cap of 23
    args = dict(seed=1, width=3, height=3, colours=2, flights=1)
    named = (
        "^need a bounded cap of at least 24 for a workload total of 47 over 2 colours,"
        " got bounded=23$"
    )
    with pytest.raises(InputError, match=named):
        generate(**args, bounded_threshold=23)
    generate(**args, bounded_threshold=24).build()
    argv = ["generate", "--seed", "1", "--width", "3", "--height", "3", "--colours", "2",
            "--flights", "1"]
    out = tmp_path / "cap.inst"
    assert cli.main([*argv, "--bounded", "23", "-o", str(out)]) == 2
    assert "got bounded=23" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main([*argv, "--bounded", "24", "-o", str(out)]) == 0
    assert loads(out.read_text()).workload_total() == 47


def test_generate_refuses_more_colours_than_cells(tmp_path, capsys):
    # the counter asks for one component per colour, and a 2x1 grid has
    # room for two: a third colour wrote a file solve refused, as it
    # cannot grow three regions over two cells
    args = dict(seed=1, width=2, height=1, flights=1)
    named = "^need at most one colour per grid cell, got colours=3 over 2 cells$"
    with pytest.raises(InputError, match=named):
        generate(**args, colours=3)
    generate(**args, colours=2).build()
    argv = ["generate", "--seed", "1", "--width", "2", "--height", "1", "--flights", "1"]
    out = tmp_path / "cells.inst"
    assert cli.main([*argv, "--colours", "3", "-o", str(out)]) == 2
    assert "colours=3" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main([*argv, "--colours", "2", "-o", str(out)]) == 0
    assert cli.main(["solve", str(out), "--iters", "50"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("share", [-0.5, float("nan")])
def test_generate_refuses_a_balanced_share_below_zero(share):
    # refused by generate, naming its argument, not by the balance's build
    named = f"^need a balanced_share of at least 0, got balanced_share={share}$"
    with pytest.raises(InputError, match=named):
        generate(seed=1, width=3, height=3, colours=2, balanced_share=share)
    generate(seed=1, width=3, height=3, colours=2, balanced_share=0.0).build()


def test_generate_accepts_zero_workloads_and_no_flights():
    # the lowest values the checks let through still load and build
    instance = generate(seed=2, width=4, height=4, colours=3, flights=0, workload=(0, 0))
    assert instance.workload_total() == 0 and instance.flights == []
    loads(dumps(instance)).build()


def test_model_colours_below_one_in_the_file(inst, capsys):
    text = inst.read_text()
    lineno = text.splitlines().index("colours 3") + 1
    inst.write_text(text.replace("colours 3\n", "colours 0\n"))
    with pytest.raises(FormatError, match=f"^g.inst:{lineno}: colours must be at least 1, got 0$"):
        loads(inst.read_text(), origin="g.inst")
    assert f"{inst}:{lineno}: colours must be at least 1" in _solve_fails(capsys, inst)


@pytest.mark.parametrize("key, value", [("cell_area", "0"), ("cell_volume", "-2"), ("width", "0")])
def test_grid_value_below_one_in_the_file(key, value):
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    text = re.sub(f"^{key} .*$", f"{key} {value}", text, count=1, flags=re.M)
    lineno = text.splitlines().index(f"{key} {value}") + 1
    message = f"^g.inst:{lineno}: {key} must be at least 1, got {value}$"
    with pytest.raises(FormatError, match=message):
        loads(text, origin="g.inst")


@pytest.mark.parametrize(
    "edit, repeated, what",
    [
        pytest.param(("w 3 6\n", "w 3 6\nw 3 7\n"), "w 3", "workload of vertex 3", id="workload"),
        pytest.param(("colours 3\n", "colours 3\ncolours 4\n"), "colours", "key 'colours'",
                     id="colours"),
        pytest.param(("width 4\n", "width 4\nwidth 5\n"), "width", "key 'width'", id="grid-key"),
        pytest.param(("moves_per_iter 12\n", "moves_per_iter 12\nmoves_per_iter 6\n"),
                     "moves_per_iter", "key 'moves_per_iter'", id="search-key"),
        pytest.param(("delta_scaled ", "delta_scaled 1\ndelta_scaled "), "delta_scaled",
                     "key 'delta_scaled'", id="constraint-key"),
        pytest.param(("[search]\n", "[flight 0]\nleg 1 0 9\n[search]\n"), "[flight 0]",
                     "section [flight 0]", id="flight-section"),
        pytest.param(("[search]\n", "[flight 00]\n[search]\n"), "[flight 0",
                     "section [flight 00]", id="flight-section-spelt-otherwise"),
        pytest.param(("[search]\n", "[constraint balance]\nkind balanced\n[search]\n"),
                     "[constraint balance]", "section [constraint balance]",
                     id="constraint-section"),
        pytest.param(("[search]\n", "[grid]\n[search]\n"), "[grid]", "section [grid]",
                     id="grid-section"),
    ],
)
def test_a_repeat_names_its_line_and_the_first(edit, repeated, what):
    # a repeat would otherwise replace the first value, or add a second
    # [flight i]'s legs to the first's
    text = dumps(generate(seed=2, width=4, height=4, colours=3))
    assert text.count(edit[0]) == 1
    text = text.replace(*edit)
    hits = [no for no, line in enumerate(text.splitlines(), 1) if line.startswith(repeated)]
    assert len(hits) == 2
    match = f"^g.inst:{hits[1]}: {re.escape(what)} given twice, first at g.inst:{hits[0]}$"
    with pytest.raises(FormatError, match=match):
        loads(text, origin="g.inst")


def test_a_repeated_constraint_id_is_refused_before_build(inst, capsys):
    # refused where the file is read, with both lines, not at build
    text = inst.read_text().replace("[search]\n", "[constraint balance]\nkind balanced\n[search]\n")
    inst.write_text(text)
    lines = text.splitlines()
    first = lines.index("[constraint balance]") + 1
    repeat = lines.index("[constraint balance]", first) + 1
    message = f"{inst}:{repeat}: section [constraint balance] given twice, first at {inst}:{first}"
    assert message in _solve_fails(capsys, inst)
